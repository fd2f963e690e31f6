"""Analytic property checks behind the volume bounds and the rank criteria.

Every check returns a ``PropertyReport`` with its worst margin (>= 0 passes),
an empirical constant and its evidence.  The sampled checks sweep an explicit
seeded sample set and record the worst case they saw; the boundary-derivative
and slice-gradient checks justify testing rank on the torus alone.  The
inequalities are theorems, so a failed report indicates a numerical bug, never
a tolerance to relax.  ``battery.property_reports`` pins every check's inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULTS, LabConfig
from .contact import ContactRequired
from .measure import AnnulusArc, WeightParam, restricted_sample
from .symbols import PolySymbol, TorusPoint

TWO_PI = 2.0 * math.pi

_MOBIUS_DELTAS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
_MOBIUS_SAMPLES = 256  # phases per (parameter, delta) case
_LINEARIZATION_RADII = (0.2, 0.1, 0.05)  # largest first
_LINEARIZATION_FILL = 20_000  # random points added at each radius
_SLICE_SAMPLES = 100  # interior slice points compared with the reference gradient


class RegionRejected(ValueError):
    """The sampled region violated a precondition (for example a Jacobian floor)."""


@dataclass(frozen=True)
class PropertyReport:
    name: str
    sample_count: int
    worst_violation: float       # most negative margin seen; >= 0 - tol passes
    empirical_constant: float
    passed: bool
    seed: int
    worst_sample: tuple = ()
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def mobius_margin_check(
    family: Callable[[complex, float], complex],
    params,
    seed: int = 0,
) -> PropertyReport:
    """Margin of a holomorphic family: |x| <= 1 - delta forces |phi(x,k)| <= 1 - C delta.

    Sweeps |x| = 1 - delta and records the empirical C = min (1 - |phi|)/delta,
    which must stay positive and above the analytic floor (1 - max_k |phi(0,k)|)/2.
    """
    params = [float(k) for k in params]
    rng = np.random.default_rng(seed)
    worst = math.inf
    worst_sample: tuple = ()
    count = 0
    floor = max(abs(complex(family(0.0, k))) for k in params)
    analytic_floor = (1.0 - floor) / 2.0
    for k in params:
        for delta in _MOBIUS_DELTAS:
            phases = TWO_PI * (np.arange(_MOBIUS_SAMPLES) + rng.random(_MOBIUS_SAMPLES)) / _MOBIUS_SAMPLES
            xs = (1.0 - delta) * np.exp(1j * phases)
            for x in xs:
                val = complex(family(complex(x), k))
                if abs(val) > 1.0 + 1e-12:
                    raise ValueError(
                        f"family value |phi({x:.4f}, {k})| = {abs(val):.6f} leaves the disc"
                    )
                margin = (1.0 - abs(val)) / delta
                count += 1
                if margin < worst:
                    worst = margin
                    worst_sample = (complex(x), k, delta)
    passed = worst > 0.0 and worst >= analytic_floor - 1e-12
    return PropertyReport(
        name="mobius_margin",
        sample_count=count,
        worst_violation=worst - analytic_floor,
        empirical_constant=worst,
        passed=passed,
        seed=seed,
        worst_sample=worst_sample,
        details={"analytic_floor": analytic_floor},
    )


def _scale_sweep(zeta: np.ndarray, radius: float, rng: np.random.Generator,
                 random_count: int, cap: int = 150_000) -> np.ndarray:
    """Sample points of D^n at scale ``radius`` around a torus point.

    Coordinates are parametrized by boundary distance sigma (log-spaced down
    to radius * 1e-4) and tangential angle, z_j = zeta_j (1-sigma_j) e^{i t_j}.
    The deterministic grid makes the per-scale maxima comparable across
    scales; the ratio extrema live in the thin sliver sigma << t^2, which
    uniform ball sampling almost never hits.
    """
    n = len(zeta)
    sigmas = radius * np.logspace(-4.0, 0.0, 7)
    ts = radius * np.linspace(-1.0, 1.0, 15)
    per = [(s, t) for s in sigmas for t in ts]
    grids = np.meshgrid(*([np.arange(len(per))] * n), indexing="ij")
    combos = np.stack([g.reshape(-1) for g in grids], axis=1)
    if len(combos) > cap:
        stride = int(math.ceil(len(combos) / cap))
        combos = combos[::stride]
    per_arr = np.array(per)
    sigma = per_arr[combos, 0]
    tang = per_arr[combos, 1]
    z = zeta * (1.0 - sigma) * np.exp(1j * tang)
    if random_count > 0:
        rs = radius * rng.random((random_count, n))
        rt = radius * (2.0 * rng.random((random_count, n)) - 1.0)
        z_rand = zeta * (1.0 - rs) * np.exp(1j * rt)
        z = np.concatenate([z, z_rand], axis=0)
    return z


def linearization_bound_check(
    f: PolySymbol,
    zeta: TorusPoint,
    eta: complex,
    seed: int = 0,
    config: LabConfig = DEFAULTS,
) -> PropertyReport:
    """Stability of |f(z) - eta| <= C |sum_j df/dz_j(zeta) (z_j - zeta_j)| near a contact point.

    The empirical C is the max ratio over a deterministic boundary-distance
    sweep plus seeded random fill at each scale; the check asserts it is
    nonincreasing within 5% as the scale shrinks, the stabilization evidence
    that a single constant works on a full neighborhood.  Near-zero
    denominators are excluded and counted; more than 1% exclusions fail the
    report.
    """
    if f.n_out != 1:
        raise ValueError("linearization check needs a scalar symbol")
    z0 = zeta.point()
    val = f.evaluate(z0)[0]
    if abs(val - eta) > config.contact_tol * 10.0:
        raise ContactRequired(f"|f(zeta) - eta| = {abs(val - eta):.3e}")
    grad = f.jacobian(z0)[0]
    rot = np.conj(eta) * grad
    rng = np.random.default_rng(seed)
    cs = []
    excluded = 0
    total = 0
    worst_sample: tuple = ()
    for r in _LINEARIZATION_RADII:
        z = _scale_sweep(z0, r, rng, _LINEARIZATION_FILL)
        num = np.abs(f.evaluate_batch(z)[:, 0] - eta)
        den = np.abs((z - z0) @ rot)
        keep = den > 1e-14
        excluded += int(np.sum(~keep))
        total += len(z)
        ratio = num[keep] / den[keep]
        idx = int(np.argmax(ratio))
        cs.append(float(ratio[idx]))
        worst_sample = tuple(z[keep][idx])
    stabilizes = all(c2 <= c1 * 1.05 for c1, c2 in zip(cs, cs[1:]))
    exclusion_ok = excluded <= 0.01 * total
    return PropertyReport(
        name="linearization_bound",
        sample_count=total,
        worst_violation=min(c1 * 1.05 - c2 for c1, c2 in zip(cs, cs[1:])),
        empirical_constant=cs[-1],
        passed=stabilizes and exclusion_ok and math.isfinite(cs[-1]),
        seed=seed,
        worst_sample=worst_sample,
        details={"constants_by_radius": tuple(cs), "radii": _LINEARIZATION_RADII,
                 "excluded": excluded},
    )


def schwarz_product_check(
    sym: PolySymbol,
    region: AnnulusArc,
    c_floor: float,
    samples: int = 100_000,
    seed: int = 0,
) -> PropertyReport:
    """Product Schwarz inequality near a torus contact point.

    On a region where |det dPhi| > c_floor, the product of (1 - |Phi_j|^2)
    dominates (c_floor/k!)^k times the product of (1 - |z_j|^2).  The region
    is rejected outright if the Jacobian floor fails on any sample.
    """
    sym.require_certificate()
    k = sym.n_in
    if sym.n_out != k:
        raise ValueError("schwarz product check needs a square symbol")
    rng = np.random.default_rng(seed)
    z, _ = restricted_sample(region, WeightParam(0.0), rng, samples)
    dets = np.abs(np.linalg.det(sym.jacobian_batch(z)))
    if np.any(dets < c_floor - 1e-12):
        bad = z[int(np.argmin(dets))]
        raise RegionRejected(
            f"|det dPhi| = {dets.min():.6f} below floor {c_floor} at {bad}"
        )
    vals = sym.evaluate_batch(z)
    lhs = np.prod(1.0 - np.abs(vals) ** 2, axis=1)
    base = np.prod(1.0 - np.abs(z) ** 2, axis=1)
    const = (c_floor / math.factorial(k)) ** k
    margin = lhs - const * base
    idx = int(np.argmin(margin))
    ratios = lhs / base
    return PropertyReport(
        name="schwarz_product",
        sample_count=samples,
        worst_violation=float(margin[idx]),
        empirical_constant=float(ratios.min()),
        passed=bool(margin[idx] >= -1e-12),
        seed=seed,
        worst_sample=tuple(z[idx]),
        details={"required_constant": const, "jacobian_floor": c_floor},
    )


def jc_check(f: PolySymbol, zeta: TorusPoint, eta: complex,
             config: LabConfig = DEFAULTS) -> PropertyReport:
    """Check that conj(eta) * zeta_j * df/dz_j(zeta) is real and >= -jc_tol for all j.

    At a torus contact point of a holomorphic self-map these rotated boundary
    derivatives are real and nonnegative (Julia-Caratheodory); a violation
    beyond jc_tol indicates a numerical bug or a map that is not a self-map.
    """
    if f.n_out != 1:
        raise ValueError("jc_check needs a scalar symbol")
    z = zeta.point()
    val = f.evaluate(z)[0]
    if abs(val - eta) > max(config.contact_tol, 1e-12) * 10.0:
        raise ContactRequired(
            f"point is not a contact point for target {eta}: |f(zeta) - eta| = {abs(val - eta):.3e}"
        )
    grad = f.jacobian(z)[0]
    rotated = tuple(complex(np.conj(eta) * z[j] * grad[j]) for j in range(f.n_in))
    max_imag = max(abs(v.imag) for v in rotated)
    min_real = min(v.real for v in rotated)
    return PropertyReport(
        name="boundary_derivative",
        sample_count=f.n_in,
        worst_violation=min(config.jc_tol - max_imag, min_real + config.jc_tol),
        empirical_constant=min_real,
        passed=max_imag <= config.jc_tol and min_real >= -config.jc_tol,
        seed=0,
        details={"values": rotated},
    )


def slice_gradient_constancy(
    psi: PolySymbol,
    m: int,
    zeta_tail: TorusPoint,
    z0,
    config: LabConfig = DEFAULTS,
    seed: int = 0,
) -> PropertyReport:
    """Verify that z -> grad psi(z, zeta'') is constant over the interior slice D^m.

    The precondition is unit modulus at (z0, zeta''); the conclusion justifies
    checking rank conditions on the torus only, since gradients propagate
    unchanged from the distinguished boundary into mixed boundary faces.  The
    empirical constant is the largest deviation from the gradient at
    (z0, zeta''), which ``details["gradient"]`` holds.
    """
    if psi.n_out != 1:
        raise ValueError("slice check needs a scalar symbol")
    n = psi.n_in
    if not 1 <= m < n:
        raise ValueError("split must satisfy 1 <= m < n")
    if zeta_tail.n != n - m:
        raise ValueError("tail point dimension mismatch")
    z0 = np.asarray(z0, dtype=complex)
    if z0.shape != (m,):
        raise ValueError("interior point dimension mismatch")
    tail = zeta_tail.point()
    base = np.concatenate([z0, tail])
    val = psi.evaluate(base)[0]
    if abs(abs(val) - 1.0) > config.contact_tol:
        raise ContactRequired(
            f"|psi(z0, zeta'')| = {abs(val):.12f} is not within contact_tol of 1"
        )
    ref_grad = psi.jacobian(base)[0]
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random((_SLICE_SAMPLES, m)))
    ang = rng.random((_SLICE_SAMPLES, m)) * TWO_PI
    heads = r * np.exp(1j * ang)
    pts = np.concatenate([heads, np.tile(tail, (_SLICE_SAMPLES, 1))], axis=1)
    grads = psi.jacobian_batch(pts)[:, 0, :]
    max_dev = float(np.max(np.abs(grads - ref_grad)))
    return PropertyReport(
        name="slice_gradient_constancy",
        sample_count=_SLICE_SAMPLES,
        worst_violation=config.slice_tol - max_dev,
        empirical_constant=max_dev,
        passed=max_dev <= config.slice_tol,
        seed=seed,
        details={"gradient": tuple(complex(g) for g in ref_grad)},
    )

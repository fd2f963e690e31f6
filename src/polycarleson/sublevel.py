"""Monte Carlo estimation of weighted sublevel-set volumes and their scaling.

The volumes V_beta({z in D^n : |f(z) - eta| <= delta}) decay like a power of
delta, far below what uniform sampling can resolve, so estimation draws from
proposal regions that provably contain the sublevel set: near-torus annuli
whose radial depth scales with delta, combined with an angle-sum window (when
f is a single monomial, whose sublevel sets wrap around the torus), with the
deficit simplex {sum_k |c_k| (1 - Re(e^{-i phi_k} z_k^{m_k})) <= delta} (when
f is a sum of single-variable monomials at an extremal target, which it
contains exactly), or with per-coordinate arcs of width ~ sqrt(delta) around
the finite solution set of f = eta on T^n.

Inside the region one coordinate is integrated out (conditional Monte
Carlo).  When z_j enters a binding as a + b z_j^m with a and b free of z_j,
the theta_j-measure of {|f - eta| <= delta} at fixed other coordinates and
r_j is an arc of half-width h = arccos((rho^2 + c^2 - delta^2)/(2 rho c)),
rho = |b| r_j^m, c = |eta - a|.  When no other binding contains z_j, r_j is
integrated too: each draw contributes W = ∫ h/pi dmu_beta(r_j) over the whole
radial law, a lens area for m = 1 at beta = 0 and otherwise a 21-point
Gauss-Kronrod rule (``measure._radial_cap_weight``), and z_j takes no
uniform at all.  Otherwise r_j is drawn and each draw contributes h/pi: a
simplex coordinate's r_j, drawn last, takes one uniform through a cosine map
on the interval where the arc is non-empty, and the draw's likelihood
(``measure.region_points``) multiplies its weight.  Either way the region
drops its constraints on what is integrated (theta_j's arcs and the
angle-sum window, and r_j's depth with it).  Symbols with no such coordinate
fall back to plain hit counting.

The conditioned integrand is a bounded, almost everywhere continuous function
of the remaining uniforms (2n - 2 of them, or 2n - 1 when r_j is drawn), so
the points are randomised quasi-Monte Carlo: R >= 64 independently scrambled
Sobol replicates, mapped into the region by ``measure.restricted_sample``.
The stderr is the replicates' standard error combined with the stated bound
on the weights' quadrature error.  A uniform i.i.d. "leakage audit" pass
estimates the mass the region might have missed; estimates failing the
audit are flagged untrusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .contact import MERGE_RADIUS, _dedupe, _torus_newton, find_contact_set
from .fitting import loglog_wls, trusted_points
from .measure import (
    AngleSumWindow,
    AnnulusArc,
    DeficitSimplex,
    WeightParam,
    _branch_angle,
    _cap_angular_halfwidth,
    _power,
    _radial_cap_weight,
    merge_arcs,
    region_contains,
    region_mass,
    restricted_sample,
    sample_polydisc,
)
from .montecarlo import replicate_bundle, replicate_layout, run_batches, sum_counts
from .symbols import (MonomialTable, PolySymbol, TorusPoint, _eval_table, _torus_grid_bound,
                      cert_grid_res)

TWO_PI = 2.0 * math.pi

# Importance-sampling proposal margin K: radial depth K/2 delta, angular
# window K/2 delta for monomial constraints, arcs K sqrt(delta) around finite
# value fibers.  K = 4 keeps hit rates compatible with the pinned budgets
# while still dominating the provable containment constants of the battery
# symbols; the leakage audit guards the margin at runtime.
PROPOSAL_MARGIN = 4.0

# The trust rule.  The leakage audit draws LEAKAGE_FRACTION of the main
# draws; leakage above LEAKAGE_THRESHOLD of the estimate marks it untrusted.
# Zero support reports the one-sided bound ZERO_HIT_FACTOR / draws x region
# mass.  Estimates are a pure function of (seed, budget): their batch layouts
# depend on the budget alone (montecarlo), and thread count never enters.
LEAKAGE_FRACTION = 0.1
LEAKAGE_THRESHOLD = 0.01
ZERO_HIT_FACTOR = 3.0

# a value fiber with more separated points than this is a manifold
FIBER_CAP = 64


@dataclass(frozen=True)
class SublevelQuery:
    f: PolySymbol
    eta: complex
    delta: float
    beta: WeightParam
    budget: int
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        if self.f.n_out != 1:
            raise ValueError("sublevel queries need a scalar symbol")
        if abs(abs(complex(self.eta)) - 1.0) > 1e-9:
            raise ValueError("target eta must be unimodular")
        if not 0.0 < self.delta <= 2.0:
            raise ValueError("delta must lie in (0, 2]")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SublevelEstimate:
    """Monte Carlo V_beta volume of an indicator over D^n with its trust flags.

    The main draws are R * 2^k <= budget points (``replicate_layout``): R
    scrambled Sobol replicates.  ``stderr`` is the standard error of the mean
    over the R replicates, with the audit's and the stated bound on the
    weights' quadrature error added in quadrature, so the 95 % interval uses
    Student t with R - 1 degrees of freedom.  The zero-support
    upper bound and the audit's budget count the R * 2^k draws actually
    made, not the nominal budget.
    """

    volume: float          # restricted estimate plus measured leakage
    stderr: float
    hits: int              # draws with positive weight (integrated probability)
    region_mass: float
    leakage: float
    leakage_stderr: float
    upper_bound: float | None
    trusted: bool
    reason: str

    @staticmethod
    def empty(reason: str) -> "SublevelEstimate":
        """Exact zero for a set that is empty by structure; no sampling needed."""
        return SublevelEstimate(volume=0.0, stderr=0.0, hits=0, region_mass=0.0,
                                leakage=0.0, leakage_stderr=0.0, upper_bound=0.0,
                                trusted=True, reason=reason)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    slope_stderr: float
    max_abs_residual: float
    deltas: tuple[float, ...]             # the full grid
    points: tuple[SublevelEstimate, ...]  # one per grid delta, trusted or not

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["delta", "estimate", "stderr", "hits", "region_mass", "trusted"]
        rows = [
            [d, p.volume, p.stderr, p.hits, p.region_mass, int(p.trusted)]
            for d, p in zip(self.deltas, self.points)
        ]
        return header, rows


# ---------------------------------------------------------------------------
# value fibers f = eta on the torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueFiber:
    kind: str  # "finite" | "manifold" | "empty"
    points: tuple[TorusPoint, ...]


@lru_cache(maxsize=64)
def find_value_fiber(f: PolySymbol, eta: complex) -> ValueFiber:
    """Solve f = eta on T^n, classified as a finite point set or a manifold.

    Newton seeds come from the contact set |f| = 1, and a refined point is
    kept when its residual is within that contact set's ``contact_tol``.
    """
    eta = complex(eta)
    cs = find_contact_set(f, [0])
    if cs.is_empty:
        return ValueFiber("empty", ())
    seeds = np.array([p.angles for p in cs.points], dtype=float)
    table = f.components[0]
    vals = _eval_table(table, np.exp(1j * seeds), {})
    close = np.abs(vals - eta) <= 0.7
    if not np.any(close):
        return ValueFiber("empty", ())
    theta = _torus_newton([table], [eta], seeds[close], ascend=False)
    resid = np.abs(_eval_table(table, np.exp(1j * theta), {}) - eta)
    theta %= TWO_PI
    ok = resid <= cs.contact_tol
    if not np.any(ok):
        return ValueFiber("empty", ())
    pts, _ = _dedupe(theta[ok], resid[ok], MERGE_RADIUS)
    if len(pts) > FIBER_CAP:
        return ValueFiber("manifold", ())
    return ValueFiber("finite", tuple(TorusPoint(tuple(p)) for p in pts))


# ---------------------------------------------------------------------------
# proposal construction
# ---------------------------------------------------------------------------


PROVABLY_EMPTY = "provably-empty"


def _split_structure(f: PolySymbol):
    """Classify a scalar symbol for proposal building.

    Returns one of
      ("monomial", c0, c, alpha)          a single multi-variable monomial
                                          plus an optional constant,
      ("separable", c0, [(j, m, c), ...]) a sum of one or more single-variable
                                          monomials plus an optional constant,
      ("general", None, None)             anything else.
    """
    c0 = 0j
    terms = []
    for alpha, c in f.components[0]:
        if sum(alpha) == 0:
            c0 += c
            continue
        terms.append((alpha, c))
    if len(terms) == 1 and sum(a > 0 for a in terms[0][0]) > 1:
        return ("monomial", c0, terms[0][1], terms[0][0])
    if terms and all(sum(a > 0 for a in alpha) == 1 for alpha, _ in terms):
        parts = []
        seen = set()
        for alpha, c in terms:
            j = next(i for i, a in enumerate(alpha) if a > 0)
            if j in seen:
                return ("general", None, None)  # two powers of one variable
            seen.add(j)
            parts.append((j, alpha[j], c))
        return ("separable", c0, parts)
    return ("general", None, None)


def _interior_slice_max(f: PolySymbol, j: int) -> float:
    """Upper bound for max |f| over the closure of the slice {z_j = 0}.

    Feeds the Schwarz-margin radial bound: |f| >= 1 - delta forces
    1 - |z_j| <= 4*delta / (1 - slice max).
    """
    if f.n_in == 1:
        return abs(f.evaluate(np.zeros(1, dtype=complex))[0])
    slice_tables = [tuple(term for term in t if not term[0][j]) for t in f.components]
    grid_max, margin = _torus_grid_bound(slice_tables, f.n_in, cert_grid_res(f.n_in - 1))
    return min(grid_max + margin, 1.0)


def build_proposal(bindings, n: int):
    """Region provably containing every set {|f_i - eta_i| <= delta_i} jointly.

    ``bindings`` is a list of (scalar symbol, unimodular target, tolerance).
    Containment bounds per binding:

    * multi-variable monomial c z^alpha (+ const): modulus pins radii
      (1 - r_j <= d/alpha_j with d = delta/|c|) and the imaginary part pins
      the angle combination sum alpha_j theta_j to a window of half-width ~ d;
    * separable sum of two or more single-variable monomials c_k z_k^{m_k}
      (+ const) at an extremal target: the deficit simplex
      {sum_k |c_k| (1 - Re(e^{-i phi_k} z_k^{m_k})) <= delta}, which contains
      the set exactly, with no margin (``measure.DeficitSimplex``);
    * a single term c z_j^m (+ const) pins the angle linearly, within d/m of
      each branch root, and the radius by 1 - r_j <= d/m;
    * anything else: arcs of width ~ sqrt(delta) around the finite value
      fiber f = eta, radial depth from the interior-slice Schwarz floor.

    The monomial and single-term bounds carry the margin K/2, the fiber arcs
    K; the leakage audit guards the construction at runtime.  The region
    holds one simplex, from the first such binding; other bindings keep
    their depth bounds on its coordinates, while their arcs and windows there
    are dropped (the region only grows).  A later multi-term binding adds no
    constraint.  Returns PROVABLY_EMPTY when a binding target is beyond the
    reach of its component.  Bindings are taken as given: an exact repeat
    builds the same region as one copy, while repeats of one (symbol, target)
    at different tolerances give a looser region that still contains the set,
    so callers merge them first with ``_merge_bindings``.
    """
    K = PROPOSAL_MARGIN
    k_half = K / 2.0
    if any(f.n_in != n or f.n_out != 1 for f, _, _ in bindings):
        raise ValueError("binding symbol dimension mismatch")

    depth_candidates: list[list[float]] = [[] for _ in range(n)]
    arc_specs: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    windows: list[tuple[tuple[int, ...], float, float]] = []
    simplex = None

    for f, eta, delta in bindings:
        eta, delta = complex(eta), float(delta)
        structure = _split_structure(f)
        kind = structure[0]
        if kind == "monomial":
            _, c0, c, alpha = structure
            cmod = abs(c)
            u = eta - c0
            umod = abs(u)
            if umod - cmod > delta + 1e-12:
                return PROVABLY_EMPTY
            if cmod - umod > 1e-9 or cmod < 1e-12:
                continue  # level set sits inside the polydisc; no torus structure
            d = delta / cmod
            base = math.atan2(u.imag, u.real) - math.atan2(c.imag, c.real)
            width = k_half * d
            for j in range(n):
                if alpha[j] > 0:
                    depth_candidates[j].append(k_half * d / alpha[j])
            if width < math.pi:
                windows.append((alpha, base, width))
        elif kind == "separable":
            _, c0, parts = structure
            u = eta - c0
            umod = abs(u)
            csum = sum(abs(c) for _, _, c in parts)
            if umod - csum > delta + 1e-12:
                return PROVABLY_EMPTY
            if csum - umod > 1e-9:
                continue  # not an extremal target: level set leaves the torus corner
            base_u = math.atan2(u.imag, u.real)
            if len(parts) > 1:
                if delta + csum - umod <= 0.0:
                    return PROVABLY_EMPTY  # its simplex is a finite set of torus points
                if simplex is None:
                    parts = sorted(parts, key=lambda part: part[0])  # drawn in coordinate order
                    simplex = DeficitSimplex(
                        coords=tuple(j for j, _, _ in parts),
                        powers=tuple(m for _, m, _ in parts),
                        moduli=tuple(abs(c) for _, _, c in parts),
                        phases=tuple(base_u - math.atan2(c.imag, c.real) for _, _, c in parts),
                        target=umod, tolerance=delta)
                continue
            ((j, m, c),) = parts
            cmod = abs(c)
            if cmod < 1e-12:
                continue
            d = delta / cmod
            depth_candidates[j].append(k_half * d / m)
            half = k_half * d / m
            if half < math.pi:
                base = base_u - math.atan2(c.imag, c.real)
                for k in range(m):
                    arc_specs[j].append(((base + TWO_PI * k) / m - half, 2.0 * half))
        else:
            live = [j for j in range(n) if f.depends_on(j)]
            for j in live:
                slice_max = _interior_slice_max(f, j)
                if slice_max < 1.0 - 1e-3:
                    depth_candidates[j].append(4.0 * delta / (1.0 - slice_max))
            fiber = find_value_fiber(f, eta)
            if fiber.kind == "finite" and fiber.points:
                half = K * math.sqrt(delta)
                if half < math.pi:
                    for j in live:
                        for pt in fiber.points:
                            arc_specs[j].append((pt.angles[j] - half, 2.0 * half))

    inner = simplex.coords if simplex is not None else ()
    depths = tuple(min(1.0, min(ds)) if ds else 1.0 for ds in depth_candidates)
    arcs = tuple(merge_arcs(arc_specs[j]) if arc_specs[j] and j not in inner else None
                 for j in range(n))

    window = None
    for alpha, base, width in windows:
        if any(alpha[j] for j in inner):
            continue
        solvable = [j for j in range(n) if alpha[j] > 0 and arcs[j] is None]
        if solvable:
            j0 = max(solvable, key=lambda j: alpha[j])
            window = AngleSumWindow(coeffs=tuple(alpha), center=base % TWO_PI,
                                    halfwidth=width, solve_index=j0)
            break  # one exact window; extra constraints stay in the membership test

    return AnnulusArc(depths=depths, arcs=arcs, window=window, simplex=simplex)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


Binding = tuple[MonomialTable, complex, float, bool]  # (table, target, tolerance, strict)


def _merge_bindings(bindings) -> list[Binding]:
    """Bindings in first-seen order; a repeated (table, target) keeps the tighter test."""
    merged: dict[tuple, Binding] = {}
    for table, target, tol, strict in bindings:
        key = (table, complex(target))
        new = (table, complex(target), float(tol), bool(strict))
        old = merged.get(key)
        if old is None or (new[2], not new[3]) < (old[2], not old[3]):
            merged[key] = new
    return list(merged.values())


def _holds(binding: Binding, z: np.ndarray, cache: dict) -> np.ndarray:
    table, target, tol, strict = binding
    dist = np.abs(_eval_table(table, z, cache) - target)
    return dist < tol if strict else dist <= tol


def _members(bindings: list[Binding], z: np.ndarray) -> np.ndarray:
    cache: dict = {}
    ok = np.ones(z.shape[0], dtype=bool)
    for binding in bindings:
        ok &= _holds(binding, z, cache)
    return ok


def _uses(table: MonomialTable, j: int) -> bool:
    return any(alpha[j] for alpha, _ in table)


@dataclass(frozen=True)
class _AngleSplit:
    """Binding ``index`` written as a + b z_j^m with a and b free of z_j.

    ``coupled``: another binding contains z_j too.  ``constant``: a and b
    contain no coordinate at all.
    """

    index: int
    j: int
    m: int
    a: MonomialTable
    b: MonomialTable
    coupled: bool
    constant: bool


def _split_coordinate(bindings: list[Binding], n: int) -> _AngleSplit | None:
    """Lowest j whose first binding containing z_j has a single exponent in z_j."""
    for j in range(n):
        index = next((i for i, (table, *_) in enumerate(bindings) if _uses(table, j)), None)
        if index is None:
            continue
        table = bindings[index][0]
        powers = {alpha[j] for alpha, _ in table if alpha[j]}
        if len(powers) == 1:
            a = tuple((alpha, c) for alpha, c in table if not alpha[j])
            b = tuple((alpha[:j] + (0,) + alpha[j + 1:], c) for alpha, c in table if alpha[j])
            coupled = any(_uses(t, j) for t, *_ in bindings[index + 1:])
            constant = not any(any(alpha) for alpha, _ in a + b)
            return _AngleSplit(index, j, powers.pop(), a, b, coupled, constant)
    return None


def _free_angle(region: AnnulusArc, j: int, radius: bool) -> AnnulusArc:
    """The region without its arcs on theta_j and its angle-sum window; z_j drawn last in a simplex.

    With ``radius``, r_j's depth goes too: r_j is then integrated over its whole law.
    """
    arcs = region.arcs[:j] + (None,) + region.arcs[j + 1:]
    depths = region.depths[:j] + (1.0,) + region.depths[j + 1:] if radius else region.depths
    simplex = region.simplex
    if j in region.inner:
        simplex = simplex.last(j)
    return AnnulusArc(depths=depths, arcs=arcs, simplex=simplex)


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| without np.abs's overflow-safe hypot, which costs several times more."""
    return np.sqrt(x.real * x.real + x.imag * x.imag)


def _conditional_weights(bindings: list[Binding], split: _AngleSplit, z: np.ndarray,
                         rngs: list[np.random.Generator], beta: WeightParam,
                         integrated: bool) -> tuple[np.ndarray, np.ndarray | float]:
    """P(every binding holds | z with z_j integrated out), one weight per row, and error bounds.

    With ``integrated``, column j of ``z`` is unused, as ``restricted_sample``
    leaves an integrated coordinate: the split binding holds with probability
    W = ∫ h(|b| r^m, |u|, delta)/pi dmu_beta(r) over the whole radial law
    (``_radial_cap_weight``, which also bounds each weight's quadrature
    error), and the other bindings multiply W by their indicators.

    Otherwise column j holds the real radius r_j, as ``restricted_sample``
    leaves a fixed coordinate: drawn by the region, by the cosine map on the
    interval where the simplex binding's arc is non-empty when z_j is a
    simplex coordinate, its Jacobian then in the point's likelihood.  Only
    theta_j is integrated: the split binding holds on an arc of m theta_j of
    half-width h, i.e. with probability h/pi, exact up to rounding.  Bindings
    free of z_j multiply that by their indicator.  Bindings that also contain
    z_j are tested at one theta_j drawn uniformly from the split binding's arc
    set, which keeps the weight unbiased.  The rows are len(rngs) equal
    replicates, and each replicate's draws of theta_j come from its own
    generator.
    """
    j, m = split.j, split.m
    _, target, tol, _ = bindings[split.index]
    cache: dict = {}
    u = target - _eval_table(split.a, z, cache)
    b = _eval_table(split.b, z, cache)
    others = [binding for i, binding in enumerate(bindings) if i != split.index]
    if integrated:
        # a and b free of every coordinate give one weight for all rows
        rows = slice(0, 1) if split.constant else slice(None)
        w, err = _radial_cap_weight(np.abs(b[rows]), np.abs(u[rows]), tol, m, beta)
        w, err = np.broadcast_to(w, z.shape[:1]), np.broadcast_to(err, z.shape[:1])
        if not others:
            return w, err
        ok = _members(others, z)
        return w * ok, err * ok
    r = z[:, j].real
    rho = _power(r, m)
    rho *= _modulus(b)
    h = _cap_angular_halfwidth(rho, _modulus(u), tol)
    w = h / math.pi
    if not others:
        return w, 0.0
    ok = _members([binding for binding in others if not _uses(binding[0], j)], z)
    coupled = [binding for binding in others if _uses(binding[0], j)]
    if coupled:
        # theta_j uniform on the split binding's arc {m theta_j - arg(u/b) in ±h},
        # from one uniform per row drawn by its replicate's generator
        x = np.empty(w.size)
        for g, rows in zip(rngs, np.split(x, len(rngs))):
            g.random(out=rows)
        cos, sin, _ = _branch_angle(x, m, h, np.angle(u) - np.angle(b))
        cos *= r
        sin *= r
        zj = z[:, j]  # the caller's column, read no more
        zj.imag = sin
        zj.real = cos
        ok &= _members(coupled, z)
    w *= ok
    return w, 0.0


def estimate_indicator(
    bindings,
    n: int,
    beta: WeightParam,
    region: AnnulusArc,
    budget: int,
    seed: int,
    label: str,
    threads: int | None = None,
) -> SublevelEstimate:
    """Shared engine: V_beta of {z : every binding holds}, with a leakage audit.

    ``bindings`` lists (table, target, tolerance, strict) tests
    |P(z) - target| < tolerance (strict) or <= tolerance.  When some
    coordinate z_j enters the first binding containing it with a single
    exponent, z_j is integrated in closed form or by quadrature (conditional
    Monte Carlo, ``_conditional_weights``): each point contributes the
    probability over z_j that every binding holds.  If no other binding
    contains z_j and the region has no simplex on it, its radius and angle
    are both integrated, take no uniform, and the region drops its depth,
    arcs and angle-sum window there.  Otherwise only theta_j is integrated
    and r_j is drawn, last among the simplex coordinates if it is one.
    Bindings with no such coordinate give plain 0/1 weights.  Each weight is
    multiplied by its point's likelihood, which is 1 outside a simplex and
    at most 1 inside, so weights stay in [0, 1].

    The points are R independently scrambled Sobol replicates of 2^k points
    each (``replicate_layout``), drawn by ``restricted_sample``; replicate r
    is batch r of ``run_batches`` and scrambles from that batch's stream.
    One worker call takes a bundle of consecutive replicates
    (``replicate_bundle``) and evaluates them together.  The estimate is mass
    x the mean of the replicate means, and the stderr is mass x their
    standard error (ddof 1), so a Student t quantile with R - 1 degrees of
    freedom gives its confidence interval.  Combined with it in quadrature
    is mass x the mean of the weights' quadrature error bounds, which bounds
    the estimate's quadrature error: an estimate with nothing random left
    (identity1) reports that bound and no spread.  ``hits`` counts the
    draws with positive weight.  A uniform i.i.d. audit pass
    (``sample_polydisc`` in ``run_batches``' default 2^16-point batches)
    measures the mass outside the region.  Zero support (no point with
    positive weight) or leakage above the threshold fraction of the estimate
    marks the result untrusted; zero support also reports a one-sided upper
    confidence bound.
    """
    bindings = _merge_bindings(bindings)
    split = _split_coordinate(bindings, n)
    fixed = integrated = ()
    if split is not None:
        # a simplex coordinate's radius is drawn: it depends on the others' deficits
        drawn = split.coupled or split.j in region.inner
        region = _free_angle(region, split.j, radius=not drawn)
        if drawn:
            fixed = (split.j,)
        else:
            integrated = (split.j,)
    mass = region_mass(region, beta)

    replicates, size = replicate_layout(budget)
    draws = replicates * size

    def main_worker(rngs, count):
        z, point_mass = restricted_sample(region, beta, rngs, count, fixed, sobol=True,
                                          integrated=integrated)
        if split is None:
            w, err = _members(bindings, z).astype(float), 0.0
        else:
            w, err = _conditional_weights(bindings, split, z, rngs, beta, bool(integrated))
        likelihood = point_mass / mass  # exactly 1.0 outside a simplex
        w, err = w * likelihood, err * likelihood
        return (w.reshape(len(rngs), size).mean(axis=1), int(np.count_nonzero(w)),
                float(np.sum(err)))

    batches = run_batches(draws, seed, label, main_worker, threads=threads, batch_size=size,
                          bundle=replicate_bundle(size))
    # bundles come back in batch order and each replicate mean depends on its
    # stream alone: the same floats at any thread count
    means = np.concatenate([m for m, _, _ in batches]).tolist()
    hits = sum(k for _, k, _ in batches)
    mean = math.fsum(means) / replicates
    restricted = mass * mean
    # every weight is off by at most its bound, so the mean by at most theirs
    quadrature = mass * math.fsum(e for _, _, e in batches) / draws
    stderr = math.inf  # a single replicate has no spread
    if replicates > 1:
        spread = math.fsum((m - mean) ** 2 for m in means) / (replicates - 1)
        stderr = math.hypot(mass * math.sqrt(spread / replicates), quadrature)

    leakage = 0.0
    leak_stderr = 0.0
    if region != AnnulusArc.full(n):
        audit_budget = max(1, int(round(draws * LEAKAGE_FRACTION)))

        def audit_worker(rng, count):
            z = sample_polydisc(n, beta, rng, count)
            outside = _members(bindings, z) & ~region_contains(region, z)
            return (int(np.count_nonzero(outside)),)

        (leak_hits,) = sum_counts(
            run_batches(audit_budget, seed, label + "/audit", audit_worker, threads=threads)
        )
        q = leak_hits / audit_budget
        leakage = q
        leak_stderr = math.sqrt(max(q * (1.0 - q), 0.0) / audit_budget)

    total = restricted + leakage
    total_stderr = math.hypot(stderr, leak_stderr)
    trusted = True
    reason = "ok"
    upper = None
    if hits == 0:
        trusted = False
        reason = "zero support"
        upper = ZERO_HIT_FACTOR / draws * mass + leakage
    elif leakage > LEAKAGE_THRESHOLD * restricted:
        trusted = False
        reason = (
            f"leakage audit {leakage:.3e} exceeds {LEAKAGE_THRESHOLD:.0%} "
            f"of estimate {restricted:.3e}"
        )
    return SublevelEstimate(
        volume=total, stderr=total_stderr, hits=hits, region_mass=mass,
        leakage=leakage, leakage_stderr=leak_stderr, upper_bound=upper,
        trusted=trusted, reason=reason,
    )


def estimate_sublevel(query: SublevelQuery) -> SublevelEstimate:
    """Unbiased V_beta estimate of the sublevel set, with trust bookkeeping.

    The restricted estimate covers the proposal region; a uniform audit pass
    (10% of the budget) measures sublevel mass outside the region.  The total
    is restricted + leakage; leakage above 1% of the restricted estimate, or
    zero support, flags the point untrusted (zero support additionally
    reports a one-sided upper confidence bound).
    """
    f, eta, delta, beta = query.f, complex(query.eta), query.delta, query.beta
    f.require_certificate()
    n = f.n_in
    region = build_proposal([(f, eta, delta)], n)
    if region == PROVABLY_EMPTY:
        return SublevelEstimate.empty("target beyond component range; set empty")
    return estimate_indicator(
        [(f.components[0], eta, delta, False)], n, beta, region, query.budget, query.seed,
        f"sublevel[{query.seed}]", threads=query.threads,
    )


def _check_geometric(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("delta grid needs at least 4 points")
    ratios = [b / a for a, b in zip(deltas[:-1], deltas[1:])]
    if max(ratios) - min(ratios) > 1e-9 * max(ratios):
        raise ValueError("delta grid must be geometric")
    return deltas


DEFAULT_DELTA_GRID = tuple(2.0**-k for k in range(4, 10))


def fit_exponent(
    f: PolySymbol,
    eta: complex,
    beta: WeightParam,
    delta_grid=DEFAULT_DELTA_GRID,
    budget: int = 1_000_000,
    seed: int = 0,
    threads: int | None = None,
) -> ExponentFit:
    """Weighted log-log fit of sublevel volume against delta over a geometric grid.

    Untrusted points and exact zeros (sets empty by structure) are excluded;
    the fit refuses to run on fewer than four trusted positive points.
    """
    deltas = _check_geometric(delta_grid)
    points = []
    for k, delta in enumerate(deltas):
        q = SublevelQuery(f=f, eta=eta, delta=delta, beta=beta, budget=budget,
                          seed=seed + 7919 * k, threads=threads)
        points.append(estimate_sublevel(q))
    fit = loglog_wls(*trusted_points(deltas, [p.volume for p in points], points))
    return ExponentFit(
        slope=fit.slope,
        intercept=fit.intercept,
        slope_stderr=fit.slope_stderr,
        max_abs_residual=fit.max_abs_residual,
        deltas=deltas,
        points=tuple(points),
    )

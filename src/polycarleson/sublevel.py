"""Monte Carlo estimation of weighted sublevel-set volumes and their scaling.

The volumes V_beta({z in D^n : |f(z) - eta| <= delta}) decay like a power of
delta, far below what uniform sampling can resolve, so estimation draws from
proposal regions that provably contain the sublevel set.  One rule covers f
whose non-constant part is a single term or a sum of single-variable terms in
distinct variables, at an extremal target: a single term c z^alpha gives
near-torus annuli whose radial depth scales with delta, with m arcs of
theta_j when z_j^m is its one live coordinate and an angle-sum window when
several are (its sublevel sets wrap around the torus); several terms give
the deficit simplex {sum_k |c_k| (1 - Re(e^{-i phi_k} z_k^{m_k})) <= delta},
which contains the set exactly.  Any other f gets per-coordinate arcs of
width ~ sqrt(delta) around the finite solution set of f = eta on T^n, a
(k, n) array of angles refined from the contact set's points.  The joint set
of several bindings lies in each one's arcs, so a coordinate's arcs are the
intersection of its bindings' arc sets: empty among the proved single-term
sets, the region is provably empty; empty only with a heuristic fiber-arc
set among them, it falls back to the sets' union.

Inside the region coordinates are integrated out (conditional Monte Carlo)
along one matching of coordinates to bindings (``_split_coordinate``), which
gives each coordinate one of four roles.  A binding that contains z_j as
a + b z_j^m, a single exponent m with a and b free of z_j, holds at fixed
other coordinates and r_j on m arcs of theta_j, {m theta_j - arg(u/b) in
±h} with u = eta - a and half-width h = arccos((rho^2 + |u|^2 -
delta^2)/(2 rho |u|)), rho = |b| r_j^m.  Every coordinate that one binding
holds alone so, outside the deficit simplex, is integrated whole when its
binding holds no other matched coordinate: each draw's weight takes the
factor W = ∫ h/pi dmu_beta(r) over the whole radial law, a lens area for
m = 1 at beta = 0 and otherwise a 21-point Gauss-Kronrod rule
(``measure._radial_cap_weight``), and the coordinate takes no uniform.
Given the drawn coordinates these bindings hold independently, so their W
multiply.  The split, the lowest coordinate that every binding containing it
contains so, keeps a drawn radius instead when several bindings contain it
or the simplex holds it: its factor is the length of the intersection of
the arc sets over 2 pi (h/pi for one set), and a simplex coordinate's r_j,
drawn last, takes one uniform through a cosine map on the interval where the
arc is non-empty, the draw's likelihood (``measure.region_points``)
multiplying its weight.  Every other coordinate is drawn.  A drawn z_k
outside the simplex is capped when a binding that no matched coordinate
holds reads c0 + c z_k^m: z_k is then drawn from that binding's exact cap
{|c z_k^m - u| <= delta} (``measure.TermCap``), r_k by the same cosine map
and theta_k uniform on the cap's m arcs, the likelihood taking the Jacobian
times h/pi, and the binding holds at every draw, with no margin.  The same
pass writes every role into the region it draws from, which drops the
proposal's constraints on what is integrated or capped (the matched and
capped coordinates' arcs, the angle-sum window, and the depths of the
integrated and capped radii).  A box whose bindings each pin their own
coordinate, as identity2's and coord_square's do, leaves nothing to draw:
its estimate is one quadrature, computed once.
Binding sets with no split coordinate fall back to plain hit counting.

The conditioned integrand is a bounded, almost everywhere continuous function
of the remaining uniforms (two per drawn coordinate, one for a drawn split
radius), so the points are randomised quasi-Monte Carlo: R >= 64
independently scrambled Sobol replicates, mapped into the region by
``measure.restricted_sample``.
The stderr is the replicates' standard error combined with the stated bound
on the weights' quadrature error.  A uniform i.i.d. "leakage audit" pass
estimates the mass the region might have missed; estimates failing the
audit are flagged untrusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .contact import MERGE_RADIUS, _dedupe, _torus_newton, find_contact_set
from .fitting import loglog_wls, trusted_points
from .measure import (
    AngleSumWindow,
    AnnulusArc,
    Arc,
    DeficitSimplex,
    TermCap,
    WeightParam,
    _cap_angular_halfwidth,
    _power,
    _radial_cap_weight,
    intersect_arcs,
    merge_arcs,
    region_contains,
    region_mass,
    restricted_sample,
    sample_dim,
    sample_polydisc,
)
from .montecarlo import replicate_bundle, replicate_layout, run_batches, sum_counts
from .symbols import MonomialTable, PolySymbol, _eval_table, _torus_grid_bound, cert_grid_res

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
        if not abs(abs(complex(self.eta)) - 1.0) <= 1e-9:  # NaN fails too
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

    ``replicates`` holds the R replicate means times the region mass, whose
    mean is the estimate less its leakage: a fit over a grid whose points
    share one stream pairs them by r (``fitting.loglog_wls``).  A quadrature,
    an empty set and a single replicate keep none.  No CSV or JSON writes
    them, and ``==`` does not compare them.
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
    replicates: tuple[float, ...] = field(default=(), compare=False, repr=False)

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


@lru_cache(maxsize=64)
def find_value_fiber(f: PolySymbol, eta: complex) -> np.ndarray:
    """Angles of the solutions of f = eta on T^n when they are finitely many.

    A read-only (k, n) array, reduced mod 2 pi twice as contact sets are;
    k = 0 both for an empty fiber and for a manifold (more than FIBER_CAP
    separated points).  Newton seeds are the contact set |f| = 1 points
    within 0.7 of eta, and a refined point is kept when its residual is
    within that contact set's ``contact_tol``.
    """
    eta = complex(eta)
    cs = find_contact_set(f, [0])
    table = f.components[0]
    seeds = cs.points[np.abs(_eval_table(table, np.exp(1j * cs.points), {}) - eta) <= 0.7]
    pts = seeds[:0]
    if len(seeds):
        theta = _torus_newton([table], [eta], seeds, ascend=False)
        resid = np.abs(_eval_table(table, np.exp(1j * theta), {}) - eta)
        theta %= TWO_PI
        ok = resid <= cs.contact_tol
        if np.any(ok):
            pts, _ = _dedupe(theta[ok], resid[ok], MERGE_RADIUS)
    if len(pts) > FIBER_CAP:
        pts = pts[:0]
    pts = pts % TWO_PI
    pts.flags.writeable = False
    return pts


# ---------------------------------------------------------------------------
# proposal construction
# ---------------------------------------------------------------------------


PROVABLY_EMPTY = "provably-empty"


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
    One rule covers every binding whose non-constant part is a single term
    c z^alpha or a sum of single-variable terms c_k z_k^{m_k} in distinct
    variables: a target u = eta - const beyond the reach sum |c_k| + delta
    makes the region PROVABLY_EMPTY, and a target short of sum |c_k| (not
    extremal: the level set leaves the torus corner) adds no constraint.
    Otherwise, with d = delta/|c|:

    * a single term pins each live radius, 1 - r_j <= d/alpha_j, and its angle
      arg(c) + sum alpha_j theta_j to within d of arg(u): m arcs of theta_j
      when z_j^m is its one live coordinate, else an angle-sum window;
    * several terms give the deficit simplex
      {sum_k |c_k| (1 - Re(e^{-i phi_k} z_k^{m_k})) <= delta}, which contains
      the set exactly, with no margin (``measure.DeficitSimplex``).

    Anything else gets arcs of width ~ sqrt(delta) around the finite value
    fiber f = eta and radial depth from the interior-slice Schwarz floor.

    The single-term bounds carry the margin K/2, the fiber arcs K; the
    leakage audit guards the construction at runtime.  Depths take the
    minimum over bindings, and arcs the intersection: each binding's arcs on
    theta_j, the union of its branches, make one set, and the sets meet
    (``measure.intersect_arcs``), so a coordinate that one binding alone
    constrains gets that binding's ``merge_arcs`` set as it is.  An empty
    meet of the proved single-term sets makes the region PROVABLY_EMPTY.  The
    fiber arcs carry no proof, so an empty meet that needs one of them falls
    back to the union of the sets.  The region holds one simplex, from the
    first such binding; other bindings keep their depth bounds on its
    coordinates, while their arcs and windows there are dropped (the region
    only grows).  A later multi-term binding adds no constraint.  Bindings
    are taken as given: an exact repeat builds the same region as one copy,
    while repeats of one (symbol, target) at different tolerances give a
    looser region that still contains the set, so callers merge them first
    with ``_merge_bindings``.
    """
    K = PROPOSAL_MARGIN
    k_half = K / 2.0
    if any(f.n_in != n or f.n_out != 1 for f, _, _ in bindings):
        raise ValueError("binding symbol dimension mismatch")

    depth_candidates: list[list[float]] = [[] for _ in range(n)]
    # per coordinate, one (arcs, proved) set per binding: the union of its branches
    arc_sets: list[list[tuple[list[Arc], bool]]] = [[] for _ in range(n)]
    windows: list[tuple[tuple[int, ...], float, float]] = []
    simplex = None

    for f, eta, delta in bindings:
        eta, delta = complex(eta), float(delta)
        table = f.components[0]
        c0 = sum((c for alpha, c in table if not any(alpha)), 0j)
        terms = [(alpha, c) for alpha, c in table if any(alpha)]
        coords = [tuple(j for j in range(n) if alpha[j]) for alpha, _ in terms]
        if len(terms) == 1 or (terms and all(len(js) == 1 for js in coords)
                               and len(set(coords)) == len(coords)):
            u = eta - c0
            umod = abs(u)
            arg_u = math.atan2(u.imag, u.real)
            csum = sum(abs(c) for _, c in terms)
            if umod - csum > delta + 1e-12:
                return PROVABLY_EMPTY
            if csum - umod > 1e-9:
                continue  # not an extremal target: the level set leaves the torus corner
            if len(terms) > 1:
                if delta + csum - umod <= 0.0:
                    return PROVABLY_EMPTY  # its simplex is a finite set of torus points
                if simplex is None:
                    parts = sorted((js[0], alpha[js[0]], c)  # drawn in coordinate order
                                   for js, (alpha, c) in zip(coords, terms))
                    simplex = DeficitSimplex(
                        coords=tuple(j for j, _, _ in parts),
                        powers=tuple(m for _, m, _ in parts),
                        moduli=tuple(abs(c) for _, _, c in parts),
                        phases=tuple(arg_u - math.atan2(c.imag, c.real) for _, _, c in parts),
                        target=umod, tolerance=delta)
                continue
            ((alpha, c),), (js,) = terms, coords
            if csum < 1e-12:
                continue
            d = delta / csum
            base = arg_u - math.atan2(c.imag, c.real)
            for j in js:
                depth_candidates[j].append(k_half * d / alpha[j])
            if len(js) == 1:
                m = alpha[js[0]]
                half = k_half * d / m
                if half < math.pi:
                    arc_sets[js[0]].append(([((base + TWO_PI * k) / m - half, 2.0 * half)
                                             for k in range(m)], True))
            elif k_half * d < math.pi:
                windows.append((alpha, base, k_half * d))
        else:
            live = [j for j in range(n) if f.depends_on(j)]
            for j in live:
                slice_max = _interior_slice_max(f, j)
                if slice_max < 1.0 - 1e-3:
                    depth_candidates[j].append(4.0 * delta / (1.0 - slice_max))
            fiber = find_value_fiber(f, eta)
            half = K * math.sqrt(delta)
            if len(fiber) and half < math.pi:
                for j in live:
                    arc_sets[j].append(([(a - half, 2.0 * half) for a in fiber[:, j].tolist()],
                                        False))

    inner = simplex.coords if simplex is not None else ()
    depths = tuple(min(1.0, min(ds)) if ds else 1.0 for ds in depth_candidates)
    arcs = []
    for j, sets in enumerate(arc_sets):
        merged = [] if j in inner else [(merge_arcs(specs), proved) for specs, proved in sets]
        joint = intersect_arcs([a for a, _ in merged])
        if joint == ():
            if intersect_arcs([a for a, proved in merged if proved]) == ():
                return PROVABLY_EMPTY
            # fiber arcs carry no proof: an empty meet that needs them claims nothing
            joint = merge_arcs([spec for specs, _ in sets for spec in specs])
        arcs.append(joint)
    arcs = tuple(arcs)

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


Binding = tuple[PolySymbol, complex, float]  # the test |f(z) - target| <= tolerance


def _merge_bindings(bindings) -> list[Binding]:
    """Bindings in first-seen order; a repeated (symbol, target) keeps the smaller tolerance."""
    merged: dict[tuple, Binding] = {}
    for f, target, tol in bindings:
        key = (f, complex(target))
        if key not in merged or tol < merged[key][2]:
            merged[key] = (f, complex(target), float(tol))
    return list(merged.values())


def _members(bindings: list[Binding], z: np.ndarray) -> np.ndarray:
    cache: dict = {}
    ok = np.ones(z.shape[0], dtype=bool)
    for f, target, tol in bindings:
        ok &= np.abs(_eval_table(f.components[0], z, cache) - target) <= tol
    return ok


@dataclass(frozen=True)
class _Matching:
    """The weights' half of ``_split_coordinate``'s matching; the drawn region holds the rest.

    ``angle`` is (j, parts) for a split z_j that keeps a drawn radius, with
    (binding index, m, a, b) in ``parts`` for each binding that contains it
    as a + b z_j^m, a and b free of z_j, in binding order; else None.
    ``picks`` lists (k, binding index, m, a, b) for each coordinate z_k
    integrated whole, written so in the one binding that holds it.
    ``others`` lists, in binding order, the bindings that hold no matched
    coordinate and no cap: the weights test them as 0/1 indicators.
    """

    angle: tuple[int, tuple[tuple[int, int, MonomialTable, MonomialTable], ...]] | None
    picks: tuple[tuple[int, int, int, MonomialTable, MonomialTable], ...]
    others: tuple[Binding, ...]


def _holders(bindings: list[Binding], j: int):
    """(binding index, m, a, b) per binding that contains z_j as a + b z_j^m; None for several m."""
    parts = []
    for index, (f, *_) in enumerate(bindings):
        table = f.components[0]
        powers = {alpha[j] for alpha, _ in table if alpha[j]}
        if len(powers) > 1:
            return None
        if powers:
            a = tuple((alpha, c) for alpha, c in table if not alpha[j])
            b = tuple((alpha[:j] + (0,) + alpha[j + 1:], c) for alpha, c in table if alpha[j])
            parts.append((index, powers.pop(), a, b))
    return tuple(parts)


def _split_coordinate(bindings: list[Binding],
                      region: AnnulusArc) -> tuple[_Matching, AnnulusArc]:
    """The one place that gives each coordinate its role: the matching and the drawn region.

    The split is the lowest z_j that every binding containing it contains
    with a single exponent.  It keeps a drawn radius (``angle``) when several
    bindings contain it or it is among the proposal's simplex coordinates.
    Then, from z_j on in coordinate order, z_k is picked when exactly one
    binding contains it, with a single exponent, outside the simplex, and
    that binding holds no coordinate picked before nor the angle's: an
    uncoupled split outside the simplex is the first pick.  With no split,
    nothing is integrated.

    Every other coordinate is drawn, and a drawn z_k outside the simplex is
    capped when a binding held by no matched coordinate has c z_k^m as its
    one non-constant term: the first such binding's exact set
    {|c z_k^m - u| <= delta} (``measure.TermCap``) then replaces z_k's
    region, so that binding holds at every draw.

    The drawn region is the proposal with these roles written in: the
    angle's coordinate is its ``fixed`` one and the picks its
    ``integrated`` ones, and both lose their arcs; the integrated and capped
    coordinates lose their depths and arcs too, and the angle-sum window
    goes.  The simplex stays as it is: the sampler draws a fixed simplex
    coordinate last (``measure._simplex_points``).  With nothing matched or
    capped the proposal itself comes back, window and all.
    """
    n, inner = region.n, region.inner
    holders = [_holders(bindings, j) for j in range(n)]
    j = next((j for j, parts in enumerate(holders) if parts), n)
    angle, taken, picks = None, set(), []
    if j < n and (len(holders[j]) > 1 or j in inner):
        angle = (j, holders[j])
        taken = {index for index, *_ in holders[j]}
    for k in range(j, n):
        held = holders[k]
        if held and len(held) == 1 and held[0][0] not in taken and k not in inner:
            taken.add(held[0][0])
            picks.append((k, *held[0]))
    matched = {k for k, *_ in picks} | ({angle[0]} if angle else set())
    caps = []
    for index, (f, target, tol) in enumerate(bindings):
        table = f.components[0]
        terms = [(alpha, c) for alpha, c in table if any(alpha)]
        live = [k for k in range(n) if len(terms) == 1 and terms[0][0][k]]
        if len(live) != 1 or index in taken or live[0] in matched | set(inner):
            continue
        (alpha, c), k = terms[0], live[0]
        u = complex(target) - sum((coef for a, coef in table if not any(a)), 0j)
        caps.append(TermCap(k, alpha[k], complex(c), u, float(tol)))
        taken.add(index)
        matched.add(k)  # one cap per coordinate
    match = _Matching(angle, tuple(picks),
                      tuple(binding for i, binding in enumerate(bindings) if i not in taken))
    if not matched:
        return match, region
    fixed = None if angle is None else angle[0]
    integrated = tuple(k for k, *_ in picks)
    whole = integrated + tuple(cap.coord for cap in caps)
    arcs = tuple(None if k == fixed or k in whole else a for k, a in enumerate(region.arcs))
    depths = tuple(1.0 if k in whole else s for k, s in enumerate(region.depths))
    return match, AnnulusArc(depths=depths, arcs=arcs, simplex=region.simplex, caps=tuple(caps),
                             fixed=fixed, integrated=integrated)


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| without np.abs's overflow-safe hypot, which costs several times more."""
    return np.sqrt(x.real * x.real + x.imag * x.imag)


def _arc_set_intersection(arcs) -> np.ndarray:
    """Length of the intersection of arc sets {theta : m theta - phase in ±h (mod 2 pi)}, per row.

    ``arcs`` lists (m, phase, h) for each set, with phase and h arrays over
    rows and h in [0, pi]: each set is m disjoint arcs of length 2h/m.  The
    first set's arcs, unrolled onto one period from its first arc's left
    end, are cut by each later set lifted to the real line, of which m + 1
    consecutive arcs cover any piece (a piece is at most 2 pi long).  The
    arcs of each set are disjoint, so the pieces are too and their lengths
    add.  Pieces are kept as columns, (lo, hi) pairs of row arrays.
    """
    (m, phase, h), *rest = arcs
    start = phase - h
    start /= m
    width = h * (2.0 / m)
    pieces = []
    for k in range(m):
        lo = start + TWO_PI * k / m if k else start
        pieces.append((lo, lo + width))
    for m, phase, h in rest:
        start = phase - h
        width = h * (2.0 / m)
        cut = []
        for lo, hi in pieces:
            # the first arc of the lift whose right end is past lo
            k = lo * m
            k -= phase
            k -= h
            k /= TWO_PI
            np.ceil(k, out=k)
            for _ in range(m + 1):
                left = k * TWO_PI
                left += start
                left /= m
                right = left + width
                cut.append((np.maximum(left, lo, out=left), np.minimum(right, hi, out=right)))
                k += 1.0
        pieces = cut
    total = None
    for lo, hi in pieces:
        hi -= lo
        np.maximum(hi, 0.0, out=hi)
        total = hi if total is None else np.add(total, hi, out=total)
    return total


def _conditional_weights(bindings: list[Binding], match: _Matching, z: np.ndarray,
                         beta: WeightParam) -> tuple[np.ndarray, np.ndarray | float]:
    """P(every binding holds | z with the matched coordinates integrated out), per row, and bounds.

    Given the drawn coordinates, the bindings that hold the angle and each
    pick hold independently, since no two of them share a matched
    coordinate, and the matching's ``others`` are 0/1 indicators of the
    drawn coordinates: the weight is their product, 1 with nothing matched.
    A pick z_k's binding holds with probability W_k = ∫ h(|b| r^m, |u|,
    delta)/pi dmu_beta(r) over z_k's whole radial law, which
    ``_radial_cap_weight`` gives with its bound from the moduli of u and b,
    and the product's bound is prod(W + e) - prod(W) over its factors'
    bounds e, the rule of ``carleson_box_measure``.  ``restricted_sample``
    leaves column k NaN.  A capped coordinate's binding holds at every draw
    of the region, whose likelihood carries the cap's mass, so it is neither
    a factor nor among the ``others``.

    The angle's column j holds the real radius r_j, as ``restricted_sample``
    leaves the region's fixed coordinate: drawn by the region, by the cosine
    map on the interval where the simplex binding's arc is non-empty when
    z_j is a simplex coordinate, its Jacobian then in the point's likelihood.  Only
    theta_j is integrated, exactly up to rounding.  Each binding a + b z_j^m
    that contains z_j holds on the arc set {m theta_j - arg(u/b) in ±h}, of
    m arcs, so the angle's factor is the length of the intersection of those
    sets over 2 pi (``_arc_set_intersection``): h/pi for one binding.

    The first factor is taken as it is, not multiplied into w = 1, err = 0:
    the five array operations that would copy it cost ~0.14 ms per 2^16-row
    bundle, ~2 % of a product2 estimate.
    """
    cache: dict = {}
    parts = () if match.angle is None else match.angle[1]
    factors = []  # (weight, bound) of each binding that holds a matched coordinate
    if parts:
        arcs = []
        for index, m, a_table, b_table in parts:
            _, target, tol = bindings[index]
            u = target - _eval_table(a_table, z, cache)
            b = _eval_table(b_table, z, cache)
            rho = _power(z[:, match.angle[0]].real, m)
            rho *= _modulus(b)
            arcs.append((m, u, b, _cap_angular_halfwidth(rho, _modulus(u), tol)))
        if len(arcs) > 1:
            # rows with an empty arc set weigh 0; on the rest each set's arcs are
            # centred on the m-th roots of u/b
            rows = np.flatnonzero(np.logical_and.reduce([h > 0.0 for *_, h in arcs]))
            w = np.zeros(len(z))
            w[rows] = _arc_set_intersection([(m, np.angle(u[rows] * b[rows].conj()), h[rows])
                                             for m, u, b, h in arcs])
            w /= TWO_PI
        else:
            w = arcs[0][3] / math.pi
        factors.append((w, 0.0))
    for _, index, m, a_table, b_table in match.picks:
        _, target, tol = bindings[index]
        umod = np.abs(target - _eval_table(a_table, z, cache))
        factors.append(_radial_cap_weight(np.abs(_eval_table(b_table, z, cache)), umod, tol, m,
                                          beta))
    w, err = factors[0] if factors else (np.ones(len(z)), 0.0)
    for cap, bound in factors[1:]:
        err = err * (cap + bound) + w * bound
        w = w * cap
    if match.others:
        ok = _members(match.others, z)
        w = w * ok
        if np.ndim(err):
            err = err * ok
    return w, err


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

    ``bindings`` lists (scalar symbol, target, tolerance) tests
    |f(z) - target| <= tolerance, the triples ``build_proposal`` takes.
    Callers merge repeats first (``_merge_bindings``); a closed test and its
    open twin differ by a V_beta-null boundary.  ``_split_coordinate``'s
    matching gives each coordinate its role, and each point contributes the
    probability over the matched coordinates that every binding holds
    (conditional Monte Carlo, ``_conditional_weights``).  The picks, each
    held by one binding alone, are integrated whole, radius and angle, and
    take no uniform.  The angle's coordinate, a split that several bindings
    contain or that the simplex holds, keeps a drawn radius, and only its
    angle is integrated.  A drawn coordinate that a binding of one term
    c z_k^m holds comes from that binding's cap, which then holds at every
    draw.  ``_split_coordinate`` writes these roles into the region it
    returns, the sampler's one input, which drops the proposal's arcs and
    angle-sum window on the matched and capped coordinates and its depths on
    the integrated and capped ones.  With nothing matched the region is the
    proposal and the weights are plain 0/1 indicators.  Each weight
    is multiplied by its point's likelihood, which is 1 outside a simplex
    and a cap and at most 1 inside, so weights stay in [0, 1].

    The points are R independently scrambled Sobol replicates of 2^k points
    each (``replicate_layout``), drawn by ``restricted_sample``; replicate r
    is batch r of ``run_batches`` and scrambles from that batch's stream.
    One worker call takes a bundle of consecutive replicates
    (``replicate_bundle``) and evaluates them together.  The estimate is mass
    x the mean of the replicate means, and the stderr is mass x their
    standard error (ddof 1), so a Student t quantile with R - 1 degrees of
    freedom gives its confidence interval; the estimate keeps the R scaled
    means as ``replicates``.  Combined with it in quadrature is mass x the
    mean of the weights' quadrature error bounds, which bounds the
    estimate's quadrature error.  A single replicate reports stderr
    infinity.  ``hits`` counts the draws with positive weight.  An estimate
    with nothing to draw (identity1, or an identity2 or coord_square box)
    is one quadrature over the whole polydisc, computed once with no
    generator, thread or audit: its stderr is the weight's stated bound,
    both are the same at every budget and seed, and ``hits`` counts the
    R * 2^k draws it stands for (0 for a zero weight).  A uniform i.i.d. audit
    pass (``sample_polydisc`` in ``run_batches``' default 2^16-point
    batches) measures the mass outside the region, testing the region only
    on its points where every binding holds.  Zero support (no point with
    positive weight) or leakage above the threshold fraction of the estimate
    marks the result untrusted; zero support also reports a one-sided upper
    confidence bound.
    """
    match, region = _split_coordinate(bindings, region)
    mass = region_mass(region, beta)

    replicates, size = replicate_layout(budget)
    draws = replicates * size

    scaled = ()
    if sample_dim(region) == 0:
        # every coordinate integrated: constant tables over the whole polydisc
        w, err = _conditional_weights(bindings, match, np.zeros((1, n), dtype=complex), beta)
        restricted, stderr = float(w[0]), float(err[0])
        hits = draws if restricted > 0.0 else 0
    else:
        def main_worker(rngs, count):
            z, likelihood = restricted_sample(region, beta, rngs, count)
            w, err = _conditional_weights(bindings, match, z, beta)
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
        if replicates > 1:
            spread = math.fsum((m - mean) ** 2 for m in means) / (replicates - 1)
            stderr = math.hypot(mass * math.sqrt(spread / replicates), quadrature)
            scaled = tuple(mass * m for m in means)
        else:  # one replicate shows no spread
            stderr = math.inf

    leakage = 0.0
    leak_stderr = 0.0
    if replace(region, fixed=None, integrated=()) != AnnulusArc.full(n):  # roles bound no point
        audit_budget = max(1, int(round(draws * LEAKAGE_FRACTION)))

        def audit_worker(rng, count):
            z = sample_polydisc(n, beta, rng, count)
            z = z[_members(bindings, z)]
            return (len(z) - int(np.count_nonzero(region_contains(region, z))),)

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
        trusted=trusted, reason=reason, replicates=scaled,
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
    bindings = [(f, eta, delta)]
    region = build_proposal(bindings, n)
    if region == PROVABLY_EMPTY:
        return SublevelEstimate.empty("target beyond component range; set empty")
    return estimate_indicator(
        bindings, n, beta, region, query.budget, query.seed,
        f"sublevel[{query.seed}]", threads=query.threads,
    )


def _check_geometric(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("delta grid needs at least 4 points")
    if not all(0.0 < d < math.inf for d in deltas):
        raise ValueError("delta grid must hold finite positive radii")
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

    Every grid point is ``estimate_sublevel`` at the same ``seed``, so
    replicate r at every delta scrambles the same stream (common random
    numbers).  The proposals are self-similar in delta, so a replicate's
    means move together along the grid and the slope, taken from the
    replicates' spread (``fitting.loglog_wls``), cancels most of their
    error.  Untrusted points and exact zeros (sets empty by structure) are
    excluded; the fit refuses to run on fewer than four trusted positive
    points.
    """
    deltas = _check_geometric(delta_grid)
    points = [estimate_sublevel(SublevelQuery(f=f, eta=eta, delta=delta, beta=beta,
                                              budget=budget, seed=seed, threads=threads))
              for delta in deltas]
    fit = loglog_wls(*trusted_points(deltas, [p.volume for p in points], points))
    return ExponentFit(
        slope=fit.slope,
        intercept=fit.intercept,
        slope_stderr=fit.slope_stderr,
        max_abs_residual=fit.max_abs_residual,
        deltas=deltas,
        points=tuple(points),
    )

"""Weighted measures on the polydisc: one cap integral and seeded sampling.

The weighted area measure on the disc is dA_beta = (beta+1)(1-|z|^2)^beta dA
with dA normalized so the disc has measure 1; the polydisc carries the product
V_beta.  The angular width of a cap slice {theta : |rho e^{i theta} - u| <=
delta} is available in closed form, and ``_radial_cap_weight`` integrates it
over the radial law: the V_beta probability that |b z^m - u| <= delta, with a
stated error bound per value.  That one integral gives both halves of a
Carleson-box ratio.  Boxes are products of disc caps |z_j - xi_j| < delta_j,
and a cap's measure is the weight at |b| = 1, m = 1 (``disc_cap_measure``);
vectorised over the centre, the same weight gives the sublevel estimator the
probability over z_j = r_j e^{i theta_j} that |a + b z_j^m - eta| <= delta,
so that one coordinate is integrated instead of sampled.  Where r_j is drawn,
the closed-form angular measure alone integrates theta_j.

Sampling regions are annulus-arc products (``AnnulusArc``; depth 1 and no
arc in every coordinate is the whole polydisc, ``AnnulusArc.full``) with an
optional angle-sum window (the shape carved out by near-torus sublevel sets),
an optional deficit simplex and optional single-term caps.  The simplex is
the exact shape of a separable binding |c0 + sum_k c_k z_k^{m_k} - eta| <=
delta whose target is extremal: with x_k = 1 - Re(e^{-i phi_k} z_k^{m_k}) >= 0
it is {sum_k |c_k| x_k <= budget}, and it contains the binding's sublevel set
with no margin (``DeficitSimplex``).

Every sampler goes through one inverse-CDF map, ``region_points``, from
uniforms to region points: one uniform per radius (``radial_sample`` on the
region's depth) and one per angle (through the arc set's CDF, or the
window's branch and offset).  Simplex coordinates are drawn one after the
other from what the earlier ones leave of the budget, each from V_beta on
its own slice of the simplex; each draw carries its exact likelihood factor
(annulus mass times arc fraction), so the points are importance-weighted
rather than uniform there.  The region names the coordinates whose angle
(``fixed``) or whose radius and angle (``integrated``) the caller
integrates, and the sampler reads no uniform for them; it reads nothing but
the region.  A fixed simplex coordinate is drawn last, its radius by a
cosine map on the interval where the binding's angular arc is non-empty.  A
capped coordinate (``TermCap``) is drawn exactly from a binding's set
{|c z^m - u| <= delta}: its radius by the same cosine map, its angle
uniform on the set's m arcs, and the draw carries that likelihood factor.
``restricted_sample`` feeds the map i.i.d. uniforms from one generator or,
for the sublevel estimator, scrambled Sobol replicates, one per generator of
a sequence; ``sample_polydisc``, the leakage audit's sampler, feeds it
i.i.d. uniforms for the full polydisc.  With each point's likelihood, the
region's exact product mass (``region_mass``) times the mean of likelihood
times integrand is unbiased.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .montecarlo import sobol_points
from .symbols import TorusPoint

TWO_PI = 2.0 * math.pi


class EmptyRegion(ValueError):
    pass


@dataclass(frozen=True)
class WeightParam:
    """Bergman weight exponent beta. Only beta > -1 gives a finite measure;
    betas below -0.95 are rejected: the radial density peaks ever more
    sharply at r = 1 there, and the cap integrals' error bounds
    (``_radial_cap_weight``) are checked against an independent quadrature
    from -0.95 up."""

    beta: float

    def __post_init__(self):
        b = float(self.beta)
        if not b > -1.0:
            raise ValueError(f"weight parameter must exceed -1, got {b}")
        if b < -0.95:
            raise ValueError(
                f"beta={b} rejected: cap integral bounds are checked from -0.95 up"
            )
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class CarlesonBox:
    """Box S(xi, delta) = {z in D^n : |z_j - xi_j| < delta_j}.

    Radii live in (0, 2]; radius 2 covers the whole disc in that coordinate
    (inputs above 2 are clamped).  The estimators test the closed box
    |z_j - xi_j| <= delta_j, whose boundary has V_beta-measure 0, so it has
    the open box's measure.
    """

    center: TorusPoint
    radii: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(min(float(d), 2.0) for d in self.radii)
        if len(radii) != self.center.n:
            raise ValueError("box radii and center dimension differ")
        if not all(d > 0.0 for d in radii):  # NaN fails too
            raise ValueError("box radii must be positive")
        object.__setattr__(self, "radii", radii)

    @property
    def n(self) -> int:
        return self.center.n


# Largest double below 1.  Near the boundary the inverse-CDF radius is
# sqrt(1 - t) with t below half an ulp of 1 (for 2.4% of draws at beta = -0.9),
# which rounds onto the torus r = 1; the samplers clamp to keep r in [0, 1).
_R_MAX = float(np.nextafter(1.0, 0.0))


def radial_sample(beta: WeightParam, u, depth: float = 1.0):
    """Inverse-CDF radius on [1 - depth, 1), clamped to _R_MAX.

    Maps uniform u in [0,1) to the radial law with density
    (beta+1)(1-r^2)^beta * 2r restricted to [1 - depth, 1):
    r = sqrt(1 - ((1-u) t)^{1/(beta+1)}) with tail mass
    t = (depth (2 - depth))^{beta+1}.  Depth 1 is the whole law (t = 1).
    """
    p1 = beta.beta + 1.0
    u = np.asarray(u, dtype=float)
    tail = (depth * (2.0 - depth)) ** p1  # 1 - F(1 - depth)
    return np.minimum(np.sqrt(1.0 - ((1.0 - u) * tail) ** (1.0 / p1)), _R_MAX)


def annulus_mass(beta: WeightParam, s: float) -> float:
    """V_beta radial mass of {1 - s <= |z| < 1}: (s(2-s))^{beta+1}."""
    s = min(max(float(s), 0.0), 1.0)
    if s == 0.0:
        return 0.0
    return (s * (2.0 - s)) ** (beta.beta + 1.0)


def _cap_angular_halfwidth(r, amod, delta: float) -> np.ndarray:
    """Half-width in angle of {theta : |r e^{i theta} - a| < delta} for |a| = amod.

    ``r`` and ``amod`` broadcast against each other.
    """
    r = np.asarray(r, dtype=float)
    amod = np.asarray(amod, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosval = (r * r + amod * amod - delta * delta) / (2.0 * r * amod)
    # a circle of radius 0, or one centred on a = 0, lies wholly inside or outside
    special = (r == 0.0) | (amod == 0.0)
    if np.any(special):
        inside = np.where(r == 0.0, amod < delta, r < delta)
        cosval = np.where(special, np.where(inside, -2.0, 2.0), cosval)
    return np.arccos(np.clip(cosval, -1.0, 1.0))


# Gauss-Kronrod pair on [-1, 1] (QUADPACK's qk21): 21 Kronrod nodes, of which
# the odd-indexed ten are the Gauss-Legendre nodes, so one set of integrand
# values gives both rules.  Listed from the right end to the centre.
_KRONROD_NODES = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                  0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                  0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                  0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                  0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_KRONROD_WEIGHTS = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                    0.149445554002916905664936468389821)
_GAUSS_WEIGHTS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                  0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                  0.295524224714752870173892994651338)


def _cosine_gauss_kronrod():
    """Nodes s in (0, 1), 1 - s, and Kronrod and Gauss weights after the map s = sin^2(pi (x+1)/4).

    The map clusters nodes at both ends: a square-root endpoint of the
    integrand becomes analytic in x.
    """
    x = np.array(_KRONROD_NODES[:-1])
    x = np.concatenate([-x, [0.0], x[::-1]])
    kronrod = np.array(_KRONROD_WEIGHTS)
    kronrod = np.concatenate([kronrod, kronrod[-2::-1]])
    gauss = np.zeros(21)
    gauss[1:10:2] = _GAUSS_WEIGHTS
    gauss[11::2] = _GAUSS_WEIGHTS[::-1]
    t = math.pi * (x + 1.0) / 4.0
    jacobian = math.pi / 4.0 * np.sin(2.0 * t)  # ds/dx
    return np.sin(t) ** 2, np.cos(t) ** 2, kronrod * jacobian, gauss * jacobian


_NODE_S, _NODE_1MS, _KRONROD_W, _GAUSS_W = _cosine_gauss_kronrod()
_LOWER_NODES = 11  # nodes with s <= 1/2 step from the lower end, the rest from the upper

# Error bound of a radial weight (``_radial_cap_weight``): the Kronrod rule's
# distance from its Gauss rule, times _RULE_SAFETY on rows whose integrand can
# be nearly singular at an end of its interval, plus _WEIGHT_ROUNDING times the
# weight and _WEIGHT_FLOOR.  Those rows have |u| within delta/2 of delta
# (D(|u|, delta) almost through the origin) or the circle r = 1 within delta
# of tangency to D(|u|, delta).  Against scipy quad the distance alone fell
# short there by up to 64x, with errors below 2e-6 of the weight or 1e-17 in
# all; on every other row it exceeded the error at least 60-fold.
_RULE_SAFETY = 100.0
_WEIGHT_ROUNDING = 1e-12
_WEIGHT_FLOOR = 1e-17

# Rounding |u| - delta can hide the sliver of r where |b| r^m passes the inner
# edge of D(|u|, delta): within _TANGENCY_ULPS ulps of |u| + delta of tangency
# the radial interval may round to empty or to width 0 (``_tangency_sliver``).
_TANGENCY_ULPS = 4.0
_EPS = float(np.finfo(float).eps)


def _segment(alpha: np.ndarray) -> np.ndarray:
    """alpha - sin(alpha) cos(alpha): a disc segment's area over r^2, without cancellation."""
    x = 2.0 * alpha
    small = x < 0.25
    if not small.any():  # the rule below, with no gather or scatter
        out = np.sin(x)
        np.subtract(x, out, out=out)
        out /= 2.0
        return out
    out = np.empty_like(x)
    big = np.flatnonzero(~small)
    out[big] = (x[big] - np.sin(x[big])) / 2.0  # loses at most 7 bits above 0.25
    x = x[small]
    x2 = x * x  # (x - sin x)/2 by its series below 0.25, to x^11
    out[small] = x2 * x / 12.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (
        1.0 - x2 / 72.0 * (1.0 - x2 / 110.0))))
    return out


def _lens_weight(b: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """area(D(0, b) ∩ D(u, delta)) / (pi b^2), for rows with |b - delta| < u < b + delta."""
    inner = u + delta <= b  # D(u, delta) inside D(0, b)
    w = (delta / b) ** 2
    lens = np.flatnonzero(~inner)
    if not lens.size:
        return w
    whole = lens.size == w.size  # every row a lens: no gather or scatter
    if not whole:
        b, u = b[lens], u[lens]
    # b - u and u - b are exact when b and u are close: the thin-lens factors keep their digits
    root = np.sqrt(((b - u) + delta) * ((u + b) - delta) * ((u - b) + delta) * (u + b + delta))
    at_origin = np.arctan2(root, (u - delta) * (u + delta) + b * b)
    at_centre = np.arctan2(root, (u - b) * (u + b) + delta * delta)
    lens_w = (_segment(at_origin) + (delta / b) ** 2 * _segment(at_centre)) / math.pi
    if whole:
        return lens_w
    w[lens] = lens_w
    return w


def _tangency_sliver(b: np.ndarray, u: np.ndarray, delta: float, m: int, beta: WeightParam,
                     ruled: np.ndarray) -> np.ndarray:
    """mu_beta mass of the r where |b| r^m may pass ||u| - delta| unseen, on rows near tangency.

    The inputs count as exact reals.  |u| - delta = s + e exactly (Knuth's
    two-sum), and near tangency |b| - |s| is exact (Sterbenz), so the sign of
    the gap g = |b| - ||u| - delta| is.  Where g > 0 the circle r = 1 passes
    the inner edge, and the weight, computed from fl(|u| - delta), may miss or
    misplace the r with |b| r^m >= ||u| - delta|.  Where g <= 0 but the
    weight is ``ruled`` (computed on a radial interval) and fl(||u| - delta|)
    fell below |b|, it may count r that never pass the edge.  Either way the
    error lies on the sliver |b| r^m >= ||u| - delta| - slack, whose mass
    bounds it (h/pi lies in [0, 1]).  The other rows are exact up to the
    rounding allowances: weight 0 or 1 by containment, or an interval that
    starts where the exact one does.
    """
    s = u - delta
    held = s - u  # the -delta that s holds; s - held the u
    e = (u - (s - held)) - (delta + held)
    gap = np.where(s >= 0.0, (b - s) - e, (b + s) + e)
    mass = np.zeros(b.shape)
    rows = np.flatnonzero((gap > 0.0) | (ruled & (b > np.abs(s))))  # so b > 0 there
    if rows.size:
        x = (gap[rows] + _TANGENCY_ULPS * _EPS * (u[rows] + delta)) / b[rows]
        x = np.clip(x, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            mass[rows] = (-np.expm1(2.0 / m * np.log1p(-x))) ** (beta.beta + 1.0)
    return mass


def _radial_cap_weight(bmod, umod, delta: float, m: int,
                       beta: WeightParam) -> tuple[np.ndarray, np.ndarray]:
    """W = ∫ h(|b| r^m, |u|, delta)/pi dmu_beta(r) over the whole radial law, and its error bound.

    h is ``_cap_angular_halfwidth``: W is the V_beta probability over z_j = r
    e^{i theta} that |b z_j^m - u| <= delta.  Where the circle of radius
    |b| r^m lies inside D(|u|, delta), h = pi, and that part of the radial
    law is exact: 1 - (1 - r^2)^(beta+1).  The rest is the r with |b| r^m in
    [||u| - delta|, |u| + delta], where h has square-root ends.
    For m = 1 and beta = 0 that integral is a lens area (``_lens_weight``).
    Otherwise the variable v = (1 - r^2)^(beta+1), in which mu_beta is
    Lebesgue measure, carries it to a 21-point Kronrod rule after a cosine map
    that clusters nodes at both ends.  Only rows with a non-empty interval
    evaluate the rule.

    The bound per row is the Kronrod rule's distance from its embedded
    10-point Gauss rule, which on smooth integrands exceeds the Kronrod
    rule's own error by orders of magnitude, times _RULE_SAFETY near the
    geometries where the integrand is nearly singular, plus rounding
    allowances (see the constants); weights 0 and 1 from containment are
    exact and carry none, and the lens carries only ``_WEIGHT_ROUNDING``
    times itself.  A row within a few ulps of tangency to the inner edge,
    where rounding |u| - delta can empty the radial interval, adds the
    mu_beta mass of the sliver it can hide (``_tangency_sliver``).
    """
    b, u = np.broadcast_arrays(np.asarray(bmod, dtype=float), np.asarray(umod, dtype=float))
    # |b| r^m <= |b| < delta - |u|: the whole circle lies in the disc for every r
    weight = np.where(u + b < delta, 1.0, 0.0)
    err = np.zeros(weight.shape)
    overlap = b - np.abs(u - delta)  # > 0: the circle r = 1 passes the inner edge
    ruled = (weight == 0.0) & ((u < delta) | (overlap > 0.0))
    part = np.flatnonzero(ruled)
    slack = _TANGENCY_ULPS * _EPS * (np.max(u, initial=0.0) + delta)
    near = np.flatnonzero(np.abs(overlap, out=overlap) <= slack)
    if near.size:
        err[near] = _tangency_sliver(b[near], u[near], delta, m, beta, ruled[near])
    if not part.size:
        return weight, err
    whole = part.size == weight.size  # every row ruled: no gather or scatter
    if not whole:
        b, u = b[part], u[part]
    if m == 1 and beta.beta == 0.0:
        w = _lens_weight(b, u, delta)
        if whole:
            err += _WEIGHT_ROUNDING * w
            return w, err
        weight[part] = w
        err[part] += _WEIGHT_ROUNDING * w
        return weight, err
    p1 = beta.beta + 1.0
    with np.errstate(divide="ignore"):
        # log r^2 where the circle |b| r^m meets the inner and the outer edge of
        # D(|u|, delta), capped at r = 1 (every row left has b > 0)
        log_lo = np.minimum(2.0 / m * np.log(np.abs(u - delta) / b), 0.0)
        log_hi = np.minimum(2.0 / m * np.log((u + delta) / b), 0.0)
        # 1 - r^2 at the inner edge; mu_beta(r < r_lo) = 1 - (1 - r_lo^2)^(beta+1)
        top = -np.expm1(log_lo)
        w = np.where(u < delta, -np.expm1(p1 * np.log(top)), 0.0)
    e = _WEIGHT_ROUNDING * w
    rows = np.flatnonzero(log_lo < log_hi)
    if rows.size:
        # one row of r^2 per node (each array operation then runs along the draws)
        r2 = np.empty((_NODE_S.size, rows.size))
        k = _LOWER_NODES
        s, t = _NODE_S[:k, None], _NODE_1MS[k:, None]
        # v is decreasing in r: its upper end is r's lower end
        top = top[rows]
        lo, hi = (-np.expm1(log_hi[rows])) ** p1, top ** p1
        span = hi - lo
        r2[:k] = 1.0 - (lo + span * s) ** (1.0 / p1)
        # near v's upper end (small r) step up from r_lo^2 without cancellation
        r2[k:] = np.exp(log_lo[rows]) - top * np.expm1(np.log1p(-(span / hi) * t) / p1)
        rho = np.sqrt(r2, out=r2) ** m * b[rows]
        d = rho - u[rows]
        # h in half-angle form, tan(h/2) = sqrt((delta^2 - d^2) / ((rho + u)^2 - delta^2)):
        # exact near both ends, where arccos loses digits
        inside = (delta - d) * (delta + d)
        rho += u[rows]
        outside = (rho - delta) * (rho + delta)
        holed = np.flatnonzero(u[rows] < delta)
        if len(holed):
            # D(|u|, delta) holds the origin, a = delta - |u| > 0: rho + |u| - delta = rho - a
            # cancels when |b| - a is thin, and rho is itself rounded there.  Take it as
            # (|b| - a) - (|b| - rho), with |b| - rho from 1 - r^2 at the nodes, as r2 was built.
            sh = span[holed]
            deep = np.concatenate([(lo[holed] + sh * s) ** (1.0 / p1),
                                   top[holed] * np.exp(np.log1p(-(sh / hi[holed]) * t) / p1)])
            bh = b[rows][holed]
            fall = -np.expm1(m / 2.0 * np.log1p(-deep)) * bh
            outside[:, holed] = ((bh - (delta - u[rows][holed])) - fall) * (rho[:, holed] + delta)
        np.maximum(inside, 0.0, out=inside)
        with np.errstate(divide="ignore"):
            h = np.arctan(np.sqrt(np.divide(inside, outside, out=inside), out=inside), out=inside)
        # node by node, so that each row gets the same bits in a batch of any size
        kronrod, gap = np.zeros(rows.size), np.zeros(rows.size)
        for hk, wk, gk in zip(h, _KRONROD_W, _KRONROD_W - _GAUSS_W):
            kronrod += wk * hk
            gap += gk * hk
        span *= 2.0 / math.pi
        kink = span * kronrod
        w[rows] += kink
        bb, uu = b[rows], u[rows]  # nearly singular: see _RULE_SAFETY
        near = ((np.abs(uu - delta) < 0.5 * delta) | (np.abs(bb - uu - delta) < delta)
                | (np.abs(bb - np.abs(uu - delta)) < delta))
        e[rows] += (np.where(near, _RULE_SAFETY, 1.0) * span * np.abs(gap)
                    + _WEIGHT_ROUNDING * kink + _WEIGHT_FLOOR)
    if whole:
        err += e
        return w, err
    weight[part] = w
    err[part] += e
    return weight, err


def disc_cap_measure(a: complex, delta: float, beta: WeightParam) -> tuple[float, float]:
    """A_beta(D(a, delta) ∩ D) and its error bound.

    By rotation invariance the cap's measure is the V_beta probability that
    |z - |a|| < delta: the radial cap weight of |b| = 1 and m = 1
    (``_radial_cap_weight``), the same integral that gives the sublevel
    estimator its split-coordinate weights.  Caps that contain the disc or
    miss it are exact; centred caps and caps at beta = 0 (lens areas) are
    closed forms with a rounding allowance; the rest carry the Kronrod
    rule's stated bound.
    """
    delta, a = float(delta), complex(a)
    if not (delta > 0.0 and cmath.isfinite(a)):  # NaN fails too
        raise ValueError("cap radius must be positive and its centre finite")
    w, e = _radial_cap_weight(np.ones(1), np.array([abs(a)]), delta, 1, beta)
    return float(w[0]), float(e[0])


def carleson_box_measure(box: CarlesonBox, beta: WeightParam) -> tuple[float, float]:
    """V_beta(S(xi, delta)) as the product of per-coordinate cap measures, and its error bound.

    With caps m_j within e_j of their true values, the product lies within
    prod(m_j + e_j) - prod(m_j) of the box's.
    """
    total, upper = 1.0, 1.0
    for xi_j, d_j in zip(box.center.point(), box.radii):
        m, e = disc_cap_measure(xi_j, d_j, beta)
        total *= m
        upper *= m + e
    return total, upper - total


# ---------------------------------------------------------------------------
# sampling regions
# ---------------------------------------------------------------------------

Arc = tuple[float, float]  # (start angle in [0, 2pi), length in (0, 2pi])


def merge_arcs(arcs: list[Arc]) -> tuple[Arc, ...] | None:
    """Normalize a list of arcs into disjoint sorted intervals; None = full circle."""
    if not arcs:
        raise EmptyRegion("no arcs supplied")
    segs: list[tuple[float, float]] = []
    for start, length in arcs:
        if length <= 0.0:
            continue
        if length >= TWO_PI:
            return None
        s = start % TWO_PI
        end = s + length
        if end <= TWO_PI:
            segs.append((s, end))
        else:  # wraps: split
            segs.append((s, TWO_PI))
            segs.append((0.0, end - TWO_PI))
    if not segs:
        raise EmptyRegion("all arcs empty")
    segs.sort()
    merged = [segs[0]]
    for s, e in segs[1:]:
        if s <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    # wrap-around join between last and first
    if len(merged) > 1 and merged[0][0] <= 1e-15 and merged[-1][1] >= TWO_PI - 1e-15:
        first = merged.pop(0)
        merged[-1] = (merged[-1][0], TWO_PI + first[1])
    total = sum(e - s for s, e in merged)
    if total >= TWO_PI - 1e-12:
        return None
    return tuple((s, e - s) for s, e in merged)


def intersect_arcs(sets: Sequence[tuple[Arc, ...] | None]) -> tuple[Arc, ...] | None:
    """Intersection of ``merge_arcs`` outputs (None = full circle); () when it is empty.

    Equal sets count once and full circles not at all, so one set left is
    returned as it came; otherwise the pieces go through ``merge_arcs`` once.
    """
    sets = [arcs for arcs in dict.fromkeys(sets) if arcs is not None]
    if len(sets) < 2:
        return sets[0] if sets else None
    pieces = None
    for arcs in sets:
        segs = []
        for start, length in arcs:  # starts lie in [0, 2 pi); split the arc that wraps
            end = start + length
            segs += [(start, end)] if end <= TWO_PI else [(start, TWO_PI), (0.0, end - TWO_PI)]
        pieces = segs if pieces is None else [
            (max(a, c), min(b, d)) for a, b in pieces for c, d in segs if max(a, c) < min(b, d)]
    return merge_arcs([(s, e - s) for s, e in pieces]) if pieces else ()


@dataclass(frozen=True)
class AngleSumWindow:
    """Joint angular constraint: sum_j coeffs_j * theta_j in center ± halfwidth (mod 2pi).

    ``solve_index`` names the coordinate solved for during sampling; its arc
    must be the full circle, which keeps both the mass formula and the sampler
    exact for any positive integer coefficient (the mod-2pi branches are
    equidistributed).
    """

    coeffs: tuple[int, ...]
    center: float
    halfwidth: float
    solve_index: int

    def __post_init__(self):
        if self.halfwidth <= 0.0:
            raise EmptyRegion("angle window must have positive width")
        if self.halfwidth > math.pi:
            raise ValueError("angle window wider than the circle; drop the window instead")
        if self.coeffs[self.solve_index] <= 0:
            raise ValueError("solve coordinate needs a positive integer coefficient")


@dataclass(frozen=True)
class DeficitSimplex:
    """{sum_k |c_k| x_k <= budget}, x_k = 1 - Re(e^{-i phi_k} z_k^{m_k}), over ``coords``.

    It contains the sublevel set of a separable binding
    |c0 + sum_k c_k z_k^{m_k} - eta| <= delta with no margin: with
    u = eta - c0, phi_k = arg u - arg c_k and |c_k| the ``moduli``,
    |f - eta| >= Re(conj(u)/|u| (eta - f)) = sum_k |c_k| x_k - (sum_k |c_k| - |u|),
    so the binding implies the simplex with budget delta + sum_k |c_k| - |u|
    (delta itself at an extremal target |u| = sum_k |c_k|).  Every x_k >= 0
    on the closed polydisc.  Coordinates are drawn in ``coords`` order, but
    for a fixed one, which is drawn last (``_simplex_points``).  ``target``
    |u| and ``tolerance`` delta also give the binding's angular arc on it.
    """

    coords: tuple[int, ...]
    powers: tuple[int, ...]
    moduli: tuple[float, ...]
    phases: tuple[float, ...]
    target: float
    tolerance: float

    def __post_init__(self):
        if not len(self.coords) == len(self.powers) == len(self.moduli) == len(self.phases):
            raise ValueError("simplex coordinate, power, modulus and phase lengths differ")
        if self.budget <= 0.0:
            raise EmptyRegion("deficit simplex needs a positive budget")

    @property
    def budget(self) -> float:
        return self.tolerance + math.fsum(self.moduli) - self.target

    def deficit(self, z: np.ndarray) -> np.ndarray:
        """sum_k |c_k| x_k at each row of z."""
        total = np.zeros(z.shape[0])
        for j, m, c, phi in zip(self.coords, self.powers, self.moduli, self.phases):
            total += c * (1.0 - (_power(z[:, j], m) * complex(math.cos(phi), -math.sin(phi))).real)
        return total


@dataclass(frozen=True)
class TermCap:
    """{z_j : |c z_j^m - u| <= tolerance}: the exact set of a binding whose one non-constant
    term is c z_j^m, with u its target less its constant part.

    The region draws z_j from it (``_cap_points``): r_j on the radial
    interval where its arc set is non-empty, theta_j on the m arcs
    {m theta_j - arg(u/c) in ±h}.
    """

    coord: int
    power: int
    coeff: complex
    target: complex
    tolerance: float

    def __post_init__(self):
        if self.power < 1 or self.coeff == 0:
            raise ValueError("a cap needs a positive power and a non-zero coefficient")


@dataclass(frozen=True)
class AnnulusArc:
    """Product region {r_j in [1-s_j, 1), theta_j in arcs_j} ∩ optional angle-sum window
    ∩ optional deficit simplex ∩ optional caps, and the coordinates a draw leaves out.

    arcs entry None means the full circle.  Depth 1 means the full radial
    range.  Simplex coordinates have no arc and no window coefficient; their
    depths still bound their radii.  A capped coordinate (``caps``) has no
    depth, no arc and no window coefficient, and lies outside the simplex.
    The caller integrates the angle of a ``fixed`` coordinate (at most one
    simplex coordinate) and the radius and angle of an ``integrated`` one
    (depth 1, outside the simplex), so a draw takes no uniform for them
    (``region_points``); neither has an arc, a window coefficient or a cap.
    These roles constrain no point.
    """

    depths: tuple[float, ...]
    arcs: tuple[tuple[Arc, ...] | None, ...]
    window: AngleSumWindow | None = None
    simplex: DeficitSimplex | None = None
    caps: tuple[TermCap, ...] = ()
    fixed: tuple[int, ...] = ()
    integrated: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.depths) != len(self.arcs):
            raise ValueError("depths and arcs length mismatch")
        depths = tuple(min(max(float(s), 0.0), 1.0) for s in self.depths)
        if any(s <= 0.0 for s in depths):
            raise EmptyRegion("annulus depths must be positive")
        object.__setattr__(self, "depths", depths)
        coeffs = self.window.coeffs if self.window is not None else (0,) * len(depths)
        if self.window is not None:
            if len(coeffs) != len(depths):
                raise ValueError("window coefficient length mismatch")
            if self.arcs[self.window.solve_index] is not None:
                raise ValueError("window solve coordinate must have a full-circle arc")
        # the coordinates whose angle no arc and no window constrain
        free = {j for j, arcs in enumerate(self.arcs) if arcs is None and not coeffs[j]}
        if any(j not in free for j in self.inner):
            raise ValueError("a simplex coordinate takes no arc and no window")
        capped = tuple(cap.coord for cap in self.caps)
        if len(set(capped)) < len(capped) or any(
                j not in free or depths[j] < 1.0 or j in self.inner for j in capped):
            raise ValueError("a capped coordinate takes one cap, no depth, arc, window or simplex")
        roles = self.fixed + self.integrated + capped
        if len(set(roles)) < len(roles) or any(j not in free for j in roles):
            raise ValueError("a fixed or integrated angle has no other role, arc, window or cap")
        if any(depths[j] < 1.0 or j in self.inner for j in self.integrated):
            raise ValueError("an integrated coordinate takes no depth and no simplex")
        if sum(j in self.inner for j in self.fixed) > 1:
            raise ValueError("at most one simplex coordinate can be fixed")

    @staticmethod
    def full(n: int) -> "AnnulusArc":
        """The whole polydisc: depth 1 and no arc in every coordinate."""
        return AnnulusArc(depths=(1.0,) * n, arcs=(None,) * n)

    @property
    def n(self) -> int:
        return len(self.depths)

    @property
    def inner(self) -> tuple[int, ...]:
        """The simplex coordinates."""
        return self.simplex.coords if self.simplex is not None else ()


def region_mass(region: AnnulusArc, beta: WeightParam) -> float:
    """Exact V_beta mass of a sampling region's product part, in closed form.

    A simplex's coordinates and the capped ones count with mass 1 here: each
    of their draws carries its own likelihood factor in [0, 1]
    (``region_points``).
    """
    total = 1.0
    for j, (s, arcs) in enumerate(zip(region.depths, region.arcs)):
        if j in region.inner:
            continue
        total *= annulus_mass(beta, s)
        if arcs is not None:
            total *= sum(length for _, length in arcs) / TWO_PI
    if region.window is not None:
        total *= min(2.0 * region.window.halfwidth, TWO_PI) / TWO_PI
    if total == 0.0:
        raise EmptyRegion("annulus-arc region has zero mass")
    return total


def _arc_angle(arcs: tuple[Arc, ...], u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the uniform law on a union of arcs: one uniform per angle."""
    lengths = np.array([length for _, length in arcs])
    starts = np.array([start for start, _ in arcs])
    cum = np.cumsum(lengths)
    t = u * cum[-1]
    pick = np.minimum(np.searchsorted(cum, t, side="right"), len(arcs) - 1)
    return (starts[pick] + (t - (cum[pick] - lengths[pick]))) % TWO_PI


def sample_dim(region: AnnulusArc) -> int:
    """Uniforms per point that ``region_points`` reads: two per coordinate, less the region's
    fixed angles and integrated coordinates."""
    return 2 * region.n - len(region.fixed) - 2 * len(region.integrated)


def _arc_radius(umod, delta: float, c: float, m: int, floor, beta: WeightParam,
                v) -> tuple[np.ndarray, np.ndarray]:
    """r where {theta : |c r^m e^{i m theta} - umod| <= delta} is non-empty, and the draw's Jacobian.

    The interval is r^m in [max(umod - delta, 0)/c, (umod + delta)/c], cut by
    r^m >= ``floor`` and r <= 1.  In v' = (1 - r^2)^(beta+1), where mu_beta
    is Lebesgue measure, the uniform v goes through the cosine map
    v' = near + span sin^2(pi v / 2) that ``_radial_cap_weight``'s nodes use,
    so the arc's square-root ends cost no variance.  The Jacobian dv'/dv is
    the draw's likelihood factor; where span > 2/pi the map blends with the
    linear one just enough to keep it at most 1 (rows that need no blend get
    the same bits either way).  Like ``_simplex_points`` it works in place
    where it can.
    """
    p1 = beta.beta + 1.0
    lo = umod - delta
    np.maximum(lo, 0.0, out=lo)
    lo /= c
    np.maximum(lo, floor, out=lo)
    np.minimum(lo, 1.0, out=lo)
    hi = umod + delta
    hi /= c
    np.minimum(hi, 1.0, out=hi)
    near = _pow(1.0 - _pow(hi, 2.0 / m), p1)  # v' at r_hi
    span = _pow(1.0 - _pow(lo, 2.0 / m), p1)
    span -= near
    np.maximum(span, 0.0, out=span)
    cos, sin = _cis(math.pi / 4.0 * v)
    slope = np.multiply(sin, cos, out=cos)
    slope *= math.pi
    square = np.multiply(sin, sin, out=sin)
    if np.any(span > 2.0 / math.pi):
        with np.errstate(divide="ignore"):
            blend = np.minimum((1.0 / span - 1.0) / (math.pi / 2.0 - 1.0), 1.0)
        square = (1.0 - blend) * v + blend * square
        slope = (1.0 - blend) + blend * slope
    square *= span
    square += near
    radius = _pow(square, 1.0 / p1)  # 1 - r^2
    np.subtract(1.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    np.minimum(radius, _R_MAX, out=radius)
    slope *= span
    return radius, slope


def _pow(x, p: float):
    """x^p, as x itself (no copy) when p is 1: beta = 0 and m = 2 skip every power."""
    return x if p == 1.0 else x ** p


def _cis(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 half, from t = tan(half): (1 - t^2)/(1 + t^2) and 2t/(1 + t^2).

    numpy's tan runs several times faster than its sin and cos.
    """
    t = np.tan(half)
    d = t * t
    d += 1.0
    np.divide(2.0, d, out=d)
    t *= d
    d -= 1.0
    return d, t


def _branch_angle(v, m: int, halfwidth, phase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos theta, sin theta and psi/2 for theta uniform on an arc of m branches.

    The arc is {theta : m theta - phase in ±halfwidth (mod 2 pi)}.  The
    uniform v picks the branch floor(m v) and the offset psi = (2 frac(m v)
    - 1) halfwidth, and theta = (phase + psi + 2 pi floor(m v)) / m.
    """
    half = v * m
    branch = np.floor(half)
    half -= branch
    half -= 0.5
    half *= halfwidth  # psi / 2
    branch *= math.pi
    branch += phase / 2.0
    branch += half
    branch /= m  # theta / 2
    cos, sin = _cis(branch)
    return cos, sin, half


def _power(x: np.ndarray, m: int) -> np.ndarray:
    """x^m for a positive integer m, by multiplication."""
    out = x.copy()
    for _ in range(m - 1):
        out *= x
    return out


def _simplex_points(region: AnnulusArc, beta: WeightParam, radius_u: dict, angle_u: dict,
                    z: np.ndarray):
    """Draw the simplex coordinates into rows of z; return each point's likelihood.

    Starting from left = budget, coordinate k takes r_k from mu_beta on
    r^m >= 1 - left/|c_k| (within its depth), an annulus of mass q^(beta+1)
    with q = 1 - r_min^2, and psi = m theta_k - phi_k uniform on ±gamma with
    gamma = arccos((1 - left/|c_k|)/r^m) and branch floor(m u): exactly the
    slice {|c_k| x_k <= left}.  The likelihood picks up q^(beta+1) gamma/pi
    and left drops by |c_k| x_k.  The coordinates go in ``coords`` order,
    but for the region's fixed one, which has no angle column: it goes last and
    comes back as its real radius, from ``_arc_radius`` on the binding's arc at
    |u'| = |u - sum_{k drawn} c_k z_k^{m_k}| cut to what the simplex leaves;
    its Jacobian is its factor.

    Arithmetic runs in place where it can: for 2^16-row bundles, allocating a
    fresh array costs more than most of the operations that fill it.
    """
    simplex = region.simplex
    p1 = beta.beta + 1.0
    left = simplex.budget
    likelihood = np.ones(z.shape[1])
    sine = np.zeros(z.shape[1])  # Im sum_k |c_k| e^{-i phi_k} z_k^{m_k} over the drawn coordinates
    parts = sorted(zip(simplex.coords, simplex.powers, simplex.moduli, simplex.phases),
                   key=lambda part: part[0] in region.fixed)  # stable: the fixed one last
    for j, m, c, phi in parts:
        ell = left / c
        floor = np.maximum(1.0 - np.minimum(ell, 1.0), (1.0 - region.depths[j]) ** m)  # r_min^m
        if j in region.fixed:
            re = c + simplex.tolerance - left  # conj(u') u/|u| = re - i sine
            z[j], jacobian = _arc_radius(np.sqrt(re * re + sine * sine), simplex.tolerance, c, m,
                                         floor, beta, radius_u[j])
            likelihood *= jacobian
            break
        q = 1.0 - _pow(floor, 2.0 / m)
        r = _pow(1.0 - radius_u[j], 1.0 / p1) * q  # 1 - r^2
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        np.minimum(r, _R_MAX, out=r)
        rho = _power(r, m)
        # the origin (rho = 0) lies in the slice only where left >= |c_k|: gamma = pi
        gamma = np.maximum(rho, 1e-300)
        np.divide(1.0 - ell, gamma, out=gamma)
        np.clip(gamma, -1.0, 1.0, out=gamma)
        np.arccos(gamma, out=gamma)
        cos_theta, sin_theta, half = _branch_angle(angle_u[j], m, gamma, phi)
        np.multiply(r, cos_theta, out=z[j].real)
        np.multiply(r, sin_theta, out=z[j].imag)
        cos, sin = _cis(half)
        gamma *= _pow(q, p1) / math.pi
        likelihood *= gamma
        cos *= rho
        np.subtract(1.0, cos, out=cos)
        cos *= c
        left = np.maximum(np.subtract(left, cos, out=cos), 0.0, out=cos)
        sin *= rho
        sin *= c
        sine += sin
    return likelihood


def _cap_points(region: AnnulusArc, beta: WeightParam, radius_u: dict, angle_u: dict,
                z: np.ndarray, likelihood):
    """Draw the capped coordinates into rows of z; return the likelihood times their factors.

    A cap {|c z_j^m - u| <= delta} takes r_j from ``_arc_radius`` on the
    interval where its arc set is non-empty, and theta_j uniform on the m
    arcs {m theta_j - arg(u/c) in ±h(r_j)} (``_branch_angle``): its factor
    is the radius's Jacobian times h(r_j)/pi, so every point lies in the cap
    and the mean factor is the cap's V_beta mass.
    """
    for cap in region.caps:
        j, m, delta = cap.coord, cap.power, cap.tolerance
        c, u = abs(cap.coeff), abs(cap.target)
        r, factor = _arc_radius(np.array([u]), delta, c, m, 0.0, beta, radius_u[j])
        h = _cap_angular_halfwidth(_power(r, m) * c, u, delta)
        phase = (math.atan2(cap.target.imag, cap.target.real)
                 - math.atan2(cap.coeff.imag, cap.coeff.real))
        cos_theta, sin_theta, _ = _branch_angle(angle_u[j], m, h, phase)
        np.multiply(r, cos_theta, out=z[j].real)
        np.multiply(r, sin_theta, out=z[j].imag)
        h *= factor
        h /= math.pi
        h *= likelihood
        likelihood = h
    return likelihood


def region_points(region: AnnulusArc, beta: WeightParam,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Map uniforms u, shape (size, sample_dim), to region points and their likelihoods.

    The first columns give the drawn radii r_j in coordinate order; the next
    columns give the drawn angles, each through the inverse CDF of its arc
    set.  The window's solve coordinate reads one column u: the branch is
    floor(m u) and the window offset comes from frac(m u).  Outside a simplex
    and the caps the points follow V_beta restricted to the region and the
    likelihood is 1.0.  The simplex coordinates are drawn in turn from their slices of the
    simplex (``_simplex_points``), and each point's likelihood, in [0, 1],
    is the product of its draws' factors: averages of likelihood times
    integrand are unbiased over the simplex, and the mean likelihood is its
    V_beta mass.  The map is piecewise smooth, so scrambled Sobol points pass
    through it as well as i.i.d. ones.

    The capped coordinates read their two columns as the others do, and each
    is drawn from its cap (``_cap_points``), its factor in the likelihood.

    The region's ``fixed`` coordinates take no angle column and come back as
    their real radii r_j: a caller that integrates those angles in closed
    form reads only their moduli.  Its ``integrated`` coordinates take no
    column at all and come back as NaN: the caller integrates radius and
    angle and reads neither.
    """
    n = region.n
    window, inner = region.window, region.inner
    capped = [cap.coord for cap in region.caps]
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != sample_dim(region):
        raise ValueError("uniforms need one column per drawn radius and per drawn angle")
    drawn = [j for j in range(n) if j not in region.integrated]
    live = [j for j in drawn if j not in region.fixed]
    radius_u = dict(zip(drawn, u.T))
    angle_u = dict(zip(live, u[:, len(drawn):].T))
    r, theta = {}, {}  # of the coordinates outside the simplex and the caps
    for j in range(n):
        if j in inner or j in capped:
            continue
        r[j] = radial_sample(beta, radius_u[j], region.depths[j]) if j in radius_u else np.nan
        if j not in angle_u:
            continue
        v = angle_u[j]
        if window is not None and j == window.solve_index:
            t = v * window.coeffs[j]
            branch = np.floor(t)
            # window centre plus offset on the branch; the other angles are subtracted below
            offset = window.halfwidth * (2.0 * (t - branch) - 1.0)
            theta[j] = window.center + offset + TWO_PI * branch
        else:
            arcs = region.arcs[j]
            theta[j] = v * TWO_PI if arcs is None else _arc_angle(arcs, v)
    if window is not None:
        j0 = window.solve_index
        rest = sum(window.coeffs[j] * theta[j] for j in theta if j != j0)
        theta[j0] = (theta[j0] - rest) / window.coeffs[j0] % TWO_PI
    z = np.empty((n, u.shape[0]), dtype=complex)
    for j in r:
        if j not in theta:  # fixed or integrated
            z[j] = r[j]
        else:  # r e^{i theta}, without the complex temporaries of np.exp(1j * theta)
            np.multiply(r[j], np.cos(theta[j]), out=z[j].real)
            np.multiply(r[j], np.sin(theta[j]), out=z[j].imag)
    likelihood = _simplex_points(region, beta, radius_u, angle_u, z) if inner else 1.0
    if capped:
        likelihood = _cap_points(region, beta, radius_u, angle_u, z, likelihood)
    return z.T, likelihood


def sample_polydisc(n: int, beta: WeightParam, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n) i.i.d. points with law V_beta, through ``region_points`` of the full polydisc."""
    return region_points(AnnulusArc.full(n), beta, rng.random((size, 2 * n)))[0]


def restricted_sample(region: AnnulusArc, beta: WeightParam,
                      rng: np.random.Generator | Sequence[np.random.Generator],
                      size: int) -> tuple[np.ndarray, np.ndarray | float]:
    """(size, n) points of the region, plus each point's likelihood (``region_points``).

    The likelihood is 1.0 for a region without a simplex or a cap, else one
    float per point; times the region's exact mass (``region_mass``) it is
    the point's mass.  One generator gives i.i.d. points; a sequence of
    generators gives scrambled Sobol replicates, one per generator, which
    split ``size`` evenly (powers of two).  The region's fixed and integrated
    coordinates come back as in ``region_points``.
    """
    d = sample_dim(region)
    if isinstance(rng, np.random.Generator):
        u = rng.random((size, d))
    else:
        if size % len(rng):
            raise ValueError(f"{size} points do not split into {len(rng)} Sobol replicates")
        u = sobol_points(rng, d, size // len(rng))
    return region_points(region, beta, u)


# Rounding allowance of a simplex membership test: sampled points sit on the
# simplex's faces up to a few ulps of each |c_k| x_k.
_DEFICIT_SLACK = 1e-12
# Rounding allowance of a cap membership test: the binding itself adds its
# constant and its term in another order.
_CAP_SLACK = 1e-12


def region_contains(region: AnnulusArc, z: np.ndarray) -> np.ndarray:
    """Vectorized membership test for points of D^n (boolean array of length N).

    Moduli and angles are computed only for the coordinates that a depth, an
    arc set or the window constrains.
    """
    z = np.asarray(z, dtype=complex)
    ok = np.ones(z.shape[0], dtype=bool)
    window = region.window
    theta = {}
    for j in range(region.n):
        s = region.depths[j]
        if s < 1.0:
            ok &= np.abs(z[:, j]) >= 1.0 - s
        arcs = region.arcs[j]
        if arcs is not None or (window is not None and window.coeffs[j]):
            theta[j] = np.angle(z[:, j]) % TWO_PI
        if arcs is not None:
            in_arc = np.zeros(z.shape[0], dtype=bool)
            for start, length in arcs:
                in_arc |= (theta[j] - start) % TWO_PI <= length
            ok &= in_arc
    if window is not None:
        phase = sum(window.coeffs[j] * t for j, t in theta.items() if window.coeffs[j])
        dev = (phase - window.center + math.pi) % TWO_PI - math.pi
        ok &= np.abs(dev) <= window.halfwidth
    if region.simplex is not None:
        ok &= region.simplex.deficit(z) <= region.simplex.budget + _DEFICIT_SLACK
    for cap in region.caps:
        term = cap.coeff * _power(z[:, cap.coord], cap.power)
        ok &= np.abs(term - cap.target) <= cap.tolerance + _CAP_SLACK
    return ok

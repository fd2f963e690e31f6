"""Carleson-box preimage ratios: the measure-theoretic boundedness test.

A self-map of the polydisc composes boundedly on the weighted Bergman space
exactly when V_beta of box preimages is dominated by V_beta of the boxes,
uniformly over centers on the torus and radii.  The scans here measure the
ratio along shrinking boxes anchored at contact points: a log-log slope near
zero is evidence of a uniform Carleson constant, a negative slope certifies
blow-up.  Coordinates whose components do not touch the torus at the center
are left unconstrained (radius 2 covers the whole disc), matching the
extremal families in which only the binding components shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fitting import loglog_wls, trusted_points
from .measure import CarlesonBox, WeightParam, carleson_box_measure
from .sublevel import (PROVABLY_EMPTY, SublevelEstimate, _check_geometric, _merge_bindings,
                       build_proposal, estimate_indicator)
from .symbols import PolySymbol, TorusPoint


@dataclass(frozen=True)
class RatioEstimate:
    """Preimage volume estimate over the box measure; trust is the numerator's.

    The stderr combines the numerator's with the denominator's error bound
    (``carleson_box_measure``) in quadrature.  ``replicates`` are the
    numerator's over the denominator.
    """

    numerator: SublevelEstimate
    denominator: float
    denominator_bound: float

    @property
    def ratio(self) -> float:
        return self.numerator.volume / self.denominator

    @property
    def stderr(self) -> float:
        spread = math.hypot(self.numerator.stderr, self.ratio * self.denominator_bound)
        return spread / self.denominator

    @property
    def trusted(self) -> bool:
        return self.numerator.trusted

    @property
    def replicates(self) -> tuple[float, ...]:
        return tuple(m / self.denominator for m in self.numerator.replicates)


@dataclass(frozen=True)
class RatioScan:
    symbol: PolySymbol
    center: TorusPoint
    shrink: tuple[bool, ...]
    beta: WeightParam
    deltas: tuple[float, ...]
    estimates: tuple[RatioEstimate, ...]
    slope: float
    slope_stderr: float
    intercept: float

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["beta", "delta", "ratio", "stderr", "trusted"]
        rows = [
            [self.beta.beta, d, e.ratio, e.stderr, int(e.trusted)]
            for d, e in zip(self.deltas, self.estimates)
        ]
        return header, rows


def preimage_box_ratio(
    sym: PolySymbol,
    box: CarlesonBox,
    beta: WeightParam,
    budget: int,
    seed: int = 0,
    threads: int | None = None,
) -> RatioEstimate:
    """V_beta(Phi^{-1}(S(xi, delta))) / V_beta(S(xi, delta)) with propagated error.

    The preimage is the joint sublevel set {|Phi_j - xi_j| <= delta_j}: one
    (component, xi_j, delta_j) binding per coordinate, merged once so that a
    component repeating with the same target keeps the smaller radius.  The
    merged list builds the proposal (bindings of radius below 1) and feeds
    ``estimate_indicator``, which integrates the coordinates its matching
    picks (every coordinate of an identity or coordinate-power box);
    the denominator is the product of the box's cap integrals, whose error
    bound enters the stderr.  Radius-2 coordinates are vacuous by
    |Phi_j - xi_j| <= 2 and are left out of the tests.
    """
    sym.require_certificate()
    if box.n != sym.n_out:
        raise ValueError("box dimension must match the number of components")
    n = sym.n_in
    denominator, bound = carleson_box_measure(box, beta)
    xi = box.center.point()

    bindings = _merge_bindings([
        (sym.component(j), complex(xi[j]), box.radii[j])
        for j in range(sym.n_out)
        if box.radii[j] < 2.0
    ])
    region = build_proposal([b for b in bindings if b[2] < 1.0], n)
    if region == PROVABLY_EMPTY:
        return RatioEstimate(SublevelEstimate.empty("preimage empty by structure"),
                             denominator, bound)
    est = estimate_indicator(
        bindings, n, beta, region, budget, seed,
        f"carleson[{seed}]", threads=threads,
    )
    return RatioEstimate(est, denominator, bound)


def _scan_boxes(center: TorusPoint, shrink, delta: float) -> CarlesonBox:
    radii = tuple(delta if s else 2.0 for s in shrink)
    return CarlesonBox(center, radii)


def ratio_growth_scan(
    sym: PolySymbol,
    center: TorusPoint,
    shrink,
    beta: WeightParam,
    delta_grid,
    budget: int,
    seed: int = 0,
    threads: int | None = None,
) -> RatioScan:
    """Slope of log(preimage/box ratio) against log(delta) along shrinking boxes.

    ``shrink`` flags which coordinates shrink with delta; the rest stay
    unconstrained.  Slope near 0 is evidence of boundedness, decisively
    negative slope certifies an unbounded Carleson family.  Every box is
    ``preimage_box_ratio`` at the same ``seed``, so replicate r at every delta
    comes from the same stream and the slope's stderr is the replicates'
    spread of the linearised slope (``fitting.loglog_wls``).  Refuses to fit
    on fewer than 4 trusted points.
    """
    shrink = tuple(bool(s) for s in shrink)
    if len(shrink) != sym.n_out:
        raise ValueError("shrink mask length must match component count")
    if not any(shrink):
        raise ValueError("at least one coordinate must shrink")
    deltas = _check_geometric(delta_grid)
    estimates = [preimage_box_ratio(sym, _scan_boxes(center, shrink, d), beta, budget,
                                    seed=seed, threads=threads)
                 for d in deltas]
    fit = loglog_wls(*trusted_points(deltas, [e.ratio for e in estimates], estimates))
    return RatioScan(
        symbol=sym, center=center, shrink=shrink, beta=beta, deltas=deltas,
        estimates=tuple(estimates), slope=fit.slope, slope_stderr=fit.slope_stderr,
        intercept=fit.intercept,
    )


import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oracles import (half_square_weight, powersum2_volume, product_volume, radial_cap_weight,
                     uniform_joint_volume, unit_disc_cap_area)
from polycarleson import measure, sublevel
from polycarleson.battery import get_symbol
from polycarleson.carleson import preimage_box_ratio, ratio_growth_scan
from polycarleson.fitting import FitRefused, loglog_wls
from polycarleson.measure import (
    AnnulusArc,
    CarlesonBox,
    WeightParam,
    disc_cap_measure,
    merge_arcs,
)
from polycarleson.montecarlo import replicate_layout
from polycarleson.output import csv_text
from polycarleson.sublevel import (
    SublevelQuery,
    build_proposal,
    estimate_sublevel,
    find_value_fiber,
    fit_exponent,
)
from polycarleson.symbols import PolySymbol, TorusPoint


def product_symbol(n):
    return PolySymbol.monomial(n, (1,) * n)


def power_sum_symbol(n):
    entries = []
    for j in range(n):
        alpha = [0] * n
        alpha[j] = n
        entries.append((tuple(alpha), 1.0 / n))
    return PolySymbol.from_tables([entries], n)


def general_symbol():
    """f = (z1 + z2 + z1 z2)/3: neither a monomial nor separable; |f| = 1 on T^2 only at (1, 1)."""
    return PolySymbol.from_tables([[((1, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 1), 1 / 3)]], 2)


def half_square_symbol():
    """f = (z + z^2)/2 on D^1: z enters with two exponents, so no angle is integrated
    and a region's arcs stay in force."""
    return PolySymbol.from_tables([[((1,), 0.5), ((2,), 0.5)]], 1)


def half_square_estimate(region, delta, budget, seed, threads=None):
    binding = (half_square_symbol(), 1.0, delta)
    return sublevel.estimate_indicator([binding], 1, WeightParam(0.0), region, budget, seed,
                                       f"half_square[{seed}]", threads=threads)


def wrapped(a):
    return abs((a + math.pi) % (2.0 * math.pi) - math.pi)


class TestGeneralSymbol:
    """The value-fiber Newton solve and fiber-arc proposal used by general symbols."""

    def test_fiber_is_the_single_point_one_one(self):
        fiber = find_value_fiber(general_symbol(), 1.0)
        assert fiber.shape == (1, 2)
        assert max(wrapped(a) for a in fiber[0]) < 1e-6

    def test_proposal_arcs_centred_on_fiber(self):
        delta = 2.0**-6
        region = build_proposal([(general_symbol(), 1.0, delta)], 2)
        assert isinstance(region, AnnulusArc)
        assert region.window is None
        half = sublevel.PROPOSAL_MARGIN * math.sqrt(delta)
        for arcs in region.arcs:
            assert arcs is not None and len(arcs) == 1
            start, length = arcs[0]
            assert length == pytest.approx(2.0 * half)
            assert wrapped(start + length / 2.0) < 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_auto_proposal_agrees_with_uniform(self, k):
        f, delta, seed = general_symbol(), 2.0**-k, 31 + k
        auto = estimate_sublevel(SublevelQuery(f=f, eta=1.0, delta=delta, beta=WeightParam(0.0),
                                               budget=1_000_000, seed=seed))
        plain = sublevel.estimate_indicator([(f, 1.0, delta)], 2,
                                            WeightParam(0.0), AnnulusArc.full(2), 1_000_000, seed,
                                            f"sublevel[{seed}]")
        assert auto.trusted and plain.trusted
        z = (auto.volume - plain.volume) / math.hypot(auto.stderr, plain.stderr)
        assert abs(z) <= 4.0


class TestValueFiber:
    """A fiber is a read-only (k, n) angle array; k = 0 for a manifold and for no fiber."""

    def test_power_sum_fiber_is_finite(self):
        fiber = find_value_fiber(power_sum_symbol(2), 1.0)
        assert fiber.shape == (4, 2)  # (±1, ±1)
        assert not fiber.flags.writeable
        assert np.all((fiber >= 0.0) & (fiber < 2.0 * math.pi))

    def test_power_sum_cube_roots(self):
        assert find_value_fiber(power_sum_symbol(3), 1.0).shape == (27, 3)

    def test_product_fiber_is_manifold(self):
        assert find_value_fiber(product_symbol(2), 1.0).shape == (0, 2)

    def test_contraction_fiber_empty(self):
        f = PolySymbol.monomial(2, (1, 1), coeff=0.5)
        assert find_value_fiber(f, 1.0).shape == (0, 2)


class TestBuildProposal:
    def test_product_gets_angle_window(self):
        region = build_proposal([(product_symbol(2), 1.0, 0.01)], 2)
        assert isinstance(region, AnnulusArc)
        assert region.window is not None
        assert region.window.coeffs == (1, 1)
        assert region.arcs == (None, None)
        assert region.depths[0] == pytest.approx(0.02)

    def test_power_sum_gets_deficit_simplex(self):
        # (z1^3 + z2^3 + z3^3)/3 at eta = i: phi_k = pi/2 - 0, budget delta, no box around it
        region = build_proposal([(power_sum_symbol(3), 1j, 0.01)], 3)
        assert isinstance(region, AnnulusArc)
        assert region.window is None
        assert region.arcs == (None, None, None) and region.depths == (1.0, 1.0, 1.0)
        simplex = region.simplex
        assert simplex.coords == (0, 1, 2) and simplex.powers == (3, 3, 3)
        assert simplex.moduli == pytest.approx((1 / 3,) * 3)
        assert simplex.phases == pytest.approx((math.pi / 2,) * 3)
        assert simplex.budget == pytest.approx(0.01)
        assert measure.region_mass(region, WeightParam(0.0)) == 1.0

    def test_simplex_drops_other_arcs_and_windows(self):
        # mean_product's box: the z1 z2 binding keeps its depths, loses its window
        sym = get_symbol("mean_product")
        region = build_proposal([(sym.component(0), 1.0, 0.01), (sym.component(1), 1.0, 0.01)], 2)
        assert region.simplex.coords == (0, 1)
        assert region.window is None and region.arcs == (None, None)
        assert region.depths == pytest.approx((0.02, 0.02))

    def test_unused_coordinate_stays_free(self):
        # f = z1 z2 inside D^3: third coordinate unconstrained
        f = PolySymbol.monomial(3, (1, 1, 0))
        region = build_proposal([(f, 1.0, 0.01)], 3)
        assert region.depths[2] == 1.0

    def test_large_delta_degrades_to_full_polydisc(self):
        region = build_proposal([(product_symbol(2), 1.0, 2.0)], 2)
        assert region == AnnulusArc.full(2)

    def test_disjoint_single_term_arcs_are_provably_empty(self):
        z1 = PolySymbol.monomial(1, (1,))
        assert build_proposal([(z1, 1.0, 0.1), (z1, -1.0, 0.1)], 1) == sublevel.PROVABLY_EMPTY
        # z1^2 near 1 and z1 near i: two arcs about 0 and pi, none about pi/2
        z1_squared = PolySymbol.monomial(1, (2,))
        assert (build_proposal([(z1_squared, 1.0, 0.1), (z1, 1j, 0.1)], 1)
                == sublevel.PROVABLY_EMPTY)

    def test_single_term_arcs_meet(self):
        # z1^2 near 1 keeps arcs about 0 and pi, z1 near 1 the one about 0
        z1, z1_squared = PolySymbol.monomial(1, (1,)), PolySymbol.monomial(1, (2,))
        (arc,) = build_proposal([(z1_squared, 1.0, 0.1), (z1, 1.0, 0.2)], 1).arcs[0]
        assert arc[1] == pytest.approx(0.2) and wrapped(arc[0] + 0.1) < 1e-12

    def test_empty_meet_with_fiber_arcs_falls_back_to_union(self):
        # z2 near -1 misses the fiber arc about theta_2 = 0, but fiber arcs carry no
        # proof: the region takes both arcs instead of claiming the set empty
        delta = 0.01
        bindings = [(general_symbol(), 1.0, delta), (PolySymbol.monomial(2, (0, 1)), -1.0, delta)]
        region = build_proposal(bindings, 2)
        assert region != sublevel.PROVABLY_EMPTY
        fiber = build_proposal(bindings[:1], 2)
        single = build_proposal(bindings[1:], 2)
        assert region.arcs[0] == fiber.arcs[0]
        assert region.arcs[1] == merge_arcs(list(fiber.arcs[1] + single.arcs[1]))
        assert len(region.arcs[1]) == 2


class TestEstimate:
    def test_whole_polydisc_at_delta_two(self):
        q = SublevelQuery(f=product_symbol(2), eta=1.0, delta=2.0,
                          beta=WeightParam(0.0), budget=10_000)
        est = estimate_sublevel(q)
        assert est.volume == pytest.approx(1.0)
        assert est.stderr == 0.0
        assert est.trusted

    def test_univariate_matches_disc_cap(self):
        f = get_symbol("identity1")
        q = SublevelQuery(f=f, eta=1.0, delta=0.25, beta=WeightParam(0.0),
                          budget=2_000_000, seed=3)
        est = estimate_sublevel(q)
        cap, _ = disc_cap_measure(1.0, 0.25, WeightParam(0.0))
        assert est.trusted
        assert abs(est.volume - cap) < 3 * est.stderr

    def test_small_delta_relative_error(self):
        q = SublevelQuery(f=product_symbol(2), eta=1.0, delta=2.0**-6,
                          beta=WeightParam(0.0), budget=10_000_000, seed=5)
        est = estimate_sublevel(q)
        assert est.trusted
        assert est.volume > 0
        assert est.stderr / est.volume <= 0.05

    def test_budget_doubling_shrinks_stderr(self):
        args = dict(f=product_symbol(2), eta=1.0, delta=2.0**-4,
                    beta=WeightParam(0.0), seed=11)
        e1 = estimate_sublevel(SublevelQuery(budget=1_000_000, **args))
        e2 = estimate_sublevel(SublevelQuery(budget=2_000_000, **args))
        ratio = e1.stderr / e2.stderr
        # scrambled Sobol replicates converge at least at the i.i.d. rate N^-1/2
        assert ratio >= 0.9 * math.sqrt(2.0)

    def test_zero_hits_reports_upper_bound(self):
        # proposal region far away from the sublevel set: no hits, one-sided bound
        wrong = AnnulusArc(depths=(0.01,), arcs=(merge_arcs([(math.pi - 0.2, 0.4)]),))
        est = half_square_estimate(wrong, 0.05, 50_000, seed=2)
        assert not est.trusted
        assert est.hits == 0
        assert est.upper_bound is not None and est.upper_bound > 0

    def test_leakage_flags_untrusted(self):
        # narrow region catches only a sliver of the sublevel set: audit sees the rest
        wrong = AnnulusArc(depths=(1.0,), arcs=(merge_arcs([(-0.05, 0.1)]),))
        est = half_square_estimate(wrong, 0.8, 200_000, seed=4)
        assert not est.trusted
        assert est.hits > 0
        assert "leakage" in est.reason

    def test_split_angle_arcs_change_nothing(self):
        # theta_1 is integrated in closed form, so the region's arcs on it are dropped
        bindings = [(general_symbol(), 1.0, 2.0**-6)]
        region = build_proposal(bindings, 2)
        assert region.arcs[0] is not None and region.arcs[1] is not None
        free = AnnulusArc(depths=region.depths, arcs=(None, region.arcs[1]))
        a, b = (sublevel.estimate_indicator(bindings, 2, WeightParam(0.0), r, 100_000, 5, "s")
                for r in (region, free))
        assert a == b
        assert a.trusted and a.hits > 0

    def test_monotone_in_delta(self):
        fits = []
        for k, delta in enumerate([2.0**-6, 2.0**-5, 2.0**-4]):
            q = SublevelQuery(f=product_symbol(2), eta=1.0, delta=delta,
                              beta=WeightParam(0.0), budget=500_000, seed=21 + k)
            fits.append(estimate_sublevel(q))
        for a, b in zip(fits, fits[1:]):
            assert b.volume >= a.volume - 3 * math.hypot(a.stderr, b.stderr)


class TestFitExponent:
    def test_synthetic_slope_recovery(self):
        xs = [2.0**-k for k in range(4, 9)]
        ys = [0.37 * x**3 for x in xs]
        fit = loglog_wls(xs, ys, [1e-3] * len(xs))
        assert fit.slope == pytest.approx(3.0, abs=1e-6)

    def test_slope_stderr_matches_spread_with_estimated_sigmas(self):
        # log V bends as product3's does (local slopes 4.016 ... 4.001 over
        # 2^-4 ... 2^-9), and each point's sigma is estimated from 64
        # replicates: the slope's spread over repeats must match its stderr
        rng = np.random.default_rng(5)
        xs = np.array([2.0**-k for k in range(4, 10)])
        local = np.array([4.016, 4.007, 4.004, 4.002, 4.001])
        log_v = np.concatenate([[0.0], np.cumsum(local * np.diff(np.log(xs)))])
        sigma = 3e-4
        slopes, stderrs = [], []
        for _ in range(2000):
            ys = np.exp(log_v + sigma * rng.standard_normal(xs.size))
            fit = loglog_wls(xs, ys, sigma * np.sqrt(rng.chisquare(63, xs.size) / 63))
            slopes.append(fit.slope)
            stderrs.append(fit.slope_stderr)
        ratio = np.std(slopes, ddof=1) / np.sqrt(np.mean(np.square(stderrs)))
        assert 0.9 <= ratio <= 1.1

    def test_univariate_slope_two(self):
        fit = fit_exponent(get_symbol("identity1"), 1.0, WeightParam(0.0),
                           delta_grid=[2.0**-k for k in range(4, 10)],
                           budget=1_000_000, seed=7)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_exponent(get_symbol("identity1"), 1.0, WeightParam(0.0),
                         delta_grid=[0.5, 0.25, 0.13, 0.06], budget=1000)
        with pytest.raises(ValueError):
            fit_exponent(get_symbol("identity1"), 1.0, WeightParam(0.0),
                         delta_grid=[0.5, 0.25, 0.125], budget=1000)

    def test_refuses_with_untrusted_points(self, monkeypatch):
        wrong = AnnulusArc(depths=(0.001,), arcs=(merge_arcs([(math.pi, 0.1)]),))
        monkeypatch.setattr(sublevel, "build_proposal", lambda bindings, n: wrong)
        with pytest.raises(FitRefused):
            fit_exponent(half_square_symbol(), 1.0, WeightParam(0.0),
                         delta_grid=[2.0**-k for k in range(4, 8)],
                         budget=10_000, seed=9)

    def test_refuses_structurally_empty_grid(self):
        # every point is an exact, trusted zero: |0.5 z1 z2 - 1| >= 0.5 > delta
        with pytest.raises(FitRefused):
            fit_exponent(PolySymbol.monomial(2, (1, 1), 0.5), 1.0, WeightParam(0.0),
                         budget=1000)

    def test_csv_rows_shape(self):
        fit = fit_exponent(get_symbol("identity1"), 1.0, WeightParam(0.0),
                           delta_grid=[2.0**-k for k in range(4, 8)],
                           budget=200_000, seed=13)
        header, rows = fit.csv_rows()
        assert header == ["delta", "estimate", "stderr", "hits", "region_mass", "trusted"]
        assert len(rows) == 4

    def test_every_point_shares_the_seed(self):
        # one seed, and so one stream label, for the whole grid; the replicates
        # reach no CSV column
        deltas = [2.0**-k for k in range(4, 8)]
        fit = fit_exponent(product_symbol(2), 1.0, WeightParam(0.0), delta_grid=deltas,
                           budget=8192, seed=17)
        for delta, point in zip(deltas, fit.points):
            alone = estimate_sublevel(SublevelQuery(product_symbol(2), 1.0, delta,
                                                    WeightParam(0.0), 8192, seed=17))
            assert point == alone and point.replicates == alone.replicates
            assert len(point.replicates) == replicate_layout(8192)[0]
        bare = dataclasses.replace(fit, points=tuple(dataclasses.replace(p, replicates=())
                                                     for p in fit.points))
        assert bare.csv_rows() == fit.csv_rows()
        assert not any("replicate" in column for column in fit.csv_rows()[0])

    def test_shared_replicate_error_cancels_in_the_slope(self):
        # replicate r off by the same factor at every point moves each log y
        # alike, so the slope's replicate part is 0 and the rest is all
        xs = [2.0**-k for k in range(4, 9)]
        ys = [0.37 * x**3 for x in xs]
        factors = 1.0 + 1e-3 * np.random.default_rng(3).standard_normal(64)
        shared = [tuple(y * factors / factors.mean()) for y in ys]
        rest = [1e-6] * len(xs)
        assert loglog_wls(xs, ys, rest, shared).slope_stderr == pytest.approx(
            loglog_wls(xs, ys, rest).slope_stderr, rel=1e-6)
        # independent replicates give the independent rule's size
        rng = np.random.default_rng(4)
        alone = [tuple(y * (1.0 + 1e-3 * rng.standard_normal(64))) for y in ys]
        rel = [float(np.std(m, ddof=1) / np.sqrt(64) / y) for m, y in zip(alone, ys)]
        assert loglog_wls(xs, ys, [0.0] * len(xs), alone).slope_stderr == pytest.approx(
            loglog_wls(xs, ys, rel).slope_stderr, rel=0.3)


# every monomial of degree <= 2 in two variables
BIDISC_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def agree(est, volume, stderr):
    return abs(est.volume - volume) <= 4.0 * math.hypot(est.stderr, stderr) + 1e-12


class TestConditionalEstimator:
    """The integrated-angle estimate against independent values."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(weights=st.lists(st.integers(0, 4), min_size=6, max_size=6).filter(any),
           k=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    def test_bidisc_maps_agree_with_uniform_oracle(self, weights, k, seed):
        # c >= 0 with sum 1 makes f a self-map that reaches 1 at (1, 1)
        total = sum(weights)
        entries = [(a, w / total) for a, w in zip(BIDISC_MONOMIALS, weights) if w]
        f = PolySymbol.from_tables([entries], 2)
        est = estimate_sublevel(SublevelQuery(f=f, eta=1.0, delta=2.0**-k,
                                              beta=WeightParam(0.0), budget=200_000,
                                              seed=seed))
        volume, stderr = uniform_joint_volume([(entries, 1.0, 2.0**-k)], 2, 0.0, 1_000_000, seed)
        assert agree(est, volume, stderr), (entries, est, volume, stderr)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(powers=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           weights=st.lists(st.integers(1, 8), min_size=3, max_size=3),
           alpha=st.floats(0.0, 2.0 * math.pi), delta=st.floats(0.1, 0.3),
           seed=st.integers(0, 2**16))
    def test_separable_maps_agree_with_uniform_oracle(self, powers, weights, alpha, delta, seed):
        # the deficit simplex, with the split radius drawn on the binding's arc
        n = len(powers)
        total = sum(weights[:n])
        entries = [(tuple(m if k == j else 0 for k in range(n)), w / total)
                   for j, (m, w) in enumerate(zip(powers, weights))]
        f = PolySymbol.from_tables([entries], n)
        eta = complex(math.cos(alpha), math.sin(alpha))
        est = estimate_sublevel(SublevelQuery(f=f, eta=eta, delta=delta, beta=WeightParam(0.0),
                                              budget=200_000, seed=seed))
        volume, stderr = uniform_joint_volume([(entries, eta, delta)], n, 0.0, 1_000_000, seed)
        assert est.trusted and est.leakage == 0.0
        assert agree(est, volume, stderr), (entries, eta, est, volume, stderr)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_identity1_matches_disc_cap(self, beta):
        # the estimate is the cap integral itself: check it against scipy quad
        delta = 2.0**-3
        est = estimate_sublevel(SublevelQuery(f=get_symbol("identity1"), eta=1.0, delta=delta,
                                              beta=WeightParam(beta), budget=500_000, seed=17))
        assert est.trusted
        assert agree(est, radial_cap_weight(1.0, 1.0, delta, 1, beta), 0.0)

    def test_identity2_box_ratio_is_one(self):
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (2.0**-4, 2.0**-4))
        est = preimage_box_ratio(get_symbol("identity2"), box, WeightParam(0.0), 500_000, seed=19)
        assert est.trusted
        assert abs(est.ratio - 1.0) <= 4.0 * est.stderr

    def test_symbol_without_split_coordinate_uses_indicator(self):
        # z1 and z2 each appear with exponents 1 and 2: no angle integrates out
        entries = [((1, 0), 0.25), ((2, 0), 0.25), ((0, 1), 0.25), ((0, 2), 0.25)]
        f = PolySymbol.from_tables([entries], 2)
        bindings = [(f, 1.0, 0.25)]
        region = build_proposal(bindings, 2)
        match, drawn = sublevel._split_coordinate(bindings, region)
        assert match == sublevel._Matching(None, (), tuple(bindings)) and drawn is region
        est = estimate_sublevel(SublevelQuery(f=f, eta=1.0, delta=0.25, beta=WeightParam(0.0),
                                              budget=200_000, seed=23))
        volume, stderr = uniform_joint_volume([(entries, 1.0, 0.25)], 2, 0.0, 1_000_000, 23)
        assert est.trusted
        assert agree(est, volume, stderr)

    def test_repeated_bindings_merge(self):
        f = get_symbol("product3")
        merged = sublevel._merge_bindings([(f, 1.0, 0.1), (f, 1.0, 0.05), (f, 1j, 0.2)])
        assert merged == [(f, 1.0, 0.05), (f, 1j, 0.2)]


def coupled_entries(m, weights):
    """A bidisc binding with c >= 0 summing to 1 that contains z1 with exponent m alone."""
    total = sum(weights)
    monomials = ((m, 0), (m, 1), (0, 1), (0, 2))
    return [(a, w / total) for a, w in zip(monomials, weights) if w]


# an exponent of z1 and four weights, at least one of them on a term with z1
COUPLED_BINDING = st.tuples(st.sampled_from([1, 2]),
                            st.lists(st.integers(0, 3), min_size=4, max_size=4)
                            .filter(lambda w: w[0] or w[1]))


class TestCoupledBindings:
    """Bindings that share the split coordinate: theta_j's weight is an arc-set intersection."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(first=COUPLED_BINDING, second=COUPLED_BINDING,
           deltas=st.tuples(st.floats(0.05, 0.3), st.floats(0.05, 0.3)),
           beta=st.sampled_from([0.0, -0.5]), seed=st.integers(0, 2**16))
    def test_pairs_agree_with_uniform_oracle(self, first, second, deltas, beta, seed):
        entries = [coupled_entries(*first), coupled_entries(*second)]
        bindings = [(PolySymbol.from_tables([e], 2), 1.0, d) for e, d in zip(entries, deltas)]
        region = build_proposal(bindings, 2)
        match, drawn = sublevel._split_coordinate(bindings, region)
        (j, parts), picks = match.angle, match.picks
        assert j == 0 and [m for _, m, _, _ in parts] == [first[0], second[0]] and picks == ()
        assert drawn.fixed == 0 and match.others == ()
        est = sublevel.estimate_indicator(bindings, 2, WeightParam(beta), region, 200_000, seed,
                                          "coupled")
        volume, stderr = uniform_joint_volume(list(zip(entries, (1.0, 1.0), deltas)), 2, beta,
                                              1_000_000, seed)
        assert agree(est, volume, stderr), (entries, deltas, beta, est, volume, stderr)

    @pytest.mark.parametrize("delta", [0.1, 0.2])
    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_fiber_and_single_term_arcs_meet(self, delta, beta):
        # general2's box at (1, 1): (z1 + z2 + z1 z2)/3 puts fiber arcs of
        # half-width K sqrt(delta) on theta_2, the z2 binding arcs of K/2 delta
        # there; the region keeps the latter, their intersection
        general = [((1, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 1), 1 / 3)]
        tables = [general, [((0, 1), 1.0)]]
        bindings = [(PolySymbol.from_tables([t], 2), 1.0, delta) for t in tables]
        region = build_proposal(bindings, 2)
        fiber, single = (build_proposal([b], 2) for b in bindings)
        assert region.arcs[0] == fiber.arcs[0]
        (arc,) = region.arcs[1]
        assert arc == pytest.approx(single.arcs[1][0], abs=1e-15)
        assert fiber.arcs[1][0][1] > 2.0 * arc[1]
        est = sublevel.estimate_indicator(bindings, 2, WeightParam(beta), region, 200_000, 43,
                                          "fiber-single")
        volume, stderr = uniform_joint_volume([(t, 1.0, delta) for t in tables], 2, beta,
                                              1_000_000, 43)
        assert est.trusted and est.hits > 0
        assert agree(est, volume, stderr), (est, volume, stderr)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_pair_without_split_coordinate_uses_indicator(self, beta):
        # the second binding holds z1 and z2 each with exponents 1 and 2
        entries = [[((1, 0), 0.5), ((0, 1), 0.5)],
                   [((1, 0), 0.25), ((2, 0), 0.25), ((0, 1), 0.25), ((0, 2), 0.25)]]
        bindings = [(PolySymbol.from_tables([e], 2), 1.0, 0.2) for e in entries]
        region = build_proposal(bindings, 2)
        match, drawn = sublevel._split_coordinate(bindings, region)
        assert match == sublevel._Matching(None, (), tuple(bindings)) and drawn is region
        est = sublevel.estimate_indicator(bindings, 2, WeightParam(beta), region, 200_000, 37,
                                          "no-split")
        volume, stderr = uniform_joint_volume([(e, 1.0, 0.2) for e in entries], 2, beta,
                                              1_000_000, 37)
        assert est.hits > 0
        assert agree(est, volume, stderr), (est, volume, stderr)


# z1 alone with exponent m, and z2 beside it: the z1^m z2 term always (so no simplex)
CAPPED_BINDING = st.tuples(st.sampled_from([1, 2]),
                           st.lists(st.integers(0, 3), min_size=4, max_size=4)
                           .filter(lambda w: w[1]))

# z2's own binding: an exponent, the weight on 1 and the weight on z2^m
OWN_TERM = st.tuples(st.sampled_from([1, 2, 3]), st.integers(0, 2), st.integers(1, 3))


class TestCappedBindings:
    """A drawn coordinate with its own single-term binding is drawn from that binding's cap."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(shared=CAPPED_BINDING, own=OWN_TERM,
           deltas=st.tuples(st.floats(0.05, 0.3), st.floats(0.05, 0.3)),
           beta=st.sampled_from([0.0, -0.5]), seed=st.integers(0, 2**16))
    def test_pairs_agree_with_uniform_oracle(self, shared, own, deltas, beta, seed):
        # the first binding holds z1 alone and z2 besides; the second is
        # w0 + w1 z2^m: z1 is picked and z2 comes from the second's cap
        m, w0, w1 = own
        entries = [coupled_entries(*shared),
                   [(a, w / (w0 + w1)) for a, w in (((0, 0), w0), ((0, m), w1)) if w]]
        bindings = [(PolySymbol.from_tables([e], 2), 1.0, d) for e, d in zip(entries, deltas)]
        region = build_proposal(bindings, 2)
        match, drawn = sublevel._split_coordinate(bindings, region)
        assert match.angle is None and [(k, index) for k, index, *_ in match.picks] == [(0, 0)]
        assert [(cap.coord, cap.power) for cap in drawn.caps] == [(1, m)] and match.others == ()
        est = sublevel.estimate_indicator(bindings, 2, WeightParam(beta), region, 200_000, seed,
                                          "capped")
        volume, stderr = uniform_joint_volume(list(zip(entries, (1.0, 1.0), deltas)), 2, beta,
                                              1_000_000, seed)
        assert est.trusted and est.leakage == 0.0 and est.region_mass == 1.0
        assert agree(est, volume, stderr), (entries, deltas, beta, est, volume, stderr)


def own_entries(j, n, m, weights):
    """A binding with c >= 0 summing to 1 that holds z_j alone, with exponent m.

    The weights go to 1, z_j^m and, on the tridisc, z_3 and z_j^m z_3, which
    the other binding may hold too.
    """
    unit = tuple(m if k == j else 0 for k in range(n))
    monomials = [(0,) * n, unit]
    if n == 3:
        monomials += [(0, 0, 1), unit[:2] + (1,)]
    pairs = [(a, w) for a, w in zip(monomials, weights) if w]
    total = sum(w for _, w in pairs)
    return [(a, w / total) for a, w in pairs]


# an exponent and four weights, one of them on the binding's own coordinate alone
OWN_BINDING = st.tuples(st.sampled_from([1, 2]),
                        st.lists(st.integers(0, 3), min_size=4, max_size=4)
                        .filter(lambda w: w[1]))

# an indicator on the tridisc's shared coordinate z_3, which holds it with two exponents
SHARED_INDICATOR = [((0, 0, 1), 0.5), ((0, 0, 2), 0.5)]


class TestMatchedBindings:
    """Bindings that each hold their own coordinate: both are integrated, their weights multiply."""

    ORACLE_DRAWS = 1_000_000

    def check(self, entries, tolerances, n, beta, seed):
        """The estimate against the uniform oracle; returns it and the matching."""
        bindings = [(PolySymbol.from_tables([e], n), 1.0, d) for e, d in zip(entries, tolerances)]
        region = build_proposal(bindings, n)
        match, drawn = sublevel._split_coordinate(bindings, region)
        # z1 keeps a drawn radius in the first binding's simplex and is picked
        # otherwise; z2 is picked unless the second binding's simplex holds it
        fixed = 0 if 0 in region.inner else None
        picks = [(k, k) for k in (0, 1) if k not in region.inner]
        assert [(k, index) for k, index, *_ in match.picks] == picks
        assert drawn.fixed == fixed
        est = sublevel.estimate_indicator(bindings, n, WeightParam(beta), region, 200_000, seed,
                                          "matched")
        volume, stderr = uniform_joint_volume([(e, 1.0, d) for e, d in zip(entries, tolerances)],
                                              n, beta, self.ORACLE_DRAWS, seed)
        assert est.trusted
        assert agree(est, volume, stderr), (entries, tolerances, beta, est, volume, stderr)
        return est, region

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(first=OWN_BINDING, second=OWN_BINDING,
           deltas=st.tuples(st.floats(0.05, 0.3), st.floats(0.05, 0.3)),
           beta=st.sampled_from([0.0, -0.5]), seed=st.integers(0, 2**16))
    def test_bidisc_sets_are_exact(self, first, second, deltas, beta, seed):
        # a and b are constants: nothing is drawn, and the volume is the
        # product of two cap weights, exact to the stated bound
        entries = [own_entries(0, 2, *first), own_entries(1, 2, *second)]
        est, _ = self.check(entries, deltas, 2, beta, seed)
        assert est.region_mass == 1.0  # the whole bidisc
        exact = math.prod(
            radial_cap_weight(sum(c for a, c in e if a[j]).real,
                              1.0 - sum(c for a, c in e if not a[j]).real, d, m, beta)
            for j, e, d, m in zip((0, 1), entries, deltas, (first[0], second[0])))
        assert abs(est.volume - exact) <= est.stderr + 1e-13 * exact, (est, exact)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(first=OWN_BINDING, second=OWN_BINDING,
           deltas=st.tuples(st.floats(0.05, 0.3), st.floats(0.05, 0.3)),
           indicator=st.one_of(st.none(), st.floats(0.5, 1.0)),
           beta=st.sampled_from([0.0, -0.5]), seed=st.integers(0, 2**16))
    def test_tridisc_sets_agree_with_uniform_oracle(self, first, second, deltas, indicator, beta,
                                                    seed):
        # both bindings may hold z3, which is drawn; the indicator holds it alone
        entries = [own_entries(0, 3, *first), own_entries(1, 3, *second)]
        tolerances = list(deltas)
        if indicator is not None:
            entries.append(SHARED_INDICATOR)
            tolerances.append(indicator)
        self.check(entries, tolerances, 3, beta, seed)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_simplex_split_and_indicator(self, beta):
        # (z1 + z3)/2 and (z2 + z3)/2: z1 is the split, drawn last in the first
        # binding's simplex, z2 is picked and z3 drawn; the indicator on z3
        # halves the volume or more, which the oracle resolves (> 200 hits)
        entries = [own_entries(0, 3, 1, (0, 1, 1, 0)), own_entries(1, 3, 1, (0, 1, 1, 0)),
                   SHARED_INDICATOR]
        est, region = self.check(entries, (0.3, 0.25, 0.3), 3, beta, 53)
        assert region.inner == (0, 2) and est.hits > 0


class TestArcSetIntersection:
    """Arc-set intersection lengths against a brute-force grid of 10^5 angles."""

    GRID = 100_000

    def brute(self, arcs):
        theta = (np.arange(self.GRID) + 0.5) * (2.0 * math.pi / self.GRID)
        inside = np.ones(self.GRID, dtype=bool)
        for m, phase, h in arcs:
            inside &= np.abs((m * theta - phase + math.pi) % (2.0 * math.pi) - math.pi) <= h
        return np.count_nonzero(inside) * (2.0 * math.pi / self.GRID)

    def check(self, powers, phases, halves):
        arcs = [(m, np.asarray(p, dtype=float), np.asarray(h, dtype=float))
                for m, p, h in zip(powers, phases, halves)]
        got = sublevel._arc_set_intersection(arcs)
        # each set has 2m arc ends, each misplaced by at most one grid cell
        tol = 2 * sum(powers) * (2.0 * math.pi / self.GRID) + 1e-12
        for row in range(len(got)):
            want = self.brute([(m, p[row], h[row]) for m, p, h in arcs])
            assert abs(got[row] - want) <= tol, (powers, row, got[row], want)

    @pytest.mark.parametrize("sets", [1, 2, 3])
    def test_random_sets(self, sets):
        rng = np.random.default_rng(sets)
        for _ in range(4):
            powers = rng.integers(1, 4, size=sets).tolist()
            self.check(powers, rng.uniform(-4 * math.pi, 4 * math.pi, (sets, 8)),
                       rng.uniform(0.0, math.pi, (sets, 8)))

    def test_empty_full_and_wrapping_arcs(self):
        pi = math.pi
        # rows: an empty first set, a full second set, both full, arcs across +-pi
        # (centred at pi, at -pi + 0.1 and at 3 pi), and one set inside the other
        phases = [[0.0, 0.3, 1.0, pi, pi - 0.05, 0.2],
                  [1.0, -2.0, 2.0, -pi + 0.1, 3.0 * pi, 0.25]]
        halves = [[0.0, 0.7, pi, 0.5, 0.4, 1.0],
                  [0.5, pi, pi, 0.6, 0.3, 0.1]]
        for powers in ([1, 1], [1, 2], [2, 3]):
            self.check(powers, phases, halves)
        single = sublevel._arc_set_intersection([(3, np.array([2.0, -1.0]), np.array([0.0, pi]))])
        assert single.tolist() == pytest.approx([0.0, 2.0 * pi], abs=1e-12)


class TestReplicates:
    """R scrambled Sobol replicates of 2^k points: the layout and the stated interval."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(budget=st.one_of(st.integers(16, 4096), st.integers(16, 2**40)))
    def test_layout_fits_budget(self, budget):
        replicates, size = replicate_layout(budget)
        assert replicates * size <= budget
        assert replicates >= 16
        assert size & (size - 1) == 0
        if budget >= 64:
            assert 64 <= replicates <= 127
        else:
            assert (replicates, size) == (budget, 1)

    def test_zero_support_bound_counts_draws_made(self):
        # 50,000 gives 97 replicates of 512: the bound uses the 49,664 draws
        wrong = AnnulusArc(depths=(0.01,), arcs=(merge_arcs([(math.pi - 0.2, 0.4)]),))
        est = half_square_estimate(wrong, 0.05, 50_000, seed=2)
        assert replicate_layout(50_000) == (97, 512)
        assert est.hits == 0
        expected = sublevel.ZERO_HIT_FACTOR / 49_664 * est.region_mass + est.leakage
        assert est.upper_bound == pytest.approx(expected, rel=1e-12)

    # The coverage cases below are four: two fit cells and two box cells.
    # Each covers with 95 % odds per seed if the stated interval is
    # calibrated, so the number covered is Binomial(60, 0.95); requiring at
    # least COVERED_MIN makes a calibrated estimator fail any of the four
    # with odds below 1e-3 in all.
    COVERAGE_CASES = 4
    COVERED_MIN = int(stats.binom.ppf(1e-3 / COVERAGE_CASES, 60, 0.95))

    def test_coverage_rule_has_stated_odds(self):
        fail_one = stats.binom.cdf(self.COVERED_MIN - 1, 60, 0.95)
        assert self.COVERAGE_CASES * fail_one <= 1e-3
        assert stats.binom.cdf(self.COVERED_MIN, 60, 0.95) > 1e-3 / self.COVERAGE_CASES

    @pytest.mark.parametrize("kind, beta", [("identity2_box", 0.0), ("identity2_box", -0.5),
                                            ("identity1_cap", 0.0), ("identity1_cap", -0.5)])
    def test_t_interval_covers_known_value(self, kind, beta):
        # nothing random is left: every coordinate's radius and angle are
        # integrated, so the estimate is a quadrature whose stderr is its
        # stated error bound; the reference is 100x tighter than that
        budget, weight = 16_384, WeightParam(beta)
        if kind == "identity2_box":
            box = CarlesonBox(TorusPoint((0.3, -1.0)), (0.25, 0.125))
            est = preimage_box_ratio(get_symbol("identity2"), box, weight, budget, seed=0)
            value, exact, exact_tol = est.ratio, 1.0, 2e-16  # the numerator is the denominator
        else:
            est = estimate_sublevel(SublevelQuery(get_symbol("identity1"), 1.0, 0.125,
                                                  weight, budget, seed=0))
            value = est.volume
            if beta == 0.0:  # closed form: a few rounding errors on terms near 0.1
                exact, exact_tol = unit_disc_cap_area(0.125), 2e-15
            else:
                exact, exact_tol = radial_cap_weight(1.0, 1.0, 0.125, 1, beta, epsrel=2e-14), 2e-14
        assert est.trusted and est.stderr > 0
        assert est.stderr >= 100 * exact_tol * exact
        assert abs(value - exact) <= est.stderr

    @staticmethod
    def covered_count(estimate, value):
        """Seeds 0..59 at 16,384 draws whose 95 % Student t interval covers a 2^22-draw reference."""
        reference = estimate(2**22, 1000)
        replicates, _ = replicate_layout(16_384)
        q = stats.t.ppf(0.975, replicates - 1)
        covered = 0
        for seed in range(60):
            est = estimate(16_384, seed)
            assert est.trusted and reference.stderr < 0.1 * est.stderr
            covered += abs(value(est) - value(reference)) <= q * est.stderr
        return covered

    @pytest.mark.parametrize("name", ["product3", "powersum2"])
    def test_t_interval_covers_reference_on_fit_cell(self, name):
        # one cell of the exponent fits (delta = 2^-6), against one estimate
        # with a far smaller stderr
        def estimate(budget, seed):
            return estimate_sublevel(SublevelQuery(get_symbol(name), 1.0, 2.0**-6,
                                                   WeightParam(0.0), budget, seed=seed))

        assert self.covered_count(estimate, lambda est: est.volume) >= self.COVERED_MIN

    @pytest.mark.parametrize("name", ["mean_product", "general2"])
    def test_t_interval_covers_reference_on_box(self, name):
        # one box of a scan (delta = 2^-4 at (1, 1)): mean_product's coupled
        # split draws its radius, general2's z2 lies in both bindings
        general2 = [[((1, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 1), 1 / 3)], [((0, 1), 1.0)]]
        sym = PolySymbol.from_tables(general2, 2) if name == "general2" else get_symbol(name)
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (2.0**-4, 2.0**-4))

        def estimate(budget, seed):
            return preimage_box_ratio(sym, box, WeightParam(0.0), budget, seed=seed)

        assert self.covered_count(estimate, lambda est: est.ratio) >= self.COVERED_MIN


class TestSlopeCoverage:
    """The slope's t-interval from one stream per grid covers the exact grid slope.

    Each case covers with 95 % odds per seed if the stated interval is
    calibrated, so the number covered is Binomial(60, 0.95); requiring at
    least SLOPE_COVERED_MIN makes a calibrated fit fail either case with
    odds below 1e-3 in all.
    """

    SLOPE_COVERAGE_CASES = 2
    SLOPE_COVERED_MIN = int(stats.binom.ppf(1e-3 / SLOPE_COVERAGE_CASES, 60, 0.95))
    GRID = tuple(2.0**-k for k in range(4, 10))

    def test_coverage_rule_has_stated_odds(self):
        fail_one = stats.binom.cdf(self.SLOPE_COVERED_MIN - 1, 60, 0.95)
        assert self.SLOPE_COVERAGE_CASES * fail_one <= 1e-3
        assert stats.binom.cdf(self.SLOPE_COVERED_MIN, 60, 0.95) > 1e-3 / self.SLOPE_COVERAGE_CASES

    @pytest.mark.parametrize("name", ["product2", "powersum2"])
    def test_t_interval_covers_exact_grid_slope(self, name):
        # the OLS slope of the exact log volumes is what the fit estimates;
        # the oracles' errors are far below the slope's stderr at 16,384 draws
        volume = (lambda d: product_volume(2, d)) if name == "product2" else powersum2_volume
        exact = loglog_wls(self.GRID, [volume(d) for d in self.GRID], [0.0] * len(self.GRID))
        replicates, _ = replicate_layout(16_384)
        q = stats.t.ppf(0.975, replicates - 1)
        covered = 0
        for seed in range(60):
            fit = fit_exponent(get_symbol(name), 1.0, WeightParam(0.0), delta_grid=self.GRID,
                               budget=16_384, seed=seed)
            assert all(p.trusted for p in fit.points) and fit.slope_stderr > 0
            covered += abs(fit.slope - exact.slope) <= q * fit.slope_stderr
        assert covered >= self.SLOPE_COVERED_MIN


class TestExactMonomialOracle:
    """Products against their exact volumes, at every delta of the fit grid."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_product_matches_exact_volume(self, n):
        # (estimate - exact)/stderr is Student t on R - 1 = 63 degrees of
        # freedom: |t| > 4 has odds 1.7e-4 per point, so some point of the
        # twelve (both symbols, six deltas) fails with odds below 2.5e-3
        budget = 1 << 20
        replicates, _ = replicate_layout(budget)
        assert 12 * 2 * stats.t.sf(4.0, replicates - 1) < 2.5e-3
        for k in range(4, 10):
            est = estimate_sublevel(SublevelQuery(product_symbol(n), 1.0, 2.0**-k,
                                                  WeightParam(0.0), budget, seed=4001 + k))
            exact = product_volume(n, 2.0**-k)
            assert est.trusted
            assert abs(est.volume - exact) <= 4.0 * est.stderr, (k, est, exact)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("beta", [1.0, -0.5])
    def test_weighted_product2_matches_exact_volume(self, beta):
        # criterion 1's weighted product2 fits, against the nested-quadrature
        # oracle, whose n = 1 case is the cap integral; |t| > 4 has odds
        # 1.7e-4 per point on 63 degrees of freedom, so some point of the six
        # fails with odds below 1.1e-3
        assert product_volume(1, 2.0**-5, beta) == pytest.approx(
            radial_cap_weight(1.0, 1.0, 2.0**-5, 1, beta), rel=1e-12)
        budget = 1 << 16
        replicates, _ = replicate_layout(budget)
        assert 6 * 2 * stats.t.sf(4.0, replicates - 1) < 1.1e-3
        for k in range(4, 10):
            est = estimate_sublevel(SublevelQuery(product_symbol(2), 1.0, 2.0**-k,
                                                  WeightParam(beta), budget, seed=4101 + k))
            exact = product_volume(2, 2.0**-k, beta, epsrel=1e-12)
            assert est.trusted
            assert abs(est.volume - exact) <= 4.0 * est.stderr, (k, est, exact)


class TestExactPowerSumOracle:
    """powersum2 at beta = 0 against its exact volume, at every delta of the fit grid."""

    def test_oracle_weight_is_radial_cap_weight(self):
        delta = 2.0**-6
        for u in (0.5 + 0.1 * delta, 0.5 + 0.5 * delta, 0.5 + 0.99 * delta):
            assert half_square_weight(u, delta) == pytest.approx(
                radial_cap_weight(0.5, u, delta, 2, 0.0), rel=1e-11)

    def test_powersum2_matches_exact_volume(self):
        # (estimate - exact)/stderr is Student t on R - 1 = 121 degrees of
        # freedom: |t| > 4 has odds 1.1e-4 per point, so some point of the six
        # fails with odds below 7e-4; 2M draws give relative stderrs ~1e-5
        budget = 2_000_000
        replicates, _ = replicate_layout(budget)
        assert 6 * 2 * stats.t.sf(4.0, replicates - 1) < 7e-4
        for k in range(4, 10):
            est = estimate_sublevel(SublevelQuery(power_sum_symbol(2), 1.0, 2.0**-k,
                                                  WeightParam(0.0), budget, seed=5001 + k))
            exact = powersum2_volume(2.0**-k)
            assert est.trusted and est.leakage == 0.0
            assert est.stderr <= 2e-5 * exact
            assert abs(est.volume - exact) <= 4.0 * est.stderr, (k, est, exact)


class TestPowerSum4:
    """n = 4 of the power-sum law n(beta + 1) + (n + 1)/2, past the battery's n <= 3."""

    def test_slope_follows_law(self):
        fit = fit_exponent(power_sum_symbol(4), 1.0, WeightParam(0.0),
                           delta_grid=[2.0**-k for k in range(4, 9)], budget=1 << 18, seed=41)
        assert all(p.trusted for p in fit.points)
        assert abs(fit.slope - 6.5) <= 0.2, fit.slope


class TestIntegratedRadius:
    """A split coordinate in no other binding: radius and angle integrated, no column drawn."""

    def test_identity1_draws_nothing(self, monkeypatch):
        def no_engine(*args, **kwargs):
            raise AssertionError("a zero-dimensional estimate called the Sobol engine")

        monkeypatch.setattr(measure, "sobol_points", no_engine)
        est = estimate_sublevel(SublevelQuery(get_symbol("identity1"), 1.0, 0.25,
                                              WeightParam(-0.5), 10_000))
        assert est.trusted and est.hits == replicate_layout(10_000)[0] * replicate_layout(10_000)[1]
        # the weight is a quadrature: its stated error is the whole stderr, never 0
        assert 0.0 < est.stderr < 1e-6 * est.volume

    @staticmethod
    def sobol_dims(monkeypatch):
        """The dimensions the Sobol engine is called with, from here on."""
        dims = []
        real = measure.sobol_points

        def recorder(rng, dim, count):
            dims.append(dim)
            return real(rng, dim, count)

        monkeypatch.setattr(measure, "sobol_points", recorder)
        return dims

    def test_product_drops_split_coordinate_columns(self, monkeypatch):
        dims = self.sobol_dims(monkeypatch)
        estimate_sublevel(SublevelQuery(product_symbol(3), 1.0, 2.0**-5, WeightParam(0.0), 4096))
        assert set(dims) == {4}  # 2n - 2: the radii and angles of z_2 and z_3

    @pytest.mark.parametrize("delta", [0.1, 0.2])
    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_constant_pick_beside_drawn_coordinates(self, delta, beta):
        # z1's binding has constant a and b, z2's has b = z3, and z3 is drawn:
        # the constant pick's weight is the same in every row of a drawing estimate
        z1 = PolySymbol.monomial(3, (1, 0, 0))
        z2z3 = PolySymbol.monomial(3, (0, 1, 1))
        bindings = [(z1, 1.0, delta), (z2z3, 1.0, delta)]
        region = build_proposal(bindings, 3)
        _, drawn = sublevel._split_coordinate(bindings, region)
        assert drawn.fixed is None and drawn.integrated == (0, 1)
        est = sublevel.estimate_indicator(bindings, 3, WeightParam(beta), region, 1 << 16, 5,
                                          "constant pick")
        exact = disc_cap_measure(1.0, delta, WeightParam(beta))[0] * product_volume(2, delta, beta)
        assert est.trusted
        assert abs(est.volume - exact) <= 4.0 * est.stderr, (est, exact)

    def test_coupled_split_keeps_its_radius(self, monkeypatch):
        # mean_product's z1 z2 binding contains the split coordinate z1 too
        dims = self.sobol_dims(monkeypatch)
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.125, 0.125))
        preimage_box_ratio(get_symbol("mean_product"), box, WeightParam(0.0), 4096)
        assert set(dims) == {3}  # 2n - 1: z_1's radius is drawn


class TestBundles:
    """Bundling replicates into one worker call changes no float of an estimate."""

    @pytest.mark.parametrize("bundle", [1, 5])
    def test_estimate_independent_of_bundle(self, monkeypatch, bundle):
        # mean_product's second binding contains the split coordinate, so the
        # weight of its angle is an arc-set intersection; product2's is one arc
        def run():
            box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.125, 0.125))
            ratio = preimage_box_ratio(get_symbol("mean_product"), box, WeightParam(0.0),
                                       50_000, seed=4, threads=2)
            query = SublevelQuery(get_symbol("product2"), 1.0, 2.0**-5, WeightParam(0.0),
                                  50_000, seed=4, threads=2)
            return ratio.numerator, estimate_sublevel(query)

        expected = run()
        monkeypatch.setattr(sublevel, "replicate_bundle", lambda size: bundle)
        assert run() == expected


class TestThreadDeterminism:
    """2.5M draws make 76 replicates; their means reduce in batch order."""

    @pytest.mark.parametrize("run", [
        lambda t: fit_exponent(get_symbol("product2"), 1.0, WeightParam(0.0),
                               delta_grid=[2.0**-k for k in range(4, 8)],
                               budget=2_500_000, seed=29, threads=t),
        lambda t: ratio_growth_scan(get_symbol("mean_product"), TorusPoint((0.0, 0.0)),
                                    (1, 1), WeightParam(0.0), [2.0**-k for k in range(3, 7)],
                                    2_500_000, seed=31, threads=t),
    ], ids=["product2_fit", "mean_product_scan"])
    def test_csv_identical_across_threads(self, run):
        # the slope's stderr reads the replicates, which no CSV carries
        runs = [run(t) for t in (1, 4, 8)]
        texts = [(csv_text(*r.csv_rows()), r.slope, r.slope_stderr) for r in runs]
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_multi_batch_audit_identical_across_threads(self):
        # 999,424 draws give an audit of 99,942 uniform points: two 2^16-point batches
        wrong = AnnulusArc(depths=(1.0,), arcs=(merge_arcs([(-0.05, 0.1)]),))
        one, four = (half_square_estimate(wrong, 0.8, 1_000_000, seed=4, threads=t)
                     for t in (1, 4))
        assert one == four
        assert one.leakage > 0

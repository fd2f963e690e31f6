import dataclasses
import math

import numpy as np
import pytest

from polycarleson import carleson, sublevel
from polycarleson.battery import get_symbol
from polycarleson.carleson import preimage_box_ratio, ratio_growth_scan
from polycarleson.fitting import loglog_wls
from polycarleson.measure import CarlesonBox, WeightParam, carleson_box_measure, disc_cap_measure
from polycarleson.montecarlo import replicate_layout
from polycarleson.sublevel import SublevelQuery, estimate_sublevel
from polycarleson.symbols import PolySymbol, TorusPoint

from oracles import general2_box_volume, product_volume, radial_cap_weight, unit_disc_cap_area
from test_measure import manifest_betas


def stacked_product(n):
    f = [((1,) * n, 1.0)]
    return PolySymbol.from_tables([f] * (n - 1) + [[]], n)


class TestPreimageRatio:
    def test_identity_ratio_one(self):
        box = CarlesonBox(TorusPoint((0.7, 2.1)), (0.3, 0.2))
        est = preimage_box_ratio(get_symbol("identity2"), box, WeightParam(0.0),
                                 500_000, seed=1)
        assert est.trusted
        assert abs(est.ratio - 1.0) < 3 * est.stderr

    def test_identity_numerator_matches_quadrature(self):
        box = CarlesonBox(TorusPoint((0.0, 1.0)), (0.25, 0.4))
        beta = WeightParam(1.0)
        est = preimage_box_ratio(get_symbol("identity2"), box, beta, 500_000, seed=2)
        target, _ = carleson_box_measure(box, beta)
        assert abs(est.numerator.volume - target) < 3 * est.numerator.stderr

    @pytest.mark.parametrize("beta", manifest_betas())
    def test_identity1_ratio_is_one(self, beta):
        # numerator and denominator are one cap integral: no sampling, no quadrature gap
        for delta in (2.0**-9, 2.0**-5, 0.3, 1.5):
            box = CarlesonBox(TorusPoint((1.3,)), (delta,))
            est = preimage_box_ratio(get_symbol("identity1"), box, WeightParam(beta), 4096, seed=6)
            assert est.trusted
            assert abs(est.ratio - 1.0) <= 1e-14, (delta, est.ratio)

    @pytest.mark.parametrize("beta", manifest_betas())
    @pytest.mark.parametrize("name", ["identity2", "swap2"])
    def test_identity2_ratio_is_one(self, name, beta):
        # each binding pins its own coordinate: the numerator is the product of
        # the denominator's cap integrals, with nothing sampled
        for radii in ((2.0**-9, 0.3), (2.0**-5, 1.5), (0.3, 0.3)):
            box = CarlesonBox(TorusPoint((1.3, -2.0)), radii)
            est = preimage_box_ratio(get_symbol(name), box, WeightParam(beta), 4096, seed=6)
            assert est.trusted and est.numerator.region_mass == 1.0
            assert abs(est.ratio - 1.0) <= 1e-14, (radii, est.ratio)

    @staticmethod
    def one_quadrature(monkeypatch, name, box, beta):
        """The box's estimate at budgets 1, 4096 and 10^7 and two seeds, with no sampler to call.

        Nothing is drawn: the estimate is one quadrature, computed once, so
        its value and stderr are the same bits at every budget and seed, and
        ``hits`` counts the draws it stands for.
        """
        def no_draws(*args, **kwargs):
            raise AssertionError("an estimate with nothing to draw ran the sampler")

        monkeypatch.setattr(sublevel, "run_batches", no_draws)  # the audit's too
        monkeypatch.setattr(sublevel, "restricted_sample", no_draws)
        estimates = []
        for budget in (1, 4096, 10**7):
            replicates, size = replicate_layout(budget)
            for seed in (6, 7):
                est = preimage_box_ratio(get_symbol(name), box, WeightParam(beta), budget, seed)
                assert est.trusted and est.numerator.hits == replicates * size
                estimates.append(est)
        first = estimates[0].numerator
        assert all((e.numerator.volume, e.numerator.stderr) == (first.volume, first.stderr)
                   for e in estimates)
        return estimates[0]

    def test_identity2_stderr_at_any_budget(self, monkeypatch):
        box = CarlesonBox(TorusPoint((1.3, -2.0)), (2.0**-5, 1.5))
        for beta in (0.0, -0.5):
            est = self.one_quadrature(monkeypatch, "identity2", box, beta)
            assert 0.0 < est.stderr < math.inf

    def test_coord_square_box_draws_nothing(self, monkeypatch):
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.125, 0.125))
        est = self.one_quadrature(monkeypatch, "coord_square", box, -0.9)
        # the cap weights' stated bounds are the whole stderr, never 0
        assert 0.0 < est.stderr < 1e-4 * est.ratio

    def test_rotation_preserves_ratio(self):
        alpha = np.exp(0.9j)
        rot = PolySymbol.from_tables([[((1, 0), alpha)], [((0, 1), 1.0)]], 2)
        # box centered at the rotated image of (1, 1)
        box = CarlesonBox(TorusPoint((0.9, 0.0)), (0.25, 0.25))
        est = preimage_box_ratio(rot, box, WeightParam(0.0), 500_000, seed=3)
        assert est.trusted
        assert abs(est.ratio - 1.0) < 3 * est.stderr

    def test_structurally_empty_preimage(self):
        damped = PolySymbol.from_tables([[((1, 1), 1.0)], [((1, 1), 0.5)]], 2)
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.1, 0.1))
        est = preimage_box_ratio(damped, box, WeightParam(0.0), 10_000, seed=4)
        assert est.ratio == 0.0
        assert est.trusted

    def test_disjoint_component_arcs_are_empty_by_structure(self):
        # (z1, z1) near (1, -1): the two bindings' arcs on theta_1 do not meet
        twice = PolySymbol.from_tables([[((1,), 1.0)], [((1,), 1.0)]], 1)
        box = CarlesonBox(TorusPoint((0.0, math.pi)), (0.1, 0.1))
        est = preimage_box_ratio(twice, box, WeightParam(0.0), 10_000, seed=4)
        assert est.ratio == 0.0 and est.stderr == 0.0 and est.trusted
        assert est.numerator.reason == "preimage empty by structure"

    def test_free_coordinate_is_vacuous(self):
        # radius-2 coordinates impose no constraint on the preimage
        sym = stacked_product(3)
        box = CarlesonBox(TorusPoint((0.0, 0.0, 0.0)), (0.1, 0.1, 2.0))
        est = preimage_box_ratio(sym, box, WeightParam(0.0), 2_000_000, seed=5)
        assert est.trusted
        assert est.ratio > 0.0
        # with every radius 2 no binding is left: every draw weighs 1
        box = CarlesonBox(TorusPoint((0.0, 0.0, 0.0)), (2.0, 2.0, 2.0))
        est = preimage_box_ratio(sym, box, WeightParam(0.0), 4096, seed=5)
        assert est.trusted and est.numerator.volume == 1.0 and est.numerator.hits == 4096

    def test_repeated_component_builds_the_tighter_proposal(self, monkeypatch):
        # z1 z2 z3 twice, at radii 0.3 and 0.1: the proposal is the 0.1 binding's alone
        sym = stacked_product(3)
        built = []
        real = carleson.build_proposal

        def spy(bindings, n):
            built.append(bindings)
            return real(bindings, n)

        monkeypatch.setattr(carleson, "build_proposal", spy)
        box = CarlesonBox(TorusPoint((0.0, 0.0, 0.0)), (0.3, 0.1, 2.0))
        preimage_box_ratio(sym, box, WeightParam(0.0), 4096, seed=5)
        (tight,) = built
        assert [(f, tol) for f, _, tol in tight] == [(sym.component(0), 0.1)]
        assert real(tight, 3) == real([(sym.component(1), 1.0, 0.1)], 3)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    @pytest.mark.parametrize("name", ["product2", "powersum2"])
    def test_one_component_box_is_the_sublevel_set(self, name, beta):
        # a one-component box preimage and a sublevel query are one binding
        f, delta, weight = get_symbol(name), 2.0**-5, WeightParam(beta)
        box = CarlesonBox(TorusPoint((0.0,)), (delta,))
        numerator = preimage_box_ratio(f, box, weight, 200_000, seed=3).numerator
        direct = estimate_sublevel(SublevelQuery(f, 1.0, delta, weight, 200_000, seed=3))
        assert numerator.trusted and direct.trusted
        z = (numerator.volume - direct.volume) / math.hypot(numerator.stderr, direct.stderr)
        assert abs(z) <= 4.0


class TestScans:
    def test_identity_scan_flat(self):
        scan = ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                                 (True, True), WeightParam(0.0),
                                 [2.0**-k for k in range(3, 8)], 500_000, seed=6)
        assert abs(scan.slope) <= 0.05

    def test_refuses_short_grid(self, monkeypatch):
        # the grid is checked as fit_exponent checks it, before any estimate runs
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated a box of a refused grid")

        monkeypatch.setattr(carleson, "preimage_box_ratio", no_estimate)
        for grid, message in (([0.25, 0.125, 0.0625], "at least 4 points"),
                              ([0.5, 0.3, 0.1, 0.01], "geometric")):
            with pytest.raises(ValueError, match=message):
                ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                                  (True, True), WeightParam(0.0), grid, 10_000, seed=7)

    def test_csv_rows(self):
        scan = ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                                 (True, True), WeightParam(0.0),
                                 [2.0**-k for k in range(3, 7)], 100_000, seed=8)
        header, rows = scan.csv_rows()
        assert header == ["beta", "delta", "ratio", "stderr", "trusted"]
        assert len(rows) == 4

    def test_every_box_shares_the_seed(self):
        center, weight = TorusPoint((0.0, 0.0)), WeightParam(0.0)
        deltas = [2.0**-k for k in range(3, 7)]
        scan = ratio_growth_scan(get_symbol("mean_product"), center, (True, True), weight,
                                 deltas, 8192, seed=12)
        for delta, est in zip(deltas, scan.estimates):
            box = CarlesonBox(center, (delta, delta))
            alone = preimage_box_ratio(get_symbol("mean_product"), box, weight, 8192, seed=12)
            assert est == alone and est.replicates == alone.replicates
            assert est.replicates and est.replicates == tuple(
                m / est.denominator for m in est.numerator.replicates)
        bare = dataclasses.replace(scan, estimates=tuple(
            dataclasses.replace(e, numerator=dataclasses.replace(e.numerator, replicates=()))
            for e in scan.estimates))
        assert bare.csv_rows() == scan.csv_rows()

    @pytest.mark.parametrize("name, beta", [("identity2", 0.0), ("coord_square", -0.9)])
    def test_quadrature_scan_keeps_the_independent_rule(self, name, beta):
        # boxes that draw nothing keep no replicates: the slope's stderr is
        # sqrt(sum (c_k rel_k)^2) over the point stderrs, as for independent points
        deltas = [2.0**-k for k in range(3, 8)]
        scan = ratio_growth_scan(get_symbol(name), TorusPoint((0.0, 0.0)), (True, True),
                                 WeightParam(beta), deltas, 100_000, seed=5)
        assert all(e.replicates == () for e in scan.estimates)
        xc = np.log(deltas) - np.mean(np.log(deltas))
        rel = np.array([e.stderr / e.ratio for e in scan.estimates])
        assert scan.slope_stderr == float(np.sqrt(np.sum((xc * rel) ** 2)) / np.sum(xc * xc))

    def test_requires_some_shrink(self):
        with pytest.raises(ValueError):
            ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                              (False, False), WeightParam(0.0),
                              [0.5, 0.25, 0.125, 0.0625], 1000)


GENERAL2 = [[((1, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 1), 1 / 3)], [((0, 1), 1.0)]]
GRID_3_7 = tuple(2.0**-k for k in range(3, 8))


class TestGeneral2Boxes:
    """general2's boxes at (1, 1): z1 integrated whole, z2 drawn from its own binding's cap."""

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_boxes_match_exact_volume(self, beta):
        # |t| > 4 has odds 1.7e-4 per box on 63 degrees of freedom: some box of
        # the ten fails with odds below 2e-3
        sym = PolySymbol.from_tables(GENERAL2, 2)
        draws = math.prod(replicate_layout(1 << 18))
        for delta in GRID_3_7:
            box = CarlesonBox(TorusPoint((0.0, 0.0)), (delta, delta))
            est = preimage_box_ratio(sym, box, WeightParam(beta), 1 << 18, seed=71).numerator
            exact = general2_box_volume(delta, beta)
            assert est.trusted and est.leakage == 0.0 and est.hits >= 0.999 * draws
            assert abs(est.volume - exact) <= 4.0 * est.stderr, (delta, est, exact)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_scan_slope_matches_exact_grid_slope(self, beta):
        # the scan's slope is the OLS slope of the log ratios, which the exact
        # grid slope is for the exact ratios
        sym = PolySymbol.from_tables(GENERAL2, 2)
        scan = ratio_growth_scan(sym, TorusPoint((0.0, 0.0)), (1, 1), WeightParam(beta), GRID_3_7,
                                 1 << 18, seed=73)
        caps = [unit_disc_cap_area(d) if beta == 0.0 else radial_cap_weight(1.0, 1.0, d, 1, beta)
                for d in GRID_3_7]
        exact = loglog_wls(GRID_3_7, [general2_box_volume(d, beta) / cap**2
                                      for d, cap in zip(GRID_3_7, caps)], [0.0] * len(caps))
        assert all(e.trusted for e in scan.estimates)
        assert abs(scan.slope - exact.slope) <= 4.0 * scan.slope_stderr, (scan.slope, exact.slope,
                                                                         scan.slope_stderr)


class TestStackedProductBoxes:
    """stacked_product3/4 boxes about 0: one binding |z_1 ... z_n - 1| <= delta over n - 1 caps."""

    @pytest.mark.parametrize("n, seed", [(3, 79), (4, 83)])
    def test_scan_matches_exact_ratios(self, n, seed):
        # a box ratio is product_volume(n, delta) / cap(delta)^(n - 1) at beta = 0.
        # |t| > 4 has odds 1.7e-4 per box on 63 degrees of freedom, and so has
        # the slope's: some check of the twelve fails with odds below 2.1e-3
        scan = ratio_growth_scan(get_symbol(f"stacked_product{n}"), TorusPoint((0.0,) * n),
                                 (True,) * (n - 1) + (False,), WeightParam(0.0), GRID_3_7,
                                 1 << 18, seed=seed)
        exact = [product_volume(n, d) / disc_cap_measure(1.0, d, WeightParam(0.0))[0] ** (n - 1)
                 for d in GRID_3_7]
        for delta, est, ratio in zip(GRID_3_7, scan.estimates, exact):
            assert est.trusted and abs(est.ratio - ratio) <= 4.0 * est.stderr, (delta, est, ratio)
        slope = loglog_wls(GRID_3_7, exact, [0.0] * len(exact)).slope
        assert abs(scan.slope - slope) <= 4.0 * scan.slope_stderr, (scan.slope, slope,
                                                                   scan.slope_stderr)


class TestBetaUniformity:
    def test_identity_uniform(self):
        scans = [ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                                   (True, True), WeightParam(b),
                                   [2.0**-k for k in range(3, 7)], 200_000,
                                   seed=9 + 104729 * i)
                 for i, b in enumerate((-0.9, -0.5, -0.1))]
        assert all(abs(s.slope) < 0.1 for s in scans)
        for scan in scans:
            for est in scan.estimates:
                assert abs(est.ratio - 1.0) < 4 * est.stderr

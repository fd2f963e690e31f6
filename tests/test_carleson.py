import math

import numpy as np
import pytest

from polycarleson import carleson
from polycarleson.battery import get_symbol
from polycarleson.carleson import preimage_box_ratio, ratio_growth_scan
from polycarleson.measure import CarlesonBox, WeightParam, carleson_box_measure
from polycarleson.sublevel import SublevelQuery, estimate_sublevel
from polycarleson.symbols import PolySymbol, TorusPoint

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

    def test_requires_some_shrink(self):
        with pytest.raises(ValueError):
            ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)),
                              (False, False), WeightParam(0.0),
                              [0.5, 0.25, 0.125, 0.0625], 1000)


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

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import qmc

from polycarleson.measure import (
    AngleSumWindow,
    AnnulusArc,
    CarlesonBox,
    DeficitSimplex,
    EmptyRegion,
    TermCap,
    WeightParam,
    _cap_angular_halfwidth,
    _radial_cap_weight,
    carleson_box_measure,
    disc_cap_measure,
    intersect_arcs,
    merge_arcs,
    radial_sample,
    region_contains,
    region_mass,
    region_points,
    restricted_sample,
    sample_dim,
    sample_polydisc,
)
from polycarleson.battery import MANIFEST, FitCase, ScanCase
from polycarleson.montecarlo import (
    SOBOL_BITS,
    _sobol_digits,
    run_batches,
    sobol_points,
    sum_counts,
)
from polycarleson.sublevel import build_proposal
from polycarleson.symbols import PolySymbol, TorusPoint

from oracles import grid_disc_cap, radial_cap_weight, radial_moment


class TestWeightParam:
    def test_valid(self):
        assert WeightParam(0.0).beta == 0.0
        assert WeightParam(-0.9).beta == -0.9

    def test_rejects_at_most_minus_one(self):
        with pytest.raises(ValueError):
            WeightParam(-1.0)

    def test_rejects_near_minus_one(self):
        with pytest.raises(ValueError):
            WeightParam(-0.97)


class TestRadialSample:
    def test_zero(self):
        assert radial_sample(WeightParam(0.0), 0.0) == 0.0

    def test_lebesgue_case(self):
        assert radial_sample(WeightParam(0.0), 0.75) == pytest.approx(math.sqrt(0.75))

    def test_beta_one(self):
        assert radial_sample(WeightParam(1.0), 0.75) == pytest.approx(math.sqrt(1.0 - 0.5))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-0.9, 3.0),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(-0.875, 0.9921875, 0.0)  # sqrt(1 - 2^-56) rounds to 1 without the clamp
    def test_monotone_and_in_range(self, beta, u1, u2):
        b = WeightParam(beta)
        r1, r2 = radial_sample(b, u1), radial_sample(b, u2)
        assert 0.0 <= r1 < 1.0
        if u1 < u2:
            assert r1 <= r2


def test_import_loads_no_scipy():
    # the package tables its Sobol direction numbers: neither the import nor a
    # randomised-QMC estimate loads scipy
    script = ("import sys; sys.path[:0] = sys.argv[1:]; import polycarleson as pc; "
              "from polycarleson.battery import get_symbol; "
              "est = pc.estimate_sublevel(pc.SublevelQuery(get_symbol('product2'), 1.0, 0.25, "
              "pc.WeightParam(0.0), budget=4096, seed=1)); assert est.trusted; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def manifest_betas():
    """Every beta the pinned battery uses: its fit and scan cases and its beta lists."""
    found = set()

    def walk(value, key=""):
        if isinstance(value, (FitCase, ScanCase)):
            found.add(value.beta)
        elif isinstance(value, dict):
            for k, v in value.items():
                walk(v, k)
        elif isinstance(value, tuple):
            if key.endswith("betas"):
                found.update(value)
            else:
                for v in value:
                    walk(v)

    walk(MANIFEST)
    return sorted(found)


def cap(a, delta, beta):
    return disc_cap_measure(a, delta, WeightParam(beta))[0]


class TestDiscCap:
    def test_centered_lebesgue(self):
        assert cap(0.0, 0.5, 0.0) == pytest.approx(0.25)

    def test_disjoint(self):
        assert disc_cap_measure(2.0, 0.5, WeightParam(1.0)) == (0.0, 0.0)
        assert disc_cap_measure(2.0, 0.5, WeightParam(0.0)) == (0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", manifest_betas())
    def test_cap_that_holds_the_disc(self, beta):
        # an infinite radius returns before the kernel; a cap tangent to the
        # disc from outside, as every radius-2 box coordinate at |xi| = 1 is,
        # still goes through it and keeps its rounding allowance
        for a in (0.0, 0.5, 0.999, 1.0, 0.6 + 0.8j):
            assert disc_cap_measure(a, math.inf, WeightParam(beta)) == (1.0, 0.0)
            assert disc_cap_measure(a, math.nextafter(abs(a) + 1.0, 3.0),
                                    WeightParam(beta)) == (1.0, 0.0)
            assert disc_cap_measure(a, abs(a) + 1.0, WeightParam(beta)) == (1.0, 1e-12)

    @pytest.mark.parametrize("a, delta", [(1.0, math.nan), (math.nan, 0.1), (1.0, 0.0),
                                          (complex(1.0, math.inf), 0.1), (1.0, -math.inf)])
    def test_rejects_non_finite_or_non_positive_input(self, a, delta):
        with pytest.raises(ValueError, match="cap"):
            disc_cap_measure(a, delta, WeightParam(0.0))

    def test_grid_oracle_boundary_cap(self):
        got = cap(1.0, 0.25, 0.0)
        oracle = grid_disc_cap(1.0, 0.25, 0.0)
        assert got == pytest.approx(oracle, abs=1e-4)

    def test_grid_oracle_weighted(self):
        got = cap(1.0, 0.3, 1.0)
        oracle = grid_disc_cap(1.0, 0.3, 1.0)
        assert got == pytest.approx(oracle, abs=1e-4)

    def test_interior_cap_is_exact_square(self):
        # |a| < 1 - delta and beta = 0: exactly delta^2
        assert cap(0.3 + 0.2j, 0.25, 0.0) == pytest.approx(0.0625, abs=1e-12)

    def test_full_disc(self):
        assert cap(1.0, 2.0, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_delta(self):
        vals = [cap(1.0, d, -0.5) for d in np.linspace(0.05, 1.9, 25)]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_boundary_scaling_slope(self, beta):
        # log-log slope of A_beta(D(1, delta) ∩ D) equals beta + 2 within 0.05
        deltas = np.array([2.0**-k for k in range(3, 10)])
        vals = np.array([cap(1.0, d, beta) for d in deltas])
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(beta + 2.0, abs=0.05)

    def test_halfwidth_vectorised_over_centre(self):
        # one call over an array of centres gives every scalar call's bits,
        # degenerate radii and centres included
        r = np.array([0.0, 0.0, 0.1, 0.5, 0.9, 0.97, 1.0, 0.3])
        amod = np.array([0.0, 0.4, 0.0, 0.6, 1.0, 0.99, 0.2, 0.3])
        got = _cap_angular_halfwidth(r, amod, 0.25)
        for k in range(len(r)):
            assert got[k].hex() == float(_cap_angular_halfwidth(r[k:k + 1], amod[k], 0.25)[0]).hex()
        assert got[:3].tolist() == [math.pi, 0.0, math.pi]

    @pytest.mark.parametrize("beta", manifest_betas())
    def test_within_stated_bound(self, beta):
        # torus, interior, centred, overlapping-outside and disjoint centres
        # against tanh-sinh quadrature in the radial law's variable (good to 1e-13 of its value)
        deltas = [2.0**-k for k in range(12, -1, -1)] + [1.5, 1.99]
        for a in (1.0, -0.6 + 0.8j, 0.6j, 0.3 + 0.2j, 0.0, 1.5, 2.5):
            for delta in deltas:
                got, bound = disc_cap_measure(a, delta, WeightParam(beta))
                exact = radial_cap_weight(1.0, abs(a), delta, 1, beta, epsrel=1e-13)
                assert abs(got - exact) <= bound + 1e-13 * exact, (a, delta, got, exact, bound)
                assert 0.0 <= got <= 1.0 and bound >= 0.0


def weight_cases():
    """(|b|, |u|, delta) rows: the estimator's shapes, random ones and the lens's edge cases."""
    rng = np.random.default_rng(12)
    rows = []
    for _ in range(40):
        delta = 10.0 ** rng.uniform(-3.5, -0.1)
        rows.append((1.0 - 2.0 * delta * rng.random(), 1.0, delta))               # products
        rows.append((0.5, abs(0.5 + delta * rng.uniform(-1.5, 1.5)), delta))      # power sums
        b, u = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0)
        if abs(u - delta) > 0.05 * delta:  # see measure._RULE_SAFETY on |u| near delta
            rows.append((b, u, delta))                                              # anywhere
        b = rng.uniform(0.2, 1.2)                                                   # near tangency
        rows.append((b, abs(b + rng.choice([-1, 1]) * delta * (1.0 + 10.0 ** rng.uniform(-9, 0)
                                                               * rng.choice([-1, 1]))), delta))
    b, delta = 0.7, 0.2
    rows += [
        (b, b + delta + 0.1, delta),    # discs apart: weight 0
        (b, b + delta, delta),          # tangent from outside: weight 0
        (b, b - delta, delta),          # tangent from inside at r = 1
        (b, b - delta - 0.1, delta),    # D(|u|, delta) inside D(0, |b|)
        (0.1, 0.3, 0.5),                # D(0, |b|) inside D(|u|, delta): weight 1
        (0.1, 0.4, 0.5),                # ... tangent from inside
        (0.0, 0.1, 0.5), (0.0, 0.6, 0.5), (1e-12, 0.49, 0.5), (1e-6, 0.6, 0.5),  # |b| -> 0
    ]
    return rows


class TestRadialCapWeight:
    """The split coordinate's radial weight against tanh-sinh quadrature in the radial law's variable."""

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", manifest_betas())
    def test_within_stated_bound(self, m, beta):
        rows = weight_cases()
        b, u, delta = (np.array(c) for c in zip(*rows))
        for d in sorted(set(delta)):
            pick = delta == d
            got, bound = _radial_cap_weight(b[pick], u[pick], d, m, WeightParam(beta))
            for bi, ui, w, e in zip(b[pick], u[pick], got, bound):
                exact = radial_cap_weight(bi, ui, d, m, beta, epsrel=1e-12)
                # the reference is good to 1e-12 of its value, and to 1e-18 on
                # the thinnest slivers (below the bound's own 1e-17 floor)
                assert abs(w - exact) <= e + 1e-12 * exact + 1e-18, (bi, ui, d, w, exact, e)
                assert 0.0 <= w <= 1.0 and e >= 0.0

    def test_manifest_betas_include_the_hardy_limit(self):
        assert -0.9 in manifest_betas() and 1.0 in manifest_betas()

    @pytest.mark.parametrize("m, beta", [(1, 0.0), (2, -0.9), (3, 1.0)])
    def test_containment_is_exact(self, m, beta):
        # weights 0 and 1 by containment carry no error
        b = np.array([0.7, 0.7, 0.1, 0.0, 0.0])
        u = np.array([1.0, 0.9, 0.3, 0.1, 0.6])
        w, e = _radial_cap_weight(b, u, 0.2, m, WeightParam(beta))
        w2, e2 = _radial_cap_weight(b[2:], u[2:], 0.5, m, WeightParam(beta))
        assert w[:2].tolist() == [0.0, 0.0] and e[:2].tolist() == [0.0, 0.0]
        assert w2.tolist() == [1.0, 1.0, 0.0] and e2.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", manifest_betas())
    def test_bound_covers_rounding_at_tangency(self, m, beta):
        # fl(|u| - delta) is |b|, so the radial interval rounds to empty, but as
        # exact reals |b| r^m passes |u| - delta on a sliver of r near 1, which
        # mu_beta weighs at ~0.03 at beta = -0.9: a weight of 4.7e-11 there
        b, u, delta = 0.7, 0.7 + 0.2, 0.2
        assert u - delta == b
        (w,), (e,) = _radial_cap_weight(np.array([b]), np.array([u]), delta, m, WeightParam(beta))
        exact = radial_cap_weight(b, u, delta, m, beta, epsrel=1e-12, rounded_edges=False)
        assert exact > 0.0 and w + e >= exact, (w, e, exact)

    def test_rows_are_independent(self):
        # a row's weight does not depend on the rows evaluated with it
        rows = weight_cases()[:30]
        b, u = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        together = _radial_cap_weight(b, u, 0.01, 2, WeightParam(-0.5))
        for i in range(len(rows)):
            alone = _radial_cap_weight(b[i:i + 1], u[i:i + 1], 0.01, 2, WeightParam(-0.5))
            assert alone[0][0] == together[0][i] and alone[1][0] == together[1][i]


class TestBoxMeasure:
    def test_single_cap_in_unit_interval(self):
        box = CarlesonBox(TorusPoint((0.0,)), (1.0,))
        v, _ = carleson_box_measure(box, WeightParam(0.0))
        assert 0.0 < v < 1.0

    def test_clamped_to_full_disc(self):
        box = CarlesonBox(TorusPoint((0.0, 1.0)), (2.0, 2.0))
        assert carleson_box_measure(box, WeightParam(0.7))[0] == pytest.approx(1.0, abs=1e-8)
        # an infinite radius clamps to 2 as well
        assert CarlesonBox(TorusPoint((0.0, 1.0)), (math.inf, 0.5)).radii == (2.0, 0.5)

    @pytest.mark.parametrize("radius", [math.nan, -math.inf, 0.0, -0.1])
    def test_rejects_radii_that_are_not_positive(self, radius):
        with pytest.raises(ValueError, match="positive"):
            CarlesonBox(TorusPoint((0.0, 0.0)), (radius, 0.1))

    def test_product_rule(self):
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.25, 0.25))
        v, _ = carleson_box_measure(box, WeightParam(0.0))
        assert v == pytest.approx(cap(1.0, 0.25, 0.0) ** 2, rel=1e-10)

    @pytest.mark.parametrize("beta", [-0.9, 1.0])
    def test_bound_covers_the_box(self, beta):
        box = CarlesonBox(TorusPoint((0.3, 2.0)), (0.2, 2.0**-5))
        v, bound = carleson_box_measure(box, WeightParam(beta))
        exact = math.prod(radial_cap_weight(1.0, 1.0, d, 1, beta) for d in box.radii)
        assert bound > 0.0
        assert abs(v - exact) <= bound + 1e-13 * exact

    def test_monotone_in_delta(self):
        beta = WeightParam(0.0)
        vals = [
            carleson_box_measure(CarlesonBox(TorusPoint((0.0,)), (d,)), beta)[0]
            for d in (0.2, 0.5, 1.0, 1.5)
        ]
        assert vals == sorted(vals)


class TestSamplePolydisc:
    def test_moment_lebesgue(self):
        rng = np.random.default_rng(11)
        z = sample_polydisc(1, WeightParam(0.0), rng, 1_000_000)
        m = np.mean(np.abs(z[:, 0]) ** 2)
        sigma = np.std(np.abs(z[:, 0]) ** 2) / 1000.0
        assert abs(m - 0.5) < 3 * sigma

    def test_moment_weighted_vs_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        z = sample_polydisc(1, WeightParam(1.0), rng, 1_000_000)
        m = np.mean(np.abs(z[:, 0]) ** 2)
        sigma = np.std(np.abs(z[:, 0]) ** 2) / 1000.0
        oracle = radial_moment(1.0, 2)  # = 1/3
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert abs(m - oracle) < 3 * sigma

    def test_box_mass_matches_quadrature(self):
        rng = np.random.default_rng(13)
        n = 1_000_000
        z = sample_polydisc(2, WeightParam(0.0), rng, n)
        box = CarlesonBox(TorusPoint((0.0, 0.0)), (0.5, 0.5))
        hits = np.sum((np.abs(z[:, 0] - 1.0) < 0.5) & (np.abs(z[:, 1] - 1.0) < 0.5))
        p = hits / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(p - carleson_box_measure(box, WeightParam(0.0))[0]) < 3 * sigma


class TestRegions:
    def test_full_annulus_reduces_to_polydisc_law(self):
        region = AnnulusArc(depths=(1.0, 1.0), arcs=(None, None))
        rng = np.random.default_rng(5)
        z, likelihood = restricted_sample(region, WeightParam(0.5), rng, 200_000)
        assert likelihood == 1.0 and region_mass(region, WeightParam(0.5)) == 1.0
        m = np.mean(np.abs(z[:, 0]) ** 2)
        oracle = radial_moment(0.5, 2)
        assert abs(m - oracle) < 4e-3

    def test_annulus_mass_closed_form(self):
        s = 0.3
        region = AnnulusArc(depths=(s,), arcs=(None,))
        assert region_mass(region, WeightParam(0.0)) == pytest.approx(1.0 - (1.0 - s) ** 2)

    def test_annulus_sampler_stays_in_region(self):
        window = AngleSumWindow(coeffs=(1, 1), center=0.0, halfwidth=0.05, solve_index=1)
        region = AnnulusArc(depths=(0.2, 0.2), arcs=(None, None), window=window)
        rng = np.random.default_rng(22)
        z, likelihood = restricted_sample(region, WeightParam(0.0), rng, 50_000)
        assert np.all(region_contains(region, z)) and likelihood == 1.0
        expected = (0.2 * 1.8) ** 2 * (0.1 / (2 * math.pi))
        assert region_mass(region, WeightParam(0.0)) == pytest.approx(expected)

    def test_multi_arc_sampler(self):
        arcs = merge_arcs([(0.0 - 0.2, 0.4), (math.pi - 0.2, 0.4)])
        region = AnnulusArc(depths=(0.5,), arcs=(arcs,))
        rng = np.random.default_rng(23)
        z, likelihood = restricted_sample(region, WeightParam(0.0), rng, 20_000)
        assert np.all(region_contains(region, z)) and likelihood == 1.0
        expected = (1 - 0.25) * (0.8 / (2 * math.pi))
        assert region_mass(region, WeightParam(0.0)) == pytest.approx(expected)

    def test_importance_consistency_with_plain_sampling(self):
        # indicator of a small boundary box, estimated two ways
        beta = WeightParam(0.0)
        box_center = 1.0
        delta = 0.1

        def indicator(z):
            return np.abs(z[:, 0] - box_center) < delta

        rng1 = np.random.default_rng(31)
        z1 = sample_polydisc(1, beta, rng1, 2_000_000)
        p1 = indicator(z1).mean()
        s1 = math.sqrt(p1 * (1 - p1) / len(z1))

        region = AnnulusArc(depths=(2 * delta,), arcs=(merge_arcs([(-2 * delta, 4 * delta)]),))
        rng2 = np.random.default_rng(32)
        z2, likelihood = restricted_sample(region, beta, rng2, 500_000)
        mass = region_mass(region, beta) * likelihood
        p2 = indicator(z2).mean()
        est2 = mass * p2
        s2 = mass * math.sqrt(p2 * (1 - p2) / len(z2))
        assert abs(est2 - p1) < 3 * math.sqrt(s1 * s1 + s2 * s2)

    def test_sobol_points_map_into_region(self):
        # coordinate 2 takes no angle column and comes back as its real radius
        window = AngleSumWindow(coeffs=(1, 2, 0), center=1.0, halfwidth=0.1, solve_index=1)
        arcs = merge_arcs([(-0.2, 0.4), (2.0, 0.3)])
        region = AnnulusArc(depths=(0.2, 0.3, 0.4), arcs=(arcs, None, None), window=window,
                            fixed=2)
        assert sample_dim(region) == 5
        u = sobol_points([np.random.default_rng(24)], 5, 4096)
        z, _ = region_points(region, WeightParam(-0.5), u)
        assert np.all(region_contains(region, z))
        assert np.all(z[:, 2].imag == 0.0)
        assert np.all((z[:, 2].real >= 0.6) & (z[:, 2].real < 1.0))
        # a fixed coordinate takes no window coefficient (z2's is 2) and no arc (z1 has one)
        for j in (0, 1):
            with pytest.raises(ValueError, match="fixed or integrated"):
                dataclasses.replace(region, fixed=j)

    def test_integrated_coordinate_takes_no_column(self):
        # coordinate 0's radius and angle are both left to the caller
        region = AnnulusArc(depths=(1.0, 0.3), arcs=(None, merge_arcs([(-0.2, 0.4)])),
                            integrated=(0,))
        assert sample_dim(region) == 2
        u = sobol_points([np.random.default_rng(25)], 2, 1024)
        z, _ = region_points(region, WeightParam(0.5), u)
        assert np.all(np.isnan(z[:, 0]))
        assert np.all(region_contains(AnnulusArc(depths=(0.3,), arcs=(region.arcs[1],)), z[:, 1:]))
        with pytest.raises(ValueError, match="no depth"):  # its radius must be free
            AnnulusArc(depths=(1.0, 0.3), arcs=(None, None), integrated=(1,))
        with pytest.raises(ValueError, match="fixed or integrated"):  # and its angle
            dataclasses.replace(region, integrated=(1,), depths=(1.0, 1.0))
        simplex = DeficitSimplex(coords=(0, 1), powers=(1, 1), moduli=(0.5, 0.5),
                                 phases=(0.0, 0.0), target=1.0, tolerance=0.1)
        with pytest.raises(ValueError, match="no simplex"):
            AnnulusArc(depths=(1.0, 1.0), arcs=(None, None), simplex=simplex, integrated=(0,))
        with pytest.raises(ValueError, match="no other role"):
            AnnulusArc(depths=(1.0, 1.0), arcs=(None, None), fixed=0, integrated=(0,))

    @pytest.mark.parametrize("dim, m", [(1, 0), (2, 5), (5, 12), (7, 14), (16, 10)])
    def test_sobol_points_match_scipy(self, dim, m):
        # the scramble, order and bits of scipy's engine on the same generator
        ours = sobol_points([np.random.default_rng(7)], dim, 1 << m)
        theirs = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(7)).random_base2(m)
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_direction_table_matches_scipy(self, dim):
        # unscrambled points run in Gray-code order, so point 2^(b+1) - 1 is direction
        # number b: the rows of random_base2(20), read one at a time rather than as a
        # 2^20 x dim array
        engine = qmc.Sobol(dim, scramble=False, bits=SOBOL_BITS)
        rows = []
        for b in range(20):
            engine.reset()
            engine.fast_forward((2 << b) - 1)
            rows.append(engine.random(1)[0])
        ours = 2.0 ** -np.arange(1, SOBOL_BITS + 1) @ _sobol_digits(dim, 20)
        assert np.array_equal(ours, np.array(rows).T)

    def test_sobol_points_reject_untabled_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dimensions 1..16"):
            sobol_points([rng], 17, 16)
        with pytest.raises(ValueError, match="dimensions 1..16"):
            sobol_points([rng], 0, 16)
        with pytest.raises(ValueError, match="at most 2"):
            sobol_points([rng], 2, 1 << (SOBOL_BITS + 1))

    def test_sobol_points_one_replicate_per_generator(self):
        together = sobol_points([np.random.default_rng(s) for s in (1, 2, 3)], 4, 256)
        apart = [sobol_points([np.random.default_rng(s)], 4, 256) for s in (1, 2, 3)]
        assert np.array_equal(together, np.concatenate(apart))
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        with pytest.raises(ValueError):
            restricted_sample(AnnulusArc.full(1), WeightParam(0.0), rngs, 1024)

    def test_restricted_sample_dispatch(self):
        # one generator gives i.i.d. points, a list one Sobol replicate per generator
        window = AngleSumWindow(coeffs=(1, 2), center=1.0, halfwidth=0.1, solve_index=1)
        region = AnnulusArc(depths=(0.2, 0.3), arcs=(merge_arcs([(-0.2, 0.4)]), None),
                            window=window)
        beta = WeightParam(-0.5)
        d = sample_dim(region)
        z, likelihood = restricted_sample(region, beta, np.random.default_rng(26), 1024)
        iid, _ = region_points(region, beta, np.random.default_rng(26).random((1024, d)))
        assert np.array_equal(z, iid) and likelihood == 1.0
        z, _ = restricted_sample(region, beta, [np.random.default_rng(s) for s in (1, 2)], 1024)
        u = sobol_points([np.random.default_rng(s) for s in (1, 2)], d, 512)
        assert np.array_equal(z, region_points(region, beta, u)[0])

    def test_empty_region_raises(self):
        with pytest.raises(EmptyRegion):
            AnnulusArc(depths=(0.0,), arcs=(None,))

    def test_full_polydisc_region(self):
        region = AnnulusArc.full(2)
        rng = np.random.default_rng(41)
        z, likelihood = restricted_sample(region, WeightParam(0.0), rng, 1000)
        assert likelihood == 1.0
        assert z.shape == (1000, 2)
        assert np.all(region_contains(region, z))


def branches(m, phase, half):
    """The m arcs {theta : m theta - phase in ±half (mod 2 pi)}, merged."""
    return merge_arcs([((phase + 2.0 * math.pi * k) / m - half / m, 2.0 * half / m)
                       for k in range(m)])


class TestIntersectArcs:
    """Arc-set intersections against a dense grid of 10^5 angles."""

    GRID = 100_000
    THETA = (np.arange(GRID) + 0.5) * (2.0 * math.pi / GRID)

    def inside(self, arcs):
        if arcs is None:
            return np.ones(self.GRID, dtype=bool)
        hit = np.zeros(self.GRID, dtype=bool)
        for start, length in arcs:
            hit |= (self.THETA - start) % (2.0 * math.pi) <= length
        return hit

    def check(self, sets):
        got = intersect_arcs(sets)
        want = np.logical_and.reduce([self.inside(a) for a in sets])
        if got == ():
            assert not np.any(want)
            return
        # each arc end misplaces at most one grid cell
        cells = np.count_nonzero(self.inside(got) != want)
        assert cells <= 2 * sum(len(a) for a in sets if a is not None) + 2, (sets, got)
        if got is not None:
            assert all(0.0 <= start < 2.0 * math.pi and 0.0 < length < 2.0 * math.pi
                       for start, length in got)
            starts = [start for start, _ in got]
            assert starts == sorted(starts)

    @pytest.mark.parametrize("count", [2, 3])
    def test_random_branch_sets(self, count):
        rng = np.random.default_rng(count)
        for _ in range(20):
            self.check([branches(int(rng.integers(1, 4)), rng.uniform(-2 * math.pi, 2 * math.pi),
                                 rng.uniform(0.05, 3.0)) for _ in range(count)])

    def test_wrapping_full_and_disjoint_sets(self):
        across = merge_arcs([(-0.3, 0.6)])  # wraps through 0
        assert across[0][0] + across[0][1] > 2.0 * math.pi
        self.check([across, branches(2, 0.2, 0.5)])
        self.check([across, branches(3, 0.0, 0.4), branches(1, 6.0, 1.0)])
        self.check([branches(2, math.pi, 1.0), branches(3, 1.0, 2.0)])
        # a full circle constrains nothing, and one set left comes back as it was
        assert intersect_arcs([None, across]) is across
        assert intersect_arcs([across, None, across]) is across
        assert intersect_arcs([None, None]) is None
        assert intersect_arcs([]) is None
        # disjoint sets meet in nothing
        assert intersect_arcs([branches(1, 0.0, 0.1), branches(1, math.pi, 0.1)]) == ()
        assert intersect_arcs([branches(2, 0.0, 0.1), branches(2, math.pi, 0.1)]) == ()
        self.check([branches(2, 0.0, 0.1), branches(2, math.pi, 0.1)])
        # a set inside another is the set itself, up to rounding at the wrap
        got = intersect_arcs([across, branches(1, 0.0, 1.0)])
        assert len(got) == 1 and got[0] == pytest.approx(across[0], abs=1e-15)


# separable self-maps sum_k c_k z_k^{m_k} with c_k > 0 summing to 1 (drawn as
# integer weights), n <= 3 and m_k <= 3, and a target e^{i alpha} they reach
SEPARABLE = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.integers(1, 8), min_size=n, max_size=n),
    st.floats(0.0, 2.0 * math.pi)))


def separable_binding(powers, weights, alpha):
    """(entries, symbol, target) of sum_k c_k z_k^{m_k} at eta = e^{i alpha}."""
    n = len(powers)
    entries = [(tuple(m if k == j else 0 for k in range(n)), w / sum(weights))
               for j, (m, w) in enumerate(zip(powers, weights))]
    return entries, PolySymbol.from_tables([entries], n), complex(math.cos(alpha), math.sin(alpha))


class TestDeficitSimplex:
    """The separable binding's region: exact containment, sampler and mass."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sep=SEPARABLE, delta=st.floats(1e-3, 0.3))
    def test_sublevel_set_lies_in_region(self, sep, delta):
        entries, f, eta = separable_binding(*sep)
        n = f.n_in
        region = build_proposal([(f, eta, delta)], n)
        rng = np.random.default_rng(1)
        size = 200_000
        # rejection from a box around the torus fiber z_k^{m_k} = eta, 1.5 times
        # the one that holds the set (1 - r_k^{m_k} <= delta/c_k and
        # 1 - cos(m_k theta_k - alpha) <= delta/c_k), plus uniform points
        z = np.empty((size, n), dtype=complex)
        for k, (alpha, c) in enumerate(entries):
            m = alpha[k]
            depth = min(1.0, 1.5 * (1.0 - max(1.0 - delta / c, 0.0) ** (1.0 / m)))
            arc = min(math.pi, 1.5 * math.acos(max(1.0 - delta / c, -1.0)))
            root = (np.angle(eta) + 2.0 * math.pi * rng.integers(0, m, size)) / m
            theta = root + (2.0 * rng.random(size) - 1.0) * arc / m
            z[:, k] = (1.0 - depth * rng.random(size)) * np.exp(1j * theta)
        z = np.concatenate([z, sample_polydisc(n, WeightParam(0.0), rng, size)])
        f_z = sum(c * np.prod(z ** np.array(alpha), axis=1) for alpha, c in entries)
        inside = z[np.abs(f_z - eta) <= delta]
        assert len(inside) > 0
        assert np.all(region_contains(region, inside))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sep=SEPARABLE, delta=st.floats(1e-3, 0.3),
           beta=st.sampled_from([0.0, -0.5, 1.0]))
    def test_sampler_stays_in_region(self, sep, delta, beta):
        _, f, eta = separable_binding(*sep)
        n = f.n_in
        region = build_proposal([(f, eta, delta)], n)
        u = np.random.default_rng(2).random((20_000, sample_dim(region)))
        z, likelihood = region_points(region, WeightParam(beta), u)
        assert np.all(region_contains(region, z))
        assert np.all((0.0 <= likelihood) & (likelihood <= 1.0))
        simplex = region.simplex if isinstance(region, AnnulusArc) else None
        for k, j in enumerate(simplex.coords if simplex is not None else ()):
            # coordinate j fixed: a real radius whose Jacobian keeps the likelihood <= 1,
            # drawn last, bit for bit as from a simplex that lists it last
            order = [i for i in range(len(simplex.coords)) if i != k] + [k]
            last = dataclasses.replace(simplex, **{
                name: tuple(getattr(simplex, name)[i] for i in order)
                for name in ("coords", "powers", "moduli", "phases")})
            fixed = dataclasses.replace(region, fixed=j)
            v = u[:, :sample_dim(fixed)]
            z, likelihood = region_points(fixed, WeightParam(beta), v)
            z_last, likelihood_last = region_points(dataclasses.replace(fixed, simplex=last),
                                                    WeightParam(beta), v)
            assert np.array_equal(z, z_last) and np.array_equal(likelihood, likelihood_last)
            assert np.all((z[:, j].imag == 0.0) & (z[:, j].real >= 0.0))
            assert np.all(z[:, j].real < 1.0)
            assert np.all((0.0 <= likelihood) & (likelihood <= 1.0))

    # (A - B)/stderr is close to normal for both estimates: |z| > 4 has odds
    # 6.3e-5 per example, below 2e-3 for the 30
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sep=SEPARABLE, delta=st.floats(0.1, 0.3),
           beta=st.sampled_from([0.0, -0.5, 1.0]))
    def test_mean_likelihood_is_region_mass(self, sep, delta, beta):
        _, f, eta = separable_binding(*sep)
        n = f.n_in
        weight = WeightParam(beta)
        region = build_proposal([(f, eta, delta)], n)
        rng = np.random.default_rng(3)
        _, likelihood = restricted_sample(region, weight, rng, 200_000)
        point_mass = np.broadcast_to(region_mass(region, weight) * likelihood, (200_000,))
        a, sa = point_mass.mean(), point_mass.std(ddof=1) / math.sqrt(point_mass.size)
        hits = region_contains(region, sample_polydisc(n, weight, rng, 400_000))
        b = hits.mean()
        sb = math.sqrt(b * (1.0 - b) / hits.size)
        assert abs(a - b) <= 4.0 * math.hypot(sa, sb), (a, sa, b, sb)


# m: (coefficient c, target u, tolerance delta) of a cap {|c z^m - u| <= delta}
CAP_CASES = {
    1: (1.0, 1.0, 0.1),                                          # extremal, |u| = |c|
    2: (0.5 * complex(math.cos(0.3), math.sin(0.3)), 0.45j, 0.2),  # |u| < |c|
    3: (0.7, 0.05j, 0.2),                                        # |u| < delta: holds the origin
}


class TestTermCap:
    """A capped coordinate is drawn from its binding's exact set, its factor in the likelihood."""

    @pytest.mark.parametrize("beta", [0.0, -0.5, -0.9])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_lie_in_the_cap_and_weigh_its_mass(self, m, beta):
        # z1 is capped beside z0 on an annulus of depth 0.5; (A - B)/stderr with
        # B exact: |t| > 4 has odds 6.3e-5 per case
        c, u, delta = CAP_CASES[m]
        region = AnnulusArc(depths=(0.5, 1.0), arcs=(None, None),
                            caps=(TermCap(1, m, c, u, delta),))
        weight = WeightParam(beta)
        rng = np.random.default_rng(60 + m)
        z, likelihood = restricted_sample(region, weight, rng, 200_000)
        assert np.all(np.abs(c * z[:, 1] ** m - u) <= delta * (1.0 + 1e-12))
        assert np.all(region_contains(region, z))
        assert np.all((0.0 <= likelihood) & (likelihood <= 1.0))
        mean, stderr = likelihood.mean(), likelihood.std(ddof=1) / math.sqrt(likelihood.size)
        exact = radial_cap_weight(abs(c), abs(u), delta, m, beta)
        assert abs(mean - exact) <= 4.0 * stderr, (mean, stderr, exact)
        # no point of the binding in z0's annulus lies outside the region
        z = sample_polydisc(2, weight, rng, 400_000)
        held = (np.abs(c * z[:, 1] ** m - u) <= delta) & (np.abs(z[:, 0]) >= 0.5)
        assert np.count_nonzero(held) > 100
        assert np.all(region_contains(region, z[held]))

    def test_capped_coordinate_takes_no_other_constraint(self):
        cap = TermCap(0, 1, 1.0, 1.0, 0.1)
        for depths, arcs in (((0.5,), (None,)), ((1.0,), (merge_arcs([(0.0, 1.0)]),))):
            with pytest.raises(ValueError, match="capped"):
                AnnulusArc(depths=depths, arcs=arcs, caps=(cap,))
        region = AnnulusArc(depths=(1.0,), arcs=(None,), caps=(cap,))
        assert sample_dim(region) == 2 and region_mass(region, WeightParam(0.0)) == 1.0
        for role in ({"fixed": 0}, {"integrated": (0,)}):  # a capped coordinate takes no other role
            with pytest.raises(ValueError, match="fixed or integrated"):
                dataclasses.replace(region, **role)


class TestDeterministicBatching:
    def test_thread_count_invariance(self):
        def worker(rng, count):
            z = sample_polydisc(2, WeightParam(0.0), rng, count)
            return (int(np.sum(np.abs(z[:, 0] - 1.0) < 0.3)),)

        r1 = sum_counts(run_batches(3_500_000, seed=9, label="t", worker=worker, threads=1))
        r4 = sum_counts(run_batches(3_500_000, seed=9, label="t", worker=worker, threads=4))
        r8 = sum_counts(run_batches(3_500_000, seed=9, label="t", worker=worker, threads=8))
        assert r1 == r4 == r8

    def test_bundles_keep_each_batch_stream(self):
        # one call per 4 batches sees the streams, in batch order, that one call per batch sees
        def one(rng, count):
            return [rng.random(count).sum()]

        def bundle(rngs, count):
            return [g.random(count // len(rngs)).sum() for g in rngs]

        plain = run_batches(10_000, seed=3, label="b", worker=one, threads=1, batch_size=1000)
        for threads in (1, 3):
            bundled = run_batches(10_000, seed=3, label="b", worker=bundle, threads=threads,
                                  batch_size=1000, bundle=4)
            assert [len(r) for r in bundled] == [4, 4, 2]
            assert [x for r in bundled for x in r] == [x for r in plain for x in r]

    def test_label_separates_streams(self):
        def worker(rng, count):
            return (int(np.sum(rng.random(count) < 0.5)),)

        a = sum_counts(run_batches(100_000, seed=1, label="a", worker=worker))
        b = sum_counts(run_batches(100_000, seed=1, label="b", worker=worker))
        assert a != b

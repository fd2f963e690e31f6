import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import full_modulus_grid, greedy_dedupe
from polycarleson import contact
from polycarleson.battery import SYMBOL_NAMES, get_symbol
from polycarleson.config import DEFAULTS, contact_grid_res
from polycarleson.contact import (
    ContactRequired,
    MERGE_RADIUS,
    _dedupe,
    _modulus_grid,
    _stacked_rank,
    find_contact_set,
    rank_report,
)
from polycarleson.criteria import BOUNDED, SUFFICIENCY_HOLDS, check_rank_sufficiency, decide_tridisc
from polycarleson.inequality_lab import jc_check, slice_gradient_constancy
from polycarleson.symbols import PolySymbol, TorusPoint

TWO_PI = 2.0 * math.pi
# ((z1 + z2)/2, (z2 + z3)/2, z1 z2 z3): a tridisc self-map with non-monomial components
GENERAL3 = PolySymbol.from_tables(
    [
        [((1, 0, 0), 0.5), ((0, 1, 0), 0.5)],
        [((0, 1, 0), 0.5), ((0, 0, 1), 0.5)],
        [((1, 1, 1), 1.0)],
    ],
    3,
)
SELF_MAPS = [sym for sym in map(get_symbol, SYMBOL_NAMES) if sym.n_in == sym.n_out] + [GENERAL3]
ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def product_symbol(n):
    return PolySymbol.monomial(n, (1,) * n)


def mean_product_map():
    """((z1 + z2)/2, z1 z2): joint contact set is the diagonal of T^2."""
    return PolySymbol.from_tables(
        [
            [((1, 0), 0.5), ((0, 1), 0.5)],
            [((1, 1), 1.0)],
        ],
        2,
    )


def mixed_pair_map():
    """((z1 + z2)/2, (z1 z2 + 1)/2): joint contact set is {(1,1), (-1,-1)}."""
    return PolySymbol.from_tables(
        [
            [((1, 0), 0.5), ((0, 1), 0.5)],
            [((1, 1), 0.5), ((0, 0), 0.5)],
        ],
        2,
    )


class TestFindContactSet:
    def test_product_monomial_full_torus(self):
        cs = find_contact_set(product_symbol(2), [0])
        assert cs.kind == "positive_dimensional"
        assert cs.accepted_fraction == 1.0
        assert len(cs.points) > 100

    def test_strict_contraction_empty(self):
        sym = PolySymbol.from_tables(
            [[((1, 0), 0.5)], [((0, 1), 0.5)]], 2
        )
        for I in ([0], [1], [0, 1]):
            assert find_contact_set(sym, I).kind == "empty"

    def test_half_first_coordinate(self):
        # (z1/2, z2): component 2 has unit modulus on all of T^2
        sym = PolySymbol.from_tables([[((1, 0), 0.5)], [((0, 1), 1.0)]], 2)
        cs = find_contact_set(sym, [1])
        assert cs.kind == "positive_dimensional"
        assert cs.accepted_fraction == 1.0

    def test_diagonal_positive_dimensional(self):
        cs = find_contact_set(mean_product_map(), [0, 1])
        assert cs.kind == "positive_dimensional"
        # every stored sample lies on the diagonal within the refinement scale
        for pt in cs.points[:: max(1, len(cs.points) // 50)]:
            d = abs((pt[0] - pt[1] + math.pi) % TWO_PI - math.pi)
            assert d < 1e-4

    def test_soundness_residuals(self):
        cs = find_contact_set(mean_product_map(), [0, 1])
        sym = cs.symbol
        for pt in cs.points[:: max(1, len(cs.points) // 25)]:
            vals = sym.evaluate(np.exp(1j * pt))
            assert max(1.0 - abs(vals[i]) for i in cs.index_set) <= cs.contact_tol * 1.001

    def test_finite_two_points(self):
        cs = find_contact_set(mixed_pair_map(), [0, 1])
        assert cs.kind == "finite"
        assert len(cs.points) == 2
        got = sorted(tuple(round(a, 6) % round(TWO_PI, 6) for a in p) for p in cs.points.tolist())
        expect = sorted([(0.0, 0.0), (round(math.pi, 6), round(math.pi, 6))])
        for g, e in zip(got, expect):
            for a, b in zip(g, e):
                assert abs((a - b + math.pi) % TWO_PI - math.pi) < 1e-6

    @pytest.mark.parametrize("sym, index_set", [
        (mean_product_map(), [0, 1]), (GENERAL3, [0]), (GENERAL3, [0, 1])])
    def test_angles_in_one_period(self, sym, index_set):
        # numpy's % leaves exactly 2 pi for a tiny negative angle; a contact set
        # reduces once more, so every angle lies in [0, 2 pi)
        cs = find_contact_set(sym, index_set)
        assert cs.points.shape == (len(cs.residuals), sym.n_in) and len(cs.points) > 100
        assert np.all((cs.points >= 0.0) & (cs.points < TWO_PI))
        assert not cs.points.flags.writeable and not cs.residuals.flags.writeable

    def test_csv_rows(self):
        cs = find_contact_set(mixed_pair_map(), [0, 1])
        header, rows = cs.to_csv_rows()
        assert header == ["theta_1", "theta_2", "residual", "kind"]
        assert len(rows) == 2


class TestContactCache:
    def test_deciders_share_constraints(self, monkeypatch):
        # z1 z2 z3 is a unimodular monomial, so general3's seven index sets are
        # three constraints ({0}, {1}, {0, 1}) and the tridisc decision's four
        # index sets are among them: three Newton refinements in all
        newton = contact._torus_newton
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(contact, "_torus_newton", counting)
        contact._contact_locus.cache_clear()
        assert check_rank_sufficiency(GENERAL3).outcome == SUFFICIENCY_HOLDS
        assert decide_tridisc(GENERAL3).outcome == BOUNDED
        assert len(calls) == 3
        a, b = find_contact_set(GENERAL3, [0]), find_contact_set(GENERAL3, [0, 2])
        assert (a.index_set, b.index_set) == ((0,), (0, 2))
        assert a.points is b.points and a.residuals is b.residuals
        assert len(calls) == 3


class TestTorusNewton:
    @pytest.mark.parametrize("sym, other", [
        # the other seed is on the diagonal, the contact locus of (z1 + z2)/2; with
        # mixed_pair's second component its Hessian is singular at (pi/4, pi/4)
        # in exact arithmetic
        (mixed_pair_map(), (math.pi / 4, math.pi / 4)),
        # mean_product's Hessian is singular everywhere; 1e-9 off the diagonal
        # the seed is active
        (mean_product_map(), (math.pi / 4, math.pi / 4 + 1e-9)),
    ])
    def test_row_does_not_depend_on_singular_row(self, sym, other):
        tables, targets = list(sym.components), [0j, 0j]
        seed = np.array([[0.05, -0.03]])
        alone = contact._torus_newton(tables, targets, seed, ascend=True)[0]
        batch = contact._torus_newton(tables, targets, np.vstack([seed, [other]]), ascend=True)
        assert np.all(np.isfinite(batch))
        assert np.max(np.abs(batch[0] - alone)) <= 1e-12
        # the seed reaches the contact locus: mixed_pair's isolated point (0, 0),
        # mean_product's diagonal
        assert 1.0 - np.abs(sym.evaluate(np.exp(1j * alone))).min() <= 1e-12


    def test_fixed_row_retires(self, monkeypatch):
        # under mixed_pair the seed (pi/4, pi/4) never moves: it goes through
        # pinv once instead of in every one of the 30 iterations (33 rows in
        # all before rows retired), and both rows end where they always did
        rows = []
        pinv = np.linalg.pinv

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0])
            return pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        seeds = np.array([[0.05, -0.03], [math.pi / 4, math.pi / 4]])
        out = contact._torus_newton(list(mixed_pair_map().components), [0j, 0j], seeds,
                                    ascend=True)
        assert sum(rows) == 4
        assert out.tolist() == [[0.0, 0.0], [math.pi / 4, math.pi / 4]]


RANK_TOLS = (DEFAULTS.rank_tol, DEFAULTS.rank_band)


class TestNumericalRank:
    """``_stacked_rank`` on stacks of one matrix, and ``rank_report``."""

    def test_identity(self):
        assert _stacked_rank(np.eye(2)[None], *RANK_TOLS)[1][0] == 2

    def test_ones_matrix(self):
        assert _stacked_rank(np.ones((1, 2, 2)), *RANK_TOLS)[1][0] == 1

    def test_stacked_product_jacobian(self):
        f = [((1, 1, 1), 1.0)]
        sym = PolySymbol.from_tables([f, f, []], 3)
        _, ranks, inconclusive = _stacked_rank(sym.jacobian([1.0, 1.0, 1.0])[None], *RANK_TOLS)
        assert ranks[0] == 1
        assert not inconclusive[0]

    def test_zero_matrix(self):
        _, ranks, inconclusive = _stacked_rank(np.zeros((1, 3, 2)), *RANK_TOLS)
        assert ranks[0] == 0 and not inconclusive[0]

    def test_band_inconclusive(self):
        assert _stacked_rank(np.diag([1.0, 1e-6])[None], *RANK_TOLS)[2][0]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, TWO_PI), st.integers(0, 5))
    def test_invariance_unimodular_and_permutation(self, phase, perm_seed):
        rng = np.random.default_rng(perm_seed)
        M = rng.normal(size=(3, 3)) @ np.diag([1.0, 1.0, 0.0]) @ rng.normal(size=(3, 3))
        p = rng.permutation(3)
        _, ranks, _ = _stacked_rank(np.stack([M, np.exp(1j * phase) * M, M[p][:, p]]), *RANK_TOLS)
        assert ranks[1] == ranks[2] == ranks[0]

    def test_rank_report(self):
        sym = get_symbol("identity2")
        rep = rank_report(sym, (0, 1), [[0.3, 1.2]]).report(0)
        assert rep.passed and rep.rank == 2 and rep.target == 2
        assert rep.point == TorusPoint((0.3, 1.2))

    def test_rank_report_no_points(self):
        ranks = rank_report(get_symbol("identity2"), (0, 1), [])
        assert ranks.jacobians.shape == (0, 2, 2)
        assert ranks.ranks.shape == ranks.inconclusive.shape == (0,)


class TestBatchedRank:
    """Each row of a batched rank check equals the one-matrix check of that row."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SELF_MAPS), st.data())
    def test_rows_match_single_point(self, sym, data):
        n = sym.n_in
        angles = np.array(data.draw(st.lists(st.tuples(*[ANGLE] * n), min_size=1, max_size=8)))
        points = [TorusPoint(a) for a in angles.tolist()]
        order = data.draw(st.permutations(range(n)))
        index_set = tuple(sorted(order[: data.draw(st.integers(1, n))]))
        ranks = rank_report(sym, index_set, angles)
        assert ranks.points.tolist() == angles.tolist() and ranks.target == len(index_set)
        for k, pt in enumerate(points):
            block = sym.jacobian(pt.point())[list(index_set), :]
            (sv,), (rank,), (inconclusive,) = _stacked_rank(block[None], *RANK_TOLS)
            rep = ranks.report(k)
            assert rep.point == pt
            assert (rep.rank, rep.inconclusive) == (rank, inconclusive)
            assert rep.passed == (rank == len(index_set) and not inconclusive)
            np.testing.assert_array_equal(bits(rep.singular_values), bits(sv))
            np.testing.assert_array_equal(ranks.jacobians[k].view(np.uint64),
                                          block.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4), st.integers(3, 7),
           st.floats(-7.5, -4.5))
    def test_stacked_blocks_match_numerical_rank(self, seed, k, m, count, log_ratio):
        rng = np.random.default_rng(seed)
        blocks = rng.normal(size=(count, k, m)) + 1j * rng.normal(size=(count, k, m))
        blocks[0] = 0.0  # rank 0
        # singular values (1, 10^log_ratio): the second lies inside (rank_tol, rank_band)
        u = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        v = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        blocks[1] = u[:, :2] @ np.diag([1.0, 10.0**log_ratio]) @ v[:, :2].conj().T
        sv, ranks, inconclusive = _stacked_rank(blocks, *RANK_TOLS)
        assert ranks[0] == 0 and not inconclusive[0]
        assert ranks[1] == 2 and inconclusive[1]
        for row, block in enumerate(blocks):
            (alone,), (rank,), (flag,) = _stacked_rank(block[None], *RANK_TOLS)
            assert (ranks[row], inconclusive[row]) == (rank, flag)
            np.testing.assert_array_equal(bits(sv[row]), bits(alone))
            np.testing.assert_array_equal(bits(sv[row]),
                                          bits(np.linalg.svd(block, compute_uv=False)))


@st.composite
def clustered_angles(draw):
    """Clusters of angles within a few merge radii, some straddling 0 / 2 pi.

    Offsets are drawn in half merge radii, so many pairs sit exactly one
    merge radius apart before reduction mod 2 pi; residuals come from a small
    set, so ties occur.  A zero radius merges nothing.
    """
    n = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([MERGE_RADIUS, 1e-2, 0.3, 0.0]))
    edge = st.sampled_from([0.0, radius / 3, TWO_PI - radius / 3])
    centres = draw(st.lists(st.tuples(*[st.one_of(edge, ANGLE)] * n), min_size=1, max_size=6))
    offset = st.one_of(st.integers(-4, 4).map(lambda h: h * radius / 2),
                       st.floats(-2.0 * radius, 2.0 * radius))
    rows = []
    for centre in centres:
        for _ in range(draw(st.integers(1, 8))):
            rows.append([c + draw(offset) for c in centre])
    theta = np.array(rows) % TWO_PI
    residuals = np.array(draw(st.lists(st.sampled_from([0.0, 1e-12, 3e-10, 1e-9]),
                                       min_size=len(rows), max_size=len(rows))))
    return theta, residuals, radius


class TestDedupe:
    @settings(max_examples=150, deadline=None)
    @given(clustered_angles())
    def test_matches_greedy_oracle(self, case):
        theta, residuals, radius = case
        got = _dedupe(theta, residuals, radius)
        want = greedy_dedupe(theta, residuals, radius)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_dense_cloud_matches_greedy_oracle(self):
        rng = np.random.default_rng(3)
        centres = rng.random((40, 3)) * TWO_PI
        theta = (centres[rng.integers(0, 40, 3000)]
                 + rng.normal(scale=MERGE_RADIUS, size=(3000, 3))) % TWO_PI
        residuals = rng.random(3000) * 1e-9
        got = _dedupe(theta, residuals, MERGE_RADIUS)
        want = greedy_dedupe(theta, residuals, MERGE_RADIUS)
        assert 40 < len(got[0]) < 3000
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestModulusGrid:
    @pytest.mark.parametrize("table, n, live", [
        (GENERAL3.components[0], 3, (0, 1)),
        (GENERAL3.components[1], 3, (1, 2)),
        (GENERAL3.components[2], 3, (0, 1, 2)),
        ((((0, 0, 0), 0.5), ((0, 0, 2), 0.5)), 3, (2,)),
        ((((0, 1), 0.25), ((1, 1), 0.75)), 2, (0, 1)),
        ((((0,), 0.5), ((3,), 0.5)), 1, (0,)),
        ((((0, 0, 0), 0.5 - 0.5j),), 3, ()),  # constant: one cell
        ((), 2, ()),
    ])
    def test_broadcast_grid_matches_full_grid(self, table, n, live):
        res = 48
        grid = _modulus_grid(table, n, res)
        assert grid.dtype == np.float32
        assert grid.shape == tuple(res if j in live else 1 for j in range(n))
        full = np.broadcast_to(grid, (res,) * n)
        want = full_modulus_grid(table, n, res, np.float32)
        np.testing.assert_array_equal(full.view(np.uint32), want.view(np.uint32))

    def test_cache_bounded_by_bytes(self, monkeypatch):
        res = 64
        cap = 2 * res**3 * 4  # two full-grid tables
        monkeypatch.setattr(contact, "_GRID_CACHE_BYTES", cap)
        monkeypatch.setattr(contact, "_grid_cache", type(contact._grid_cache)())
        tables = [(((1, 1, 1), 0.5), ((k, 0, 1), 0.5)) for k in range(5)]
        first = [_modulus_grid(t, 3, res) for t in tables]
        for t in tables:
            _modulus_grid(t, 3, res)
            assert sum(g.nbytes for g in contact._grid_cache.values()) <= cap
        assert len(contact._grid_cache) == 2
        assert _modulus_grid(tables[-1], 3, res) is _modulus_grid(tables[-1], 3, res)
        again = _modulus_grid(tables[0], 3, res)  # evicted, computed again
        np.testing.assert_array_equal(again.view(np.uint32), first[0].view(np.uint32))

    def test_two_variable_table_costs_res_squared(self):
        grid = _modulus_grid(GENERAL3.components[0], 3, 256)
        assert grid.shape == (256, 256, 1)
        assert grid.nbytes == 256 * 256 * 4  # 256 KiB, not the 64 MiB of the full 256^3 grid


    @pytest.mark.parametrize("n", range(1, 7))
    def test_default_resolution_bounds_cells(self, n):
        res = contact_grid_res(n)
        assert res**n <= 2**24  # 64 MiB of float32
        assert res == 256 or (res + 1) ** n > 2**24
        if n <= 4:
            assert res == (256, 256, 256, 64)[n - 1]


class TestJCCheck:
    def test_product_at_ones(self):
        rep = jc_check(product_symbol(2), TorusPoint((0.0, 0.0)), 1.0)
        assert rep.passed
        assert np.allclose(rep.details["values"], [1.0, 1.0])

    def test_square_at_i(self):
        f = PolySymbol.monomial(1, (2,))
        rep = jc_check(f, TorusPoint((math.pi / 2,)), -1.0)
        assert rep.passed
        assert np.allclose(rep.details["values"], [2.0])

    def test_triple_product_with_signs(self):
        f = product_symbol(3)
        zeta = TorusPoint((0.0, math.pi, math.pi))
        rep = jc_check(f, zeta, 1.0)
        assert rep.passed
        assert np.allclose(rep.details["values"], [1.0, 1.0, 1.0])

    def test_requires_contact(self):
        with pytest.raises(ContactRequired):
            jc_check(product_symbol(2), TorusPoint((0.0, 0.0)), -1.0)


class TestSliceGradient:
    def test_independent_coordinate(self):
        # psi = z2 in two variables: gradient identically (0, 1)
        psi = PolySymbol.monomial(2, (0, 1))
        rep = slice_gradient_constancy(psi, 1, TorusPoint((0.0,)), [0.0])
        assert rep.passed
        assert np.allclose(rep.details["gradient"], [0.0, 1.0])

    def test_interior_point_precondition_fails(self):
        psi = PolySymbol.from_tables([[((1, 0), 0.5), ((0, 1), 0.5)]], 2)
        with pytest.raises(ContactRequired):
            slice_gradient_constancy(psi, 1, TorusPoint((0.0,)), [1.0 - 1e-3])

    def test_three_variable_product_tail(self):
        # psi = z2 z3: at (z1, 1, 1) the gradient is identically (0, 1, 1)
        psi = PolySymbol.monomial(3, (0, 1, 1))
        rep = slice_gradient_constancy(psi, 1, TorusPoint((0.0, 0.0)), [0.3j])
        assert rep.passed
        assert np.allclose(rep.details["gradient"], [0.0, 1.0, 1.0])

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polycarleson.battery import get_symbol
from polycarleson.symbols import (
    DimensionMismatch,
    PolySymbol,
    SymbolNotSelfMap,
    TorusPoint,
)

from oracles import diff_entries, eval_entries


def product_symbol(n):
    """f(z) = z_1 ... z_n as a scalar symbol."""
    return PolySymbol.monomial(n, (1,) * n)


def power_sum_symbol(n):
    """g(z) = (z_1^n + ... + z_n^n) / n."""
    tables = [[]]
    for j in range(n):
        alpha = [0] * n
        alpha[j] = n
        tables[0].append((tuple(alpha), 1.0 / n))
    return PolySymbol.from_tables(tables, n)


class TestEvaluate:
    def test_identity_at_half(self):
        sym = get_symbol("identity2")
        out = sym.evaluate([0.5, 0.5])
        assert np.allclose(out, [0.5, 0.5])

    def test_product_at_i_i(self):
        f = product_symbol(2)
        assert np.allclose(f.evaluate([1j, 1j]), [-1.0])

    def test_power_sum_at_ones(self):
        g = power_sum_symbol(2)
        assert np.allclose(g.evaluate([1.0, 1.0]), [1.0])

    def test_dimension_mismatch(self):
        f = product_symbol(2)
        with pytest.raises(DimensionMismatch):
            f.evaluate([1.0, 1.0, 1.0])

    def test_batch_matches_pointwise(self):
        g = power_sum_symbol(3)
        rng = np.random.default_rng(0)
        z = (rng.random((50, 3)) - 0.5) + 1j * (rng.random((50, 3)) - 0.5)
        batch = g.evaluate_batch(z)
        for k in range(50):
            assert np.allclose(batch[k], g.evaluate(z[k]))


class TestJacobian:
    def test_identity(self):
        sym = get_symbol("identity3")
        J = sym.jacobian([0.2 + 0.1j, -0.3, 0.5j])
        assert np.allclose(J, np.eye(3))

    def test_product_rule(self):
        f = product_symbol(2)
        z = np.exp(1j * np.array([0.7, -1.1]))
        J = f.jacobian(z)
        assert np.allclose(J[0], [z[1], z[0]])

    def test_stacked_product_rank_one(self):
        # (f, f, 0) with f = z1 z2 z3: rows (1,1,1), (1,1,1), (0,0,0) at 1.
        f_entries = [((1, 1, 1), 1.0 + 0j)]
        sym = PolySymbol.from_tables([f_entries, f_entries, [((0, 0, 0), 0.0)]], 3)
        J = sym.jacobian([1.0, 1.0, 1.0])
        # independent symbolic-differentiation oracle
        for i, entries in enumerate([f_entries, f_entries, []]):
            for j in range(3):
                expected = eval_entries(diff_entries(entries, j), [1.0, 1.0, 1.0])
                assert J[i, j] == pytest.approx(expected)
        assert np.linalg.matrix_rank(J) == 1

    def test_finite_difference_agreement(self):
        # random sparse symbols of degree <= 5 against central differences
        rng = np.random.default_rng(42)
        step = 1e-5
        checked = 0
        for trial in range(10):
            n = int(rng.integers(1, 4))
            entries = []
            for _ in range(int(rng.integers(1, 5))):
                alpha = tuple(int(a) for a in rng.integers(0, 3, size=n))
                if sum(alpha) > 5:
                    continue
                c = complex(rng.normal(), rng.normal()) * 0.3
                entries.append((alpha, c))
            if not entries:
                continue
            sym = PolySymbol.from_tables([entries], n, certify=False)
            pts = (rng.random((100, n)) - 0.5) + 1j * (rng.random((100, n)) - 0.5)
            J = sym.jacobian_batch(pts)[:, 0, :]
            for j in range(n):
                zp = pts.copy()
                zm = pts.copy()
                zp[:, j] += step
                zm[:, j] -= step
                fd = (sym.evaluate_batch(zp)[:, 0] - sym.evaluate_batch(zm)[:, 0]) / (2 * step)
                scale = np.maximum(np.abs(J[:, j]), 1e-3)
                assert np.all(np.abs(fd - J[:, j]) / scale < 1e-6)
                checked += len(pts)
        assert checked >= 1000


class TestRestrict:
    def test_fix_to_one(self):
        f = product_symbol(2)
        r = f.restrict({1: 1.0})
        assert r.n_in == 1
        assert r.components[0] == (((1,), 1.0 + 0j),)

    def test_fix_to_zero(self):
        f = product_symbol(2)
        r = f.restrict({1: 0.0})
        assert r.components[0] == ()
        assert np.allclose(r.evaluate([0.3 + 0.2j]), [0.0])

    def test_power_sum_fold(self):
        g = power_sum_symbol(2)
        r = g.restrict({1: 1j})
        # (z1^2 + (i)^2)/2 = z1^2/2 - 1/2; fold oracle at 20 random points
        rng = np.random.default_rng(7)
        pts = (rng.random(20) - 0.5) + 1j * (rng.random(20) - 0.5)
        for z1 in pts:
            lhs = r.evaluate([z1])[0]
            rhs = g.evaluate([z1, 1j])[0]
            assert abs(lhs - rhs) < 1e-12
            assert abs(lhs - (z1 * z1 / 2 - 0.5)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_restrict_merge_consistency(self, data):
        n = data.draw(st.integers(2, 4))
        n_terms = data.draw(st.integers(1, 4))
        coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        entries = []
        for _ in range(n_terms):
            alpha = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
            entries.append((alpha, data.draw(coeff)))
        sym = PolySymbol.from_tables([entries], n, certify=False)
        k = data.draw(st.integers(1, n - 1))
        fixed_vars = data.draw(st.permutations(range(n))).copy()[:k]
        small = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
        fixed = {j: data.draw(small) for j in fixed_vars}
        free_vals = [data.draw(small) for _ in range(n - k)]
        it = iter(free_vals)
        merged = [fixed[j] if j in fixed else next(it) for j in range(n)]
        lhs = sym.restrict(fixed).evaluate(free_vals)[0]
        rhs = sym.evaluate(merged)[0]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestCertification:
    def test_product_map_certified(self):
        f = product_symbol(3)
        assert f.certificate is not None
        assert f.certificate.grid_max <= 1 + 1e-9

    def test_scaled_map_rejected(self):
        with pytest.raises(SymbolNotSelfMap):
            PolySymbol.monomial(1, (1,), coeff=1.1)

    def test_interior_map_strong(self):
        half = PolySymbol.monomial(2, (1, 0), coeff=0.5)
        assert half.certificate.strong

    def test_restrict_keeps_certificate_when_valid(self):
        g = power_sum_symbol(2)
        r = g.restrict({1: 0.5})
        assert r.certificate is not None


class TestLiteralFormat:
    def test_rows_shape(self):
        lit = [[[1.0, 0.0, 1, 1]]]  # z1 z2
        f = PolySymbol.from_literal(lit)
        assert f.n_in == 2
        assert np.allclose(f.evaluate([1j, 1j]), [-1.0])


def test_torus_point_unit_modulus():
    p = TorusPoint((0.3, 2.0, 5.9))
    assert np.allclose(np.abs(p.point()), 1.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polycarleson.battery import get_symbol
from polycarleson.sublevel import _interior_slice_max
from polycarleson.symbols import (
    DimensionMismatch,
    PolySymbol,
    SymbolNotSelfMap,
    TorusPoint,
    _normalize_table,
    cert_grid_res,
)

from oracles import diff_entries, eval_entries, eval_entries_batch, full_modulus_grid, torus_grid


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
            sym = PolySymbol(n_in=n, components=(_normalize_table(entries, n),))
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


@st.composite
def self_map_tables(draw, n_min=1):
    """(component tables, n) of a self-map: empty, constant and repeated components included."""
    n = draw(st.integers(n_min, 4))
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False,
                               allow_infinity=False)

    def table():
        kind = draw(st.sampled_from(["empty", "constant", "terms"]))
        if kind == "empty":
            return []
        if kind == "constant":
            return [((0,) * n, draw(coeff))]
        entries = [(tuple(draw(st.integers(0, 3)) for _ in range(n)), draw(coeff))
                   for _ in range(draw(st.integers(1, 4)))]
        total = sum(abs(c) for _, c in entries)
        return [(alpha, c / total) for alpha, c in entries]  # sum |c| = 1, so |P| <= 1

    tables = [table() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        tables.append(tables[0])
    return tables, n


def coefficient_margin(tables, res):
    """Largest sum |c| |alpha| over the tables, times half the grid step 2 pi / res."""
    return max(sum(abs(c) * sum(alpha) for alpha, c in t) for t in tables) * math.pi / res


class TestTorusGridBound:
    @settings(max_examples=30, deadline=None)
    @given(self_map_tables())
    def test_certificate_matches_full_grid(self, case):
        tables, n = case
        sym = PolySymbol.from_tables(tables, n)
        res = cert_grid_res(n)
        cert = sym.certificate
        assert cert.grid_res == res
        assert cert.grid_max == max(full_modulus_grid(t, n, res, np.float64).max()
                                    for t in sym.components)
        assert cert.lipschitz_margin == pytest.approx(coefficient_margin(sym.components, res),
                                                      rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(self_map_tables(n_min=2), st.data())
    def test_interior_slice_max_matches_full_grid(self, case, data):
        tables, n = case
        j = data.draw(st.integers(0, n - 1))
        sym = PolySymbol.from_tables(tables, n)
        res = cert_grid_res(n - 1)
        z = np.insert(torus_grid(n - 1, res), j, 0.0, axis=1)  # z_j = 0
        grid_max = max(np.abs(eval_entries_batch(t, z)).max() for t in sym.components)
        slice_tables = [[(alpha, c) for alpha, c in t if not alpha[j]] for t in sym.components]
        want = min(grid_max + coefficient_margin(slice_tables, res), 1.0)
        assert _interior_slice_max(sym, j) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCertification:
    def test_product_map_certified(self):
        f = product_symbol(3)
        assert f.certificate is not None
        assert f.certificate.grid_max <= 1 + 1e-9

    def test_scaled_map_rejected(self):
        with pytest.raises(SymbolNotSelfMap):
            PolySymbol.monomial(1, (1,), coeff=1.1)

    def test_overflowing_power_rejected(self):
        # z^(1e20) overflows on the grid: its maximum is NaN, never certified
        with pytest.raises(SymbolNotSelfMap, match="nan"):
            PolySymbol.from_literal([[[1, 0, 1e20]]])

    def test_interior_map_strong(self):
        half = PolySymbol.monomial(2, (1, 0), coeff=0.5)
        assert half.certificate.strong


class TestLiteralFormat:
    def test_rows_shape(self):
        lit = [[[1.0, 0.0, 1, 1]]]  # z1 z2
        f = PolySymbol.from_literal(lit)
        assert f.n_in == 2
        assert np.allclose(f.evaluate([1j, 1j]), [-1.0])

    @pytest.mark.parametrize("lit", [5, [[1.0, 0.0, 1]], [[[True, 0.0, 1]]]])
    def test_malformed_literal_rejected(self, lit):
        with pytest.raises(ValueError, match="symbol literal"):
            PolySymbol.from_literal(lit)

    @pytest.mark.parametrize("exponent", [1.5, True])
    def test_non_integral_exponent_rejected(self, exponent):
        with pytest.raises(ValueError):
            PolySymbol.from_literal([[[1.0, 0.0, exponent]]])
        with pytest.raises(ValueError, match="non-integral exponent"):
            PolySymbol.from_tables([[((exponent,), 1.0)]], 1)

    def test_integral_float_exponent_accepted(self):
        z2 = PolySymbol.monomial(1, (2,)).components
        assert PolySymbol.from_literal([[[1.0, 0.0, 2.0]]]).components == z2
        assert PolySymbol.from_tables([[((2.0,), 1.0)]], 1).components == z2


def test_torus_point_unit_modulus():
    p = TorusPoint((0.3, 2.0, 5.9))
    assert np.allclose(np.abs(p.point()), 1.0)

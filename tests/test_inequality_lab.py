import math

import numpy as np
import pytest

from polycarleson.battery import get_symbol
from polycarleson.contact import ContactRequired
from polycarleson.inequality_lab import (
    RegionRejected,
    linearization_bound_check,
    mobius_margin_check,
    schwarz_product_check,
)
from polycarleson.measure import AnnulusArc, merge_arcs
from polycarleson.symbols import PolySymbol, TorusPoint


def product_symbol(n):
    return PolySymbol.monomial(n, (1,) * n)


class TestMobiusMargin:
    def test_identity_constant_one(self):
        rep = mobius_margin_check(lambda x, k: x, [0.0])
        assert rep.passed
        assert rep.empirical_constant == pytest.approx(1.0, abs=1e-12)

    def test_square_at_least_one(self):
        rep = mobius_margin_check(lambda x, k: x * x, [0.0])
        assert rep.passed
        assert rep.empirical_constant >= 1.0 - 1e-12

    def test_mobius_family_floor(self):
        def family(x, k):
            return (x + k) / (1.0 + k * x)

        ks = np.linspace(0.0, 0.9, 10)
        rep = mobius_margin_check(family, ks, seed=3)
        assert rep.details["analytic_floor"] == pytest.approx(0.05)
        assert rep.passed
        assert rep.empirical_constant >= 0.05

    def test_worst_sample_reevaluates(self):
        def family(x, k):
            return (x + k) / (1.0 + k * x)

        rep = mobius_margin_check(family, [0.5], seed=4)
        x, k, delta = rep.worst_sample
        margin = (1.0 - abs(family(x, k))) / delta
        assert margin == pytest.approx(rep.empirical_constant, abs=1e-10)

    def test_rejects_non_self_map(self):
        with pytest.raises(ValueError):
            mobius_margin_check(lambda x, k: 1.2 * x, [0.0])


class TestLinearization:
    def test_linear_constant_exactly_one(self):
        f = PolySymbol.from_tables([[((1, 0), 0.6), ((0, 1), 0.4)]], 2)
        rep = linearization_bound_check(f, TorusPoint((0.0, 0.0)), 1.0, seed=5)
        assert rep.passed
        assert rep.empirical_constant == pytest.approx(1.0, abs=1e-9)

    def test_product_stabilizes(self):
        rep = linearization_bound_check(product_symbol(2), TorusPoint((0.0, 0.0)), 1.0, seed=6)
        assert rep.passed
        assert math.isfinite(rep.empirical_constant)

    def test_square_stabilizes(self):
        f = PolySymbol.monomial(1, (2,))
        rep = linearization_bound_check(f, TorusPoint((0.0,)), 1.0, seed=7)
        assert rep.passed

    def test_worst_sample_reevaluates(self):
        rep = linearization_bound_check(product_symbol(2), TorusPoint((0.0, 0.0)), 1.0, seed=8)
        z = np.array(rep.worst_sample)
        f = product_symbol(2)
        num = abs(f.evaluate(z)[0] - 1.0)
        grad = np.conj(1.0) * f.jacobian(np.ones(2, dtype=complex))[0]
        den = abs((z - 1.0) @ grad)
        assert num / den == pytest.approx(rep.empirical_constant, abs=1e-10)

    def test_requires_contact(self):
        with pytest.raises(ContactRequired):
            linearization_bound_check(product_symbol(2), TorusPoint((0.0, 0.0)), -1.0)


class TestSchwarzProduct:
    def region(self, depth, half):
        arc = merge_arcs([(-half, 2 * half)])
        return AnnulusArc(depths=(depth, depth), arcs=(arc, arc))

    def test_identity_equality(self):
        rep = schwarz_product_check(get_symbol("identity2"), self.region(0.3, 0.5), 1.0,
                                    samples=20_000, seed=9)
        assert rep.passed
        # (C/k!)^k = 1/4 with equality impossible; margin strictly positive
        assert rep.worst_violation >= 0.0

    def test_swap_map(self):
        swap = PolySymbol.from_tables([[((0, 1), 1.0)], [((1, 0), 1.0)]], 2)
        rep = schwarz_product_check(swap, self.region(0.3, 0.5), 1.0,
                                    samples=20_000, seed=10)
        assert rep.passed

    def test_coord_square_near_corner(self):
        sym = PolySymbol.from_tables([[((1, 0), 1.0)], [((0, 2), 1.0)]], 2)
        rep = schwarz_product_check(sym, self.region(0.05, 0.2), 1.9,
                                    samples=50_000, seed=11)
        assert rep.passed

    def test_jacobian_floor_rejection(self):
        sym = PolySymbol.from_tables([[((1, 0), 1.0)], [((0, 2), 1.0)]], 2)
        # |det| = 2|z2| dips below 1.9 on a deep region
        with pytest.raises(RegionRejected):
            schwarz_product_check(sym, self.region(0.5, 0.5), 1.9,
                                  samples=20_000, seed=12)

import math

from polycarleson import criteria
from polycarleson.battery import get_symbol
from polycarleson.criteria import (
    BOUNDED,
    EVIDENCE_CAP,
    INCONCLUSIVE,
    NECESSITY_FAILS,
    SUFFICIENCY_HOLDS,
    UNBOUNDED,
    check_rank_sufficiency,
    decide_bidisc,
    decide_tridisc,
)
from polycarleson.config import DEFAULTS
from polycarleson.contact import ContactSet, _stacked_rank
from polycarleson.symbols import PolySymbol, TorusPoint

TWO_PI = 2.0 * math.pi


def assert_failure_witness(sym, witness, index_set):
    """Re-evaluate a witness directly: a contact point where the Jacobian block is deficient."""
    z = witness.point.point()
    vals = sym.evaluate(z)
    assert max(1.0 - abs(vals[i]) for i in index_set) <= DEFAULTS.contact_tol
    block = sym.jacobian(z)[list(index_set), :]
    assert _stacked_rank(block[None], DEFAULTS.rank_tol, DEFAULTS.rank_band)[1][0] < len(index_set)


def product_entries(n):
    return [((1,) * n, 1.0)]


def stacked_product(n):
    """(f, ..., f, 0) with f = z1 ... zn."""
    return PolySymbol.from_tables([product_entries(n)] * (n - 1) + [[]], n)


def mean_product_map():
    return PolySymbol.from_tables(
        [[((1, 0), 0.5), ((0, 1), 0.5)], [((1, 1), 1.0)]], 2
    )


def coord_square_map():
    return PolySymbol.from_tables([[((1, 0), 1.0)], [((0, 2), 1.0)]], 2)


def damped_product_map():
    return PolySymbol.from_tables([[((1, 1), 1.0)], [((1, 1), 0.5)]], 2)


def repeated_product3():
    return PolySymbol.from_tables(
        [[((1, 1, 0), 1.0)], [((1, 1, 0), 1.0)], []], 3
    )


class TestRankSufficiency:
    def test_identity_holds(self):
        v = check_rank_sufficiency(get_symbol("identity2"))
        assert v.outcome == SUFFICIENCY_HOLDS
        assert len(v.evidence) == 3  # {0}, {1}, {0,1}

    def test_stacked_product_fails_on_pairs(self):
        v = check_rank_sufficiency(stacked_product(3), grid_res=96)
        assert v.outcome == NECESSITY_FAILS
        assert v.witness is not None
        assert v.witness.rank < v.witness.target
        assert len(v.witness_index_set) >= 2

    def test_coord_square_holds(self):
        v = check_rank_sufficiency(coord_square_map())
        assert v.outcome == SUFFICIENCY_HOLDS

    def test_witness_reverifies(self):
        sym = stacked_product(3)
        v = check_rank_sufficiency(sym, grid_res=96)
        assert_failure_witness(sym, v.witness, v.witness_index_set)

    def test_json_round_trip(self):
        import json

        v = check_rank_sufficiency(get_symbol("identity2"))
        data = json.loads(v.to_json())
        assert data["outcome"] == SUFFICIENCY_HOLDS


class TestBidisc:
    def test_identity_bounded(self):
        d = decide_bidisc(get_symbol("identity2"))
        assert d.outcome == BOUNDED

    def test_coord_square_bounded(self):
        d = decide_bidisc(coord_square_map())
        assert d.outcome == BOUNDED

    def test_damped_product_vacuously_bounded(self):
        d = decide_bidisc(damped_product_map())
        assert d.outcome == BOUNDED
        assert "vacuous" in d.detail

    def test_mean_product_unbounded_with_diagonal_witness(self):
        d = decide_bidisc(mean_product_map())
        assert d.outcome == UNBOUNDED
        assert d.witness is not None
        a1, a2 = d.witness.point.angles
        assert abs((a1 - a2 + math.pi) % TWO_PI - math.pi) < 1e-3
        # the witness re-fails on re-evaluation
        assert_failure_witness(mean_product_map(), d.witness, (0, 1))

    def test_hardy_space_reported(self):
        d = decide_bidisc(get_symbol("identity2"), beta=-0.5)
        assert any("H2" in s for s in d.spaces)

    def test_beta_does_not_change_outcome(self):
        for beta in (-0.5, 0.0, 1.0):
            assert decide_bidisc(mean_product_map(), beta=beta).outcome == UNBOUNDED


class TestTridisc:
    def test_identity_bounded(self):
        d = decide_tridisc(get_symbol("identity3"), grid_res=96)
        assert d.outcome == BOUNDED

    def test_stacked_product_bounded_via_entries(self):
        # pairs of equal components have dependent gradients but all six
        # derivative entries are unimodular on the contact set
        d = decide_tridisc(stacked_product(3), grid_res=96)
        assert d.outcome == BOUNDED

    def test_repeated_product_unbounded(self):
        d = decide_tridisc(repeated_product3(), grid_res=96)
        assert d.outcome == UNBOUNDED
        assert d.witness is not None
        assert d.witness_index_set == (0, 1)

    def test_derivative_entry_in_band_inconclusive(self):
        # the stacked pair has dependent gradients and unimodular entries, which
        # an entry tolerance of 5 puts inside (entry_band_floor, entry_tol)
        d = decide_tridisc(stacked_product(3), DEFAULTS.replace(entry_tol=5.0), grid_res=64)
        assert d.outcome == INCONCLUSIVE
        assert d.detail == "pair (0, 1) derivative entry in tolerance band"
        ev = d.evidence[-1]
        assert ev.index_set == (0, 1) and ev.min_rank == 1 and len(ev.reports) == 1

    def test_rank_in_band_inconclusive(self):
        # rank_band > 1 flags even the largest singular value as inconclusive
        config = DEFAULTS.replace(entry_tol=5.0, rank_band=2.0)
        d = decide_tridisc(stacked_product(3), config, grid_res=64)
        assert d.outcome == INCONCLUSIVE
        assert d.detail == "pair (0, 1) rank in tolerance band"
        assert d.witness is None
        assert d.evidence[-1].reports[0].inconclusive

    def test_decisive_point_past_evidence_cap(self, monkeypatch):
        # ((z1^2 + z2^2)/2, (z1 + z2)/2, z3): the pair (0, 1) has gradient rows
        # (z1, z2, 0) and (1/2, 1/2, 0), independent off the diagonal z1 = z2 and
        # dependent on it, where the zero d/dz3 entries decide Unbounded
        sym = PolySymbol.from_tables(
            [[((2, 0, 0), 0.5), ((0, 2, 0), 0.5)], [((1, 0, 0), 0.5), ((0, 1, 0), 0.5)],
             [((0, 0, 1), 1.0)]], 3)
        off = [(0.05 * k, 0.05 * k + 1.0, 0.0) for k in range(EVIDENCE_CAP + 8)]
        pair_points = off + [(0.5, 0.5, 0.0), (1.5, 1.5, 0.0)]

        def stub(sym_, index_set, grid_res=None, config=DEFAULTS):
            pts = pair_points if tuple(index_set) == (0, 1) else []
            return ContactSet(
                symbol=sym_, index_set=tuple(index_set), kind="finite" if pts else "empty",
                points=tuple(TorusPoint(p) for p in pts), residuals=(0.0,) * len(pts),
                grid_res=64, accepted_fraction=0.0, contact_tol=config.contact_tol,
            )

        monkeypatch.setattr(criteria, "find_contact_set", stub)
        d = decide_tridisc(sym)
        assert d.outcome == UNBOUNDED and d.witness_index_set == (0, 1)
        assert d.witness.point.angles == (0.5, 0.5, 0.0)
        assert d.witness.rank == 1
        ev = d.evidence[-1]
        assert ev.points_checked == len(pair_points)
        assert len(ev.reports) == EVIDENCE_CAP
        assert all(r.rank == 2 and r.passed for r in ev.reports)
        assert [r.point.angles for r in ev.reports] == [TorusPoint(p).angles for p in off[:EVIDENCE_CAP]]
        assert ev.min_rank == 1

    def test_sufficient_but_not_necessary_separation(self):
        sym = stacked_product(3)
        verdict = check_rank_sufficiency(sym, grid_res=96)
        decision = decide_tridisc(sym, grid_res=96)
        assert verdict.outcome == NECESSITY_FAILS
        assert decision.outcome == BOUNDED


class TestConsistency:
    def test_bidisc_matches_rank_sufficiency(self):
        battery = [
            get_symbol("identity2"),
            coord_square_map(),
            mean_product_map(),
            damped_product_map(),
            PolySymbol.from_tables([[((0, 1), 1.0)], [((1, 0), 1.0)]], 2),  # swap
        ]
        for sym in battery:
            d = decide_bidisc(sym)
            v = check_rank_sufficiency(sym)
            if d.outcome == BOUNDED:
                # the joint clause of the sufficiency check must pass too
                joint = [e for e in v.evidence if e.index_set == (0, 1)][0]
                assert joint.min_rank in (None, 2)
            else:
                assert v.outcome == NECESSITY_FAILS

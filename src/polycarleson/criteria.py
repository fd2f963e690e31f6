"""Boundedness deciders built on contact sets and Jacobian rank.

The full-rank sufficiency criterion asks that every component subset attain
full rank at each of its torus contact points; it is sufficient for
boundedness on every weighted Bergman space and on the Hardy space.  On the
bidisc the joint-contact rank condition is also necessary, giving a complete
decision procedure; on the tridisc (classical Bergman space) the complete
criterion additionally accepts pairs whose gradients are dependent as long as
all their partial derivatives stay away from zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, LabConfig
from .contact import ContactSet, RankBatch, RankReport, find_contact_set, rank_report
from .inequality_lab import jc_check
from .output import json_text
from .symbols import PolySymbol, TorusPoint

SUFFICIENCY_HOLDS = "SufficiencyHolds"
NECESSITY_FAILS = "NecessityFails"
INCONCLUSIVE = "Inconclusive"

BOUNDED = "Bounded"
UNBOUNDED = "Unbounded"

EVIDENCE_CAP = 32


@dataclass(frozen=True)
class IndexEvidence:
    index_set: tuple[int, ...]
    contact_kind: str
    points_checked: int
    min_rank: int | None
    reports: tuple[RankReport, ...]  # capped sample of the per-point reports
    jc_passed: bool | None           # singleton sanity layer, None for |I| > 1

    def to_dict(self) -> dict:
        return {
            "index_set": list(self.index_set),
            "contact_kind": self.contact_kind,
            "points_checked": self.points_checked,
            "min_rank": self.min_rank,
            "jc_passed": self.jc_passed,
            "reports": [
                {
                    "angles": list(r.point.angles),
                    "singular_values": list(r.singular_values),
                    "rank": r.rank,
                    "target": r.target,
                    "passed": r.passed,
                    "inconclusive": r.inconclusive,
                }
                for r in self.reports
            ],
        }


class _WitnessedResult:
    """JSON encoding shared by verdicts and decisions: head fields, evidence, witness."""

    def _encode(self, head: dict) -> dict:
        d = {
            **head,
            "evidence": [e.to_dict() for e in self.evidence],
            "tolerances": self.config.to_dict(),
        }
        if self.witness is not None:
            d["witness"] = {
                "angles": list(self.witness.point.angles),
                "index_set": list(self.witness_index_set or ()),
                "rank_found": self.witness.rank,
                "rank_required": self.witness.target,
                "singular_values": list(self.witness.singular_values),
            }
        return d

    def to_json(self) -> str:
        return json_text(self.to_dict())


@dataclass(frozen=True, kw_only=True)
class Verdict(_WitnessedResult):
    outcome: str  # SufficiencyHolds | NecessityFails | Inconclusive
    witness: RankReport | None = None
    witness_index_set: tuple[int, ...] | None = None
    evidence: tuple[IndexEvidence, ...]
    reason: str
    config: LabConfig

    def to_dict(self) -> dict:
        return self._encode({"outcome": self.outcome, "reason": self.reason})


@dataclass(frozen=True, kw_only=True)
class Decision(_WitnessedResult):
    outcome: str  # Bounded | Unbounded | Inconclusive
    spaces: tuple[str, ...]
    witness: RankReport | None = None
    witness_index_set: tuple[int, ...] | None = None
    detail: str
    evidence: tuple[IndexEvidence, ...]
    config: LabConfig

    def to_dict(self) -> dict:
        return self._encode({"outcome": self.outcome, "spaces": list(self.spaces),
                             "detail": self.detail})


def _evidence(index_set: tuple[int, ...], cs: ContactSet, ranks: RankBatch, checked: int,
              jc_passed: bool | None = None) -> IndexEvidence:
    """Evidence from the rank rows of the first ``checked`` contact points."""
    return IndexEvidence(
        index_set=index_set, contact_kind=cs.kind, points_checked=len(cs.points),
        min_rank=int(ranks.ranks[:checked].min()) if checked else None,
        reports=tuple(ranks.report(k) for k in range(min(checked, EVIDENCE_CAP))),
        jc_passed=jc_passed,
    )


def _rank_walk(sym: PolySymbol, index_sets, config: LabConfig, grid_res: int | None):
    """Rank the Jacobian block on each index set's contact set, lazily, in order.

    Yields (index set, contact set, RankBatch, evidence over every point, the
    first rank-deficient point's report or None).  Singleton sets also run the
    boundary-derivative sanity layer on their first EVIDENCE_CAP points.
    """
    for index_set in index_sets:
        cs = find_contact_set(sym, index_set, grid_res=grid_res, config=config)
        ranks = rank_report(sym, index_set, cs.points, config)
        deficient = np.flatnonzero((ranks.ranks < ranks.target) & ~ranks.inconclusive)
        jc_passed = None
        if len(index_set) == 1 and len(cs.points):
            comp = sym.component(index_set[0])
            points = [TorusPoint(tuple(a)) for a in cs.points[:EVIDENCE_CAP].tolist()]
            values = (comp.evaluate(pt.point())[0] for pt in points)
            jc_passed = all(jc_check(comp, pt, v / abs(v), config).passed
                            for pt, v in zip(points, values))
        yield (index_set, cs, ranks, _evidence(index_set, cs, ranks, len(cs.points), jc_passed),
               ranks.report(int(deficient[0])) if deficient.size else None)


def _joint_rank(sym: PolySymbol, spaces: tuple[str, ...], where: str, band: str,
                config: LabConfig, grid_res: int | None) -> tuple[IndexEvidence, Decision | None]:
    """Rank step on the joint contact set: its evidence and the decision it forces.

    Unbounded at a singular point, Inconclusive (detail ``band``) for a rank in
    the tolerance band, None when the Jacobian is invertible everywhere on it.
    """
    full = tuple(range(sym.n_out))
    _, _, ranks, ev, failure = next(_rank_walk(sym, [full], config, grid_res))
    if failure is not None:
        return ev, Decision(outcome=UNBOUNDED, spaces=spaces, witness=failure,
                            witness_index_set=full, evidence=(ev,), config=config,
                            detail=f"Jacobian singular at a {where} contact point")
    if ranks.inconclusive.any():
        return ev, Decision(outcome=INCONCLUSIVE, spaces=spaces, detail=band, evidence=(ev,),
                            config=config)
    return ev, None


def check_rank_sufficiency(sym: PolySymbol, config: LabConfig = DEFAULTS,
                           grid_res: int | None = None) -> Verdict:
    """Full-rank sufficiency over every component subset and its contact set.

    Passing means every Jacobian block d_zeta Phi_I has rank |I| wherever
    Phi_I touches the torus; the composition operator is then bounded on every
    weighted Bergman space and on the Hardy space.  The first rank-deficient
    contact point is returned as a witness.  Singleton subsets also run the
    boundary-derivative sanity layer rather than assuming it.
    """
    sym.require_certificate()
    if sym.n_in != sym.n_out:
        raise ValueError("rank sufficiency applies to self-maps (square symbols)")
    n = sym.n_in
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, n + 1))
    evidence: list[IndexEvidence] = []
    reason = ""
    for index_set, _, ranks, ev, failure in _rank_walk(sym, subsets, config, grid_res):
        evidence.append(ev)
        if failure is not None:
            return Verdict(
                outcome=NECESSITY_FAILS, witness=failure, witness_index_set=index_set,
                evidence=tuple(evidence), config=config,
                reason=f"rank {failure.rank} < {failure.target} at a contact point "
                       f"of components {index_set}",
            )
        if not reason and ranks.inconclusive.any():
            reason = f"singular values in the tolerance band for components {index_set}"
        elif not reason and ev.jc_passed is False:
            reason = f"boundary derivative sanity check failed for component {index_set[0]}"
    return Verdict(outcome=INCONCLUSIVE if reason else SUFFICIENCY_HOLDS,
                   reason=reason or "all contact ranks full", evidence=tuple(evidence),
                   config=config)


def decide_bidisc(sym: PolySymbol, beta: float = 0.0,
                  config: LabConfig = DEFAULTS, grid_res: int | None = None) -> Decision:
    """Complete boundedness decision on the bidisc.

    Bounded iff the Jacobian is invertible at every point of the joint contact
    set (vacuously when the map never touches T^2).  The criterion does not
    depend on the weight; beta only labels the space in the report, and the
    same verdict covers the Hardy space.
    """
    sym.require_certificate()
    if sym.n_in != 2 or sym.n_out != 2:
        raise ValueError("bidisc decision needs a self-map of D^2")
    spaces = (f"A2_beta(D^2), beta={float(beta):g}", "H2(D^2)")
    ev, decision = _joint_rank(sym, spaces, "joint", "rank within the tolerance band",
                               config, grid_res)
    if decision is not None:
        return decision
    detail = "no joint contact with T^2 (vacuously bounded)" if ev.contact_kind == "empty" \
        else "Jacobian invertible on the joint contact set"
    return Decision(outcome=BOUNDED, spaces=spaces, detail=detail, evidence=(ev,), config=config)


def decide_tridisc(sym: PolySymbol, config: LabConfig = DEFAULTS,
                   grid_res: int | None = None) -> Decision:
    """Complete boundedness decision on the tridisc, classical Bergman space.

    Requires an invertible Jacobian on the full contact set, and for every
    component pair either independent gradients (rank 2) or all six partial
    derivatives bounded away from zero on the pairwise contact set.  Entries
    with modulus inside (entry_band_floor, entry_tol) are a gray zone and give
    an inconclusive verdict rather than a forced call.
    """
    sym.require_certificate()
    if sym.n_in != 3 or sym.n_out != 3:
        raise ValueError("tridisc decision needs a self-map of D^3")
    spaces = ("A2(D^3)",)
    ev, decision = _joint_rank(sym, spaces, "full", "full-rank check inside the tolerance band",
                               config, grid_res)
    if decision is not None:
        return decision
    evidence, pairs = [ev], itertools.combinations(range(3), 2)
    for pair, cs, ranks, ev, _ in _rank_walk(sym, pairs, config, grid_res):
        min_entry = np.abs(ranks.jacobians).min(axis=(1, 2))
        # a point decides the pair unless its gradients are independent
        # (condition (a)) or every derivative entry is away from zero (condition (b))
        decisive = np.flatnonzero(~ranks.passed & (min_entry <= config.entry_tol))
        if not decisive.size:
            evidence.append(ev)
            continue
        k = int(decisive[0])
        evidence.append(_evidence(pair, cs, ranks, k + 1))
        if ranks.inconclusive[k] or min_entry[k] > config.entry_band_floor:
            what = "rank" if ranks.inconclusive[k] else "derivative entry"
            return Decision(outcome=INCONCLUSIVE, spaces=spaces, evidence=tuple(evidence),
                            detail=f"pair {pair} {what} in tolerance band", config=config)
        return Decision(outcome=UNBOUNDED, spaces=spaces, witness=ranks.report(k),
                        witness_index_set=pair, evidence=tuple(evidence), config=config,
                        detail=f"pair {pair}: dependent gradients and a vanishing derivative "
                               f"entry (min modulus {min_entry[k]:.2e})")
    return Decision(outcome=BOUNDED, spaces=spaces, evidence=tuple(evidence), config=config,
                    detail="all contact-rank and derivative-entry conditions hold")

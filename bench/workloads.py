"""Benchmark workloads: the operations each one issues and what they must return.

Each workload is a fixed list of library calls, run in order by one closed-loop
client.  The only seed-dependent inputs are the Monte Carlo seeds, derived per
operation from the workload seed; the `decide` workload is deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

GRID_4_9 = tuple(2.0**-k for k in range(4, 10))
GRID_4_8 = tuple(2.0**-k for k in range(4, 9))
GRID_3_7 = tuple(2.0**-k for k in range(3, 8))

# Symbols that are not in the battery, as (tables, n_in) for PolySymbol.from_tables.
# general2 = ((z1 + z2 + z1 z2)/3, z2): its first component is neither a monomial
# nor separable, so proposals go through the value-fiber Newton solve.
# general3 = ((z1 + z2)/2, (z2 + z3)/2, z1 z2 z3): a non-monomial tridisc map whose
# contact sets need the full 256^3 grid screen.
LOCAL_SYMBOLS = {
    "general2": ([[((1, 0), 1 / 3), ((0, 1), 1 / 3), ((1, 1), 1 / 3)], [((0, 1), 1.0)]], 2),
    "general3": ([[((1, 0, 0), 0.5), ((0, 1, 0), 0.5)],
                  [((0, 1, 0), 0.5), ((0, 0, 1), 0.5)],
                  [((1, 1, 1), 1.0)]], 3),
}


@dataclass(frozen=True)
class Op:
    """One library call and its oracle.

    kind is "fit" (fit_exponent), "scan" (ratio_growth_scan), "bidisc"
    (decide_bidisc), "tridisc" (decide_tridisc) or "rank"
    (check_rank_sufficiency).  Fits and scans must land within `tol` of
    `target` with every point trusted; decisions must return `expect`.
    """

    label: str
    kind: str
    symbol: str
    beta: float = 0.0
    grid: tuple[float, ...] = ()
    budget: int = 0
    shrink: tuple[int, ...] = ()
    target: float = 0.0
    tol: float = 0.0
    expect: str = ""
    grid_res: int | None = None


def _fit(symbol, grid, budget, target, tol):
    return Op(symbol, "fit", symbol, grid=grid, budget=budget, target=target, tol=tol)


def _scan(label, symbol, shrink, target, tol, beta=0.0):
    return Op(label, "scan", symbol, beta=beta, grid=GRID_3_7, budget=2_000_000,
              shrink=shrink, target=target, tol=tol)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Single-binding sublevel estimates: sampler, polynomial evaluation and the
    # leakage audit do the work; angle-sum windows (products) and separable arcs
    # (power sums).  No contact grid, cap quadrature or decider runs.
    "exponent": (
        _fit("product2", GRID_4_9, 2_000_000, 3.0, 0.15),
        _fit("product3", GRID_4_9, 2_000_000, 4.0, 0.15),
        _fit("powersum2", GRID_4_9, 2_000_000, 3.5, 0.2),
        _fit("powersum3", GRID_4_8, 4_000_000, 5.0, 0.2),
    ),
    # The same estimator with joint bindings, cap quadrature for every box, a
    # weight near the Hardy limit and, through general2, the value-fiber solve.
    "scan": (
        _scan("stacked_product3", "stacked_product3", (1, 1, 0), 0.0, 0.1),
        _scan("stacked_product4", "stacked_product4", (1, 1, 1, 0), -1.0, 0.2),
        _scan("mean_product", "mean_product", (1, 1), -0.5, 0.2),
        _scan("coord_square.beta-0.9", "coord_square", (1, 1), 0.0, 0.1, beta=-0.9),
        _scan("general2", "general2", (1, 1), 0.0, 0.2),
    ),
    # No Monte Carlo: contact grids, Newton refinement and rank checks.  The
    # general3 rank check runs before its tridisc decision so that the decision
    # reuses the cached 256^3 grids, as one CLI process would.
    "decide": (
        Op("identity2", "bidisc", "identity2", expect="Bounded"),
        Op("coord_square", "bidisc", "coord_square", expect="Bounded"),
        Op("damped_product", "bidisc", "damped_product", expect="Bounded"),
        Op("swap2", "bidisc", "swap2", expect="Bounded"),
        Op("mean_product", "bidisc", "mean_product", expect="Unbounded"),
        Op("mixed_pair", "bidisc", "mixed_pair", expect="Unbounded"),
        Op("stacked_product3.tridisc", "tridisc", "stacked_product3", expect="Bounded",
           grid_res=128),
        Op("stacked_product3.rank", "rank", "stacked_product3", expect="NecessityFails",
           grid_res=128),
        Op("repeated_product3.tridisc", "tridisc", "repeated_product3", expect="Unbounded",
           grid_res=128),
        Op("general3.rank", "rank", "general3", expect="SufficiencyHolds"),
        Op("general3.tridisc", "tridisc", "general3", expect="Bounded"),
    ),
}


def derive_seed(seed: int, *parts) -> int:
    """31-bit seed for one operation, a pure function of the workload seed and labels."""
    key = "/".join(str(p) for p in (seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little") >> 1


def scaled(op: Op, budget_scale: float) -> Op:
    """The op with its Monte Carlo budget multiplied by budget_scale (at least 1000)."""
    if not op.budget or budget_scale == 1.0:
        return op
    return replace(op, budget=max(1000, int(op.budget * budget_scale)))

"""Shared tolerance and budget configuration.

Every numerical tolerance used anywhere in the package lives here so that a
single config object can be threaded through experiments and serialized into
reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class LabConfig:
    # contact-set detection
    contact_tol: float = 1e-8
    coarse_margin: float = 1e-2
    merge_radius: float = 1e-4
    manifold_frac: float = 0.05
    posdim_sample_cap: int = 4096
    fiber_cap: int = 64
    # a "finite" detection with more separated points than this is really a
    # sampled curve that slipped under manifold_frac; reclassify it
    finite_cap: int = 256

    # numerical rank: sigma_k counts iff sigma_k > rank_tol * sigma_1; values in
    # the open band (rank_tol, rank_band) * sigma_1 are flagged inconclusive
    rank_tol: float = 1e-8
    rank_band: float = 1e-4

    # tridisc entry test: |dphi/dz| must exceed entry_tol; the band
    # (entry_band_floor, entry_tol) is inconclusive
    entry_tol: float = 1e-6
    entry_band_floor: float = 1e-8

    # boundary derivative (Julia-Caratheodory) sanity check
    jc_tol: float = 1e-6

    # gradient constancy on interior slices
    slice_tol: float = 1e-8

    # importance-sampling proposal margin K: radial depth K/2*delta, angular
    # window K/2*delta for monomial constraints, arcs K*sqrt(delta) around
    # finite value fibers.  K=4 keeps hit rates compatible with the pinned
    # budgets while still dominating the provable containment constants of the
    # battery symbols; the leakage audit guards the margin at runtime.
    proposal_margin: float = 4.0

    # Monte Carlo trust machinery.  Estimates are a pure function of (seed,
    # budget): their batch layouts depend on the budget alone (montecarlo),
    # and thread count never enters.
    leakage_fraction: float = 0.1     # audit budget as a fraction of the main budget
    leakage_threshold: float = 0.01   # leakage above this fraction of the estimate -> UNTRUSTED
    zero_hit_factor: float = 3.0      # one-sided bound: factor/budget * region mass

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **kw) -> "LabConfig":
        return dataclasses.replace(self, **kw)


DEFAULTS = LabConfig()

# symbol certification: the torus-grid self-map screen rejects a grid maximum
# above 1 + CERT_TOL.  Symbols are certified when they are built, before any
# run's LabConfig exists, so no config can change it.
CERT_TOL = 1e-9


def contact_grid_res(n: int) -> int:
    """Default contact-detection grid resolution per angle.

    High dimensions get coarser grids so that one grid holds at most
    res^n <= 2^24 cells (64 MiB of float32).
    """
    if n <= 3:
        return 256
    table = {4: 64, 5: 27, 6: 16}
    if n not in table:
        raise ValueError(f"contact grids not supported for n={n}")
    return table[n]


def cert_grid_res(n: int) -> int:
    """Self-map certification grid resolution per angle."""
    table = {1: 256, 2: 96, 3: 64, 4: 24, 5: 12, 6: 8}
    if n not in table:
        raise ValueError(f"certification grid undefined for n={n}")
    return table[n]

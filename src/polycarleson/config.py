"""Verdict tolerances and grid resolutions.

``LabConfig`` holds the tolerances that decide a rank verdict or a property
check, so a run can state them and a config file can set them.  The measure
route (sublevel fits, Carleson scans and their proposals) reads none of
them: a value fiber keeps the contact set's own default ``contact_tol``.
Constants that shape how the estimators and the contact search work (the
proposal margin, the leakage audit's trust rule, the contact-detection caps)
live in the modules that read them, and no run can change them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class LabConfig:
    # a component counts as unimodular at a point within contact_tol of 1
    contact_tol: float = 1e-8

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

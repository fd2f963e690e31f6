"""Numerical laboratory for composition-operator boundedness on weighted
Bergman spaces over the polydisc."""

from .carleson import RatioScan, preimage_box_ratio, ratio_growth_scan
from .config import DEFAULTS, LabConfig
from .contact import (
    ContactRequired,
    ContactSet,
    RankReport,
    find_contact_set,
)
from .criteria import Decision, Verdict, check_rank_sufficiency, decide_bidisc, decide_tridisc
from .fitting import FitRefused
from .inequality_lab import jc_check, slice_gradient_constancy
from .measure import (
    AnnulusArc,
    CarlesonBox,
    WeightParam,
    carleson_box_measure,
    disc_cap_measure,
    radial_sample,
    restricted_sample,
    sample_polydisc,
)
from .sublevel import (
    ExponentFit,
    SublevelEstimate,
    SublevelQuery,
    build_proposal,
    estimate_sublevel,
    fit_exponent,
)
from .symbols import PolySymbol, SymbolNotCertified, SymbolNotSelfMap, TorusPoint

__all__ = [
    "AnnulusArc",
    "CarlesonBox",
    "ContactRequired",
    "ContactSet",
    "DEFAULTS",
    "Decision",
    "ExponentFit",
    "FitRefused",
    "LabConfig",
    "PolySymbol",
    "RankReport",
    "RatioScan",
    "SublevelEstimate",
    "SublevelQuery",
    "SymbolNotCertified",
    "SymbolNotSelfMap",
    "TorusPoint",
    "Verdict",
    "WeightParam",
    "build_proposal",
    "carleson_box_measure",
    "check_rank_sufficiency",
    "decide_bidisc",
    "decide_tridisc",
    "disc_cap_measure",
    "estimate_sublevel",
    "find_contact_set",
    "fit_exponent",
    "jc_check",
    "preimage_box_ratio",
    "radial_sample",
    "ratio_growth_scan",
    "restricted_sample",
    "sample_polydisc",
    "slice_gradient_constancy",
]

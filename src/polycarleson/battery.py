"""Named symbol registry and the pinned acceptance battery.

Every quantitative claim the package makes about itself is executed here with
recorded seeds, budgets, and grids.  The same runners back the ``battery`` CLI
subcommand and the acceptance test suite, so a published verdict pair (for
example: rank sufficiency fails while the tridisc decision is Bounded) always
comes from one process over one battery run.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .carleson import RatioScan, preimage_box_ratio, ratio_growth_scan
from .config import DEFAULTS, LabConfig
from .criteria import (
    BOUNDED,
    NECESSITY_FAILS,
    UNBOUNDED,
    check_rank_sufficiency,
    decide_bidisc,
    decide_tridisc,
)
from .fitting import FitRefused, loglog_wls
from .inequality_lab import (
    jc_check,
    linearization_bound_check,
    mobius_margin_check,
    schwarz_product_check,
    slice_gradient_constancy,
)
from .measure import (
    AnnulusArc,
    CarlesonBox,
    WeightParam,
    disc_cap_measure,
    merge_arcs,
)
from .output import csv_text, write_csv, write_json, write_result
from .sublevel import ExponentFit, fit_exponent
from .symbols import PolySymbol, TorusPoint

BASE_SEED = 20260801


# ---------------------------------------------------------------------------
# named symbols
# ---------------------------------------------------------------------------


def _identity(n):
    return [[(tuple(int(k == j) for k in range(n)), 1.0)] for j in range(n)]


def _product(n):
    return [((1,) * n, 1.0)]


def _power_sum(n):
    return [(tuple(n if k == j else 0 for k in range(n)), 1.0 / n) for j in range(n)]


# name -> component tables of (multi-index, coefficient) rows; the first
# component of every symbol is nonempty, and its multi-indices give n
SYMBOL_TABLES = {
    "identity1": _identity(1),
    "identity2": _identity(2),
    "identity3": _identity(3),
    "product1": [_product(1)],
    "product2": [_product(2)],
    "product3": [_product(3)],
    "product4": [_product(4)],
    "powersum2": [_power_sum(2)],
    "powersum3": [_power_sum(3)],
    "stacked_product3": [_product(3)] * 2 + [[]],
    "stacked_product4": [_product(4)] * 3 + [[]],
    "mean_product": [[((1, 0), 0.5), ((0, 1), 0.5)], [((1, 1), 1.0)]],
    "coord_square": [[((1, 0), 1.0)], [((0, 2), 1.0)]],
    "damped_product": [[((1, 1), 1.0)], [((1, 1), 0.5)]],
    "repeated_product3": [[((1, 1, 0), 1.0)], [((1, 1, 0), 1.0)], []],
    "mixed_pair": [[((1, 0), 0.5), ((0, 1), 0.5)], [((1, 1), 0.5), ((0, 0), 0.5)]],
    "swap2": [[((0, 1), 1.0)], [((1, 0), 1.0)]],
    "half_scale2": [[((1, 0), 0.5)], [((0, 1), 0.5)]],
}

SYMBOL_NAMES = tuple(SYMBOL_TABLES)


@functools.cache
def get_symbol(name: str) -> PolySymbol:
    if name not in SYMBOL_TABLES:
        raise KeyError(f"unknown battery symbol {name!r}")
    tables = SYMBOL_TABLES[name]
    return PolySymbol.from_tables(tables, len(tables[0][0][0]))


# ---------------------------------------------------------------------------
# pinned manifest
# ---------------------------------------------------------------------------

GRID_4_9 = tuple(2.0**-k for k in range(4, 10))
GRID_4_8 = tuple(2.0**-k for k in range(4, 9))
GRID_3_9 = tuple(2.0**-k for k in range(3, 10))
GRID_3_7 = tuple(2.0**-k for k in range(3, 8))


@dataclass(frozen=True)
class FitCase:
    """One pinned sublevel-volume exponent fit of a battery symbol at eta = 1."""

    symbol: str
    beta: float
    grid: tuple[float, ...]
    budget: int
    seed: int

    @property
    def artifact(self) -> tuple[str, str]:
        """(file stem, chart title) of the fit's CSV and SVG."""
        return (f"exponent_{self.symbol}_beta{self.beta:g}",
                f"{self.symbol} volume scaling, beta={self.beta:g}")

    def run(self, threads=None) -> ExponentFit:
        return fit_exponent(get_symbol(self.symbol), 1.0, WeightParam(self.beta),
                            delta_grid=self.grid, budget=self.budget, seed=self.seed,
                            threads=threads)


@dataclass(frozen=True)
class ScanCase:
    """One pinned Carleson ratio scan of a battery symbol about the torus point 0.

    A checked scan needs |slope - target| <= tolerance; a reference scan that no
    slope check reads leaves both unset.
    """

    symbol: str
    shrink: tuple[bool, ...]
    grid: tuple[float, ...]
    budget: int
    seed: int
    target: float | None = None
    tolerance: float | None = None
    beta: float = 0.0

    @property
    def artifact(self) -> tuple[str, str]:
        """(file stem, chart title) of the scan's CSV and SVG."""
        return f"scan_{self.symbol}", f"{self.symbol} ratio growth"

    def run(self, threads=None) -> RatioScan:
        sym = get_symbol(self.symbol)
        return ratio_growth_scan(sym, TorusPoint((0.0,) * sym.n_out), self.shrink,
                                 WeightParam(self.beta), self.grid, self.budget,
                                 seed=self.seed, threads=threads)


MANIFEST = {
    "product_exponent": {
        "cases": (
            FitCase("product1", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 11),
            FitCase("product2", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 12),
            FitCase("product3", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 13),
            FitCase("product2", 1.0, GRID_4_9, 10_000_000, BASE_SEED + 14),
            FitCase("product2", -0.5, GRID_4_9, 10_000_000, BASE_SEED + 15),
        ),
        "law": lambda n, beta: n * (beta + 1.0) + 1.0,
        "tolerance": 0.15,
        "max_seconds": 300.0,
    },
    "power_sum_exponent": {
        "cases": (
            FitCase("powersum2", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 21),
            FitCase("powersum3", 0.0, GRID_4_8, 20_000_000, BASE_SEED + 22),
        ),
        "law": lambda n, beta: n * (beta + 1.0) + (n + 1.0) / 2.0,
        "tolerance": 0.2,
        "max_seconds": None,
    },
    "sandwich_bounds": {
        # read from the beta-0 fits of criteria 1 and 2
        "symbols": ("product2", "product3", "powersum2", "powersum3"),
        "lower": lambda n: n + 1.0,
        "upper": lambda n: (3.0 * n + 1.0) / 2.0,
        "margin": 0.2,
    },
    "disc_cap_scaling": {
        "betas": (-0.5, 0.0, 1.0),
        "grid": GRID_3_9,
        "tolerance": 0.05,
        "max_seconds": 10.0,
    },
    "sharpness_scans": {
        "bounded3": ScanCase("stacked_product3", (True, True, False), GRID_3_7,
                             10_000_000, BASE_SEED + 51, target=0.0, tolerance=0.1),
        "unbounded4": ScanCase("stacked_product4", (True, True, True, False), GRID_3_7,
                               10_000_000, BASE_SEED + 52, target=-1.0, tolerance=0.2),
    },
    "bidisc": {
        "bounded": ("identity2", "coord_square", "damped_product"),
        "unbounded": "mean_product",
        "scan": ScanCase("mean_product", (True, True), GRID_3_7, 10_000_000,
                         BASE_SEED + 61, target=-0.5, tolerance=0.2),
    },
    "tridisc": {
        "bounded": "stacked_product3",
        "unbounded": "repeated_product3",
        "scan": ScanCase("repeated_product3", (True, True, False), GRID_3_7, 10_000_000,
                         BASE_SEED + 71, target=-1.0, tolerance=0.2),
        "grid_res": 128,
    },
    "beta_uniformity": {
        # criterion 9 reruns the reference scan at betas[i] with seed + 104729 * i
        "betas": (-0.9, -0.5, -0.1),
        "seed": BASE_SEED + 91,
        "reference": ScanCase("coord_square", (True, True), GRID_3_7, 2_000_000,
                              BASE_SEED + 92),
        "slope_tolerance": 0.1,
        "max_ratio_factor": 10.0,
    },
    "property_battery": {
        "seed": BASE_SEED + 101,
        "identity_boxes": 20,
        "identity_betas": (-0.5, 0.0, 1.0),
        "identity_budget": 500_000,
    },
    "determinism": {
        "exponent": FitCase("product2", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 111),
        "scan": ScanCase("stacked_product3", (True, True, False), GRID_3_7, 2_000_000,
                         BASE_SEED + 112),
        "thread_counts": (1, 4, 8),
    },
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    untrusted: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name}"


@dataclass
class BatteryRun:
    """One battery run: its output directory, threads, tolerances and memo.

    The tolerances reach its decisions and property checks; fits and scans
    read none.  The memo keys fits and scans by their frozen case and
    criterion results by number, so a criterion that needs another's fit or
    scan reads it instead of recomputing it.  Decisions are not memoised:
    their contact sets are cached in ``contact``, so deciding again is cheap.
    """

    out_dir: Path | str | None = None
    threads: int | None = None
    config: LabConfig = DEFAULTS
    memo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def _memo(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def result(self, case: FitCase | ScanCase):
        """The case's fit or scan; its CSV and SVG are written once, when it is computed."""

        def compute():
            result = case.run(self.threads)
            stem, title = case.artifact
            self.write_result(stem, result, title)
            return result

        return self._memo(case, compute)

    def criterion(self, number: int) -> CriterionResult:
        """Criterion ``number``'s result; a fit or scan it refuses fails it as untrusted."""

        def check():
            name, run_criterion = CRITERIA[number]
            try:
                passed, details, untrusted = run_criterion(self)
            except FitRefused as exc:
                passed, details, untrusted = False, {"refused": str(exc)}, True
            return CriterionResult(number, name, passed, details, untrusted)

        return self._memo(number, check)

    def write_json(self, filename: str, payload) -> None:
        if self.out_dir is not None:
            write_json(self.out_dir / filename, payload)

    def write_result(self, stem: str, result, title: str) -> None:
        """Write a fit's or scan's CSV and chart when the run has an output directory."""
        if self.out_dir is not None:
            write_result(self.out_dir, stem, result, title)


def _fit_case(run: BatteryRun, case: FitCase, spec: dict) -> dict:
    """Fit one case and check the slope against ``spec``'s law.

    A refused fit is a failed, untrusted case that carries the refusal message.
    """
    target = spec["law"](get_symbol(case.symbol).n_in, case.beta)
    t0 = time.perf_counter()
    try:
        fit = run.result(case)
    except FitRefused as exc:
        return {"target": target, "refused": str(exc), "ok": False, "untrusted": True}
    seconds = time.perf_counter() - t0
    limit = spec["max_seconds"]
    ok = abs(fit.slope - target) <= spec["tolerance"] and (limit is None or seconds <= limit)
    return {"slope": fit.slope, "target": target, "stderr": fit.slope_stderr,
            "seconds": round(seconds, 2), "ok": ok,
            "untrusted": any(not p.trusted for p in fit.points)}


def _scan_case(run: BatteryRun, case: ScanCase) -> dict:
    """Scan one case and check the slope against its target.

    A refused scan is a failed, untrusted case that carries the refusal message.
    """
    try:
        scan = run.result(case)
    except FitRefused as exc:
        return {"target": case.target, "tolerance": case.tolerance, "refused": str(exc),
                "ok": False, "untrusted": True}
    return {"slope": scan.slope, "target": case.target, "tolerance": case.tolerance,
            "ok": abs(scan.slope - case.target) <= case.tolerance,
            "untrusted": any(not e.trusted for e in scan.estimates)}


def _all_ok(details: dict) -> bool:
    return all(d["ok"] for d in details.values())


def _cases_verdict(details: dict):
    """(passed, details, untrusted) for details that are all runner cases."""
    return _all_ok(details), details, any(d["untrusted"] for d in details.values())


# ---------------------------------------------------------------------------
# criteria: each takes the run and returns (passed, details, untrusted)
# ---------------------------------------------------------------------------


def _exponent_criterion(run: BatteryRun, spec: dict):
    return _cases_verdict(
        {f"{c.symbol}, beta={c.beta:g}": _fit_case(run, c, spec) for c in spec["cases"]})


def criterion_1(run: BatteryRun):
    """Product-symbol volume exponent: slope n(beta+1)+1 within 0.15."""
    return _exponent_criterion(run, MANIFEST["product_exponent"])


def criterion_2(run: BatteryRun):
    """Power-sum volume exponent: slope n(beta+1)+(n+1)/2 within 0.2."""
    return _exponent_criterion(run, MANIFEST["power_sum_exponent"])


def criterion_3(run: BatteryRun):
    """Sandwich bounds: every nondegenerate battery scalar fits inside
    [n+1-0.2, (3n+1)/2+0.2] at beta 0 for n in {2, 3}."""
    spec = MANIFEST["sandwich_bounds"]
    beta0 = {c.symbol: c for key in ("product_exponent", "power_sum_exponent")
             for c in MANIFEST[key]["cases"] if c.beta == 0.0}
    details = {}
    for name in spec["symbols"]:
        n = get_symbol(name).n_in
        lo, hi = spec["lower"](n) - spec["margin"], spec["upper"](n) + spec["margin"]
        slope = run.result(beta0[name]).slope
        details[name] = {"slope": slope, "band": (lo, hi), "ok": lo <= slope <= hi}
    return _all_ok(details), details, False


def criterion_4(run: BatteryRun):
    """Disc-cap scaling: quadrature slope of A_beta(D(1,delta) ∩ D) is beta+2."""
    spec = MANIFEST["disc_cap_scaling"]
    details = {}
    passed = True
    t0 = time.perf_counter()
    for beta in spec["betas"]:
        vals = [disc_cap_measure(1.0, d, WeightParam(beta))[0] for d in spec["grid"]]
        slope = loglog_wls(spec["grid"], vals, [0.0] * len(vals)).slope
        ok = abs(slope - (beta + 2.0)) <= spec["tolerance"]
        passed &= ok
        details[f"beta={beta:g}"] = {"slope": slope, "target": beta + 2.0, "ok": ok}
    elapsed = time.perf_counter() - t0
    details["seconds"] = round(elapsed, 3)
    passed &= elapsed <= spec["max_seconds"]
    return passed, details, False


def criterion_5(run: BatteryRun):
    """Sharpness thresholds: stacked product map ratio slope 0 at n=3, -1 at n=4."""
    return _cases_verdict({label: _scan_case(run, case)
                           for label, case in MANIFEST["sharpness_scans"].items()})


def criterion_6(run: BatteryRun):
    """Bidisc decisions plus the unbounded family's measured slope."""
    spec = MANIFEST["bidisc"]
    details = {}
    for name in spec["bounded"]:
        d = decide_bidisc(get_symbol(name), 0.0, config=run.config)
        details[name] = {"outcome": d.outcome, "ok": d.outcome == BOUNDED}
        run.write_json(f"decide_{name}.json", d.to_dict())
    name = spec["unbounded"]
    d = decide_bidisc(get_symbol(name), 0.0, config=run.config)
    diag = None
    if d.witness is not None:
        a1, a2 = d.witness.point.angles
        diag = abs((a1 - a2 + math.pi) % (2 * math.pi) - math.pi)
    ok = d.outcome == UNBOUNDED and diag is not None and diag < 1e-3
    details[name] = {"outcome": d.outcome, "witness_diagonal_gap": diag, "ok": ok}
    run.write_json(f"decide_{name}.json", d.to_dict())
    scanned = details[f"{spec['scan'].symbol} scan"] = _scan_case(run, spec["scan"])
    return _all_ok(details), details, scanned["untrusted"]


def criterion_7(run: BatteryRun):
    """Tridisc decisions plus the unbounded pair's measured slope."""
    spec = MANIFEST["tridisc"]
    details = {}
    for name, expected in ((spec["bounded"], BOUNDED), (spec["unbounded"], UNBOUNDED)):
        d = decide_tridisc(get_symbol(name), config=run.config, grid_res=spec["grid_res"])
        details[name] = {"outcome": d.outcome, "ok": d.outcome == expected}
        run.write_json(f"decide_{name}.json", d.to_dict())
    scanned = details[f"{spec['scan'].symbol} scan"] = _scan_case(run, spec["scan"])
    return _all_ok(details), details, scanned["untrusted"]


def criterion_8(run: BatteryRun):
    """Sufficient-not-necessary separation on the stacked product map."""
    spec = MANIFEST["tridisc"]
    name = spec["bounded"]
    verdict = check_rank_sufficiency(get_symbol(name), config=run.config,
                                     grid_res=spec["grid_res"])
    decision = decide_tridisc(get_symbol(name), config=run.config, grid_res=spec["grid_res"])
    details = {
        "rank_sufficiency": verdict.outcome,
        "tridisc_decision": decision.outcome,
        "witness_index_set": list(verdict.witness_index_set or ()),
    }
    run.write_json(f"verdict_{name}.json", verdict.to_dict())
    return verdict.outcome == NECESSITY_FAILS and decision.outcome == BOUNDED, details, False


def criterion_9(run: BatteryRun):
    """Weight-uniformity of the reference scan's ratios near the Hardy limit.

    The beta scans run without the memo: a scan's artifact is named by its
    symbol alone, so a memoised beta scan would overwrite the reference's.
    """
    spec = MANIFEST["beta_uniformity"]
    ref = spec["reference"]
    scans = [replace(ref, beta=b, seed=spec["seed"] + 104729 * i).run(run.threads)
             for i, b in enumerate(spec["betas"])]
    max_ratio = max(e.ratio for s in scans for e in s.estimates if e.trusted)
    ref_max = max(e.ratio for e in run.result(ref).estimates if e.trusted)
    ok_bound = max_ratio <= spec["max_ratio_factor"] * ref_max
    ok_slopes = all(abs(s.slope) <= spec["slope_tolerance"] for s in scans)
    details = {
        "max_ratio": max_ratio,
        "beta0_max_ratio": ref_max,
        "slopes": {f"beta={b:g}": s.slope for b, s in zip(spec["betas"], scans)},
        "bound_ok": ok_bound,
        "slopes_ok": ok_slopes,
    }
    if run.out_dir is not None:
        tables = [scan.csv_rows() for scan in scans]
        write_csv(run.out_dir / "beta_uniformity.csv", tables[0][0],
                  [row for _, rows in tables for row in rows])
    return ok_bound and ok_slopes, details, False


def property_reports(seed: int, config: LabConfig = DEFAULTS) -> list:
    """Every pinned analytic property check, in order.

    The sampled checks are seeded seed, ..., seed+4, the two slice checks
    seed+5 and seed+6; the four boundary-derivative checks draw nothing.
    """

    def mobius(x, k):
        return (x + k) / (1.0 + k * x)

    arc = merge_arcs([(-0.2, 0.4)])
    origin2 = TorusPoint((0.0, 0.0))
    return [
        mobius_margin_check(mobius, np.linspace(0.0, 0.9, 10), seed=seed),
        linearization_bound_check(get_symbol("product2"), origin2, 1.0, seed=seed + 1,
                                  config=config),
        linearization_bound_check(get_symbol("powersum2"), origin2, 1.0, seed=seed + 2,
                                  config=config),
        schwarz_product_check(get_symbol("coord_square"),
                              AnnulusArc(depths=(0.05, 0.05), arcs=(arc, arc)),
                              1.9, samples=100_000, seed=seed + 3),
        schwarz_product_check(get_symbol("identity2"),
                              AnnulusArc(depths=(0.3, 0.3), arcs=(None, None)),
                              1.0, samples=100_000, seed=seed + 4),
        slice_gradient_constancy(PolySymbol.monomial(2, (0, 1)), 1, TorusPoint((0.0,)),
                                 [0.0], config=config, seed=seed + 5),
        slice_gradient_constancy(PolySymbol.monomial(3, (0, 1, 1)), 1, origin2,
                                 [0.3j], config=config, seed=seed + 6),
        jc_check(get_symbol("product2"), origin2, 1.0, config),
        jc_check(get_symbol("product3"), TorusPoint((0.0, math.pi, math.pi)), 1.0, config),
        jc_check(get_symbol("powersum2"), TorusPoint((math.pi, math.pi)), 1.0, config),
        jc_check(get_symbol("powersum3"), TorusPoint((0.0, 2 * math.pi / 3, 4 * math.pi / 3)),
                 1.0, config),
    ]


def criterion_10(run: BatteryRun):
    """Every pinned analytic property check plus identity-map ratio sanity.

    The identity boxes compare quadrature with quadrature: their numerators
    integrate both coordinates, so a box's z-statistic is its rounding over
    its stated bound.  The details count the boxes whose bound is positive,
    the ones the statistic covers.
    """
    spec = MANIFEST["property_battery"]
    seed = spec["seed"]
    reports = {f"{r.name}_{i}": r for i, r in enumerate(property_reports(seed, run.config))}

    rng = np.random.default_rng(seed + 7)
    worst_z = 0.0
    bounded = 0
    ident = get_symbol("identity2")
    for b in spec["identity_betas"]:
        beta = WeightParam(b)
        for i in range(spec["identity_boxes"]):
            angles = tuple(rng.random(2) * 2 * math.pi)
            radii = tuple(0.1 + 0.7 * rng.random(2))
            box = CarlesonBox(TorusPoint(angles), radii)
            est = preimage_box_ratio(ident, box, beta, spec["identity_budget"],
                                     seed=seed + 100 + i, threads=run.threads)
            if est.stderr > 0:
                bounded += 1
                worst_z = max(worst_z, abs(est.ratio - 1.0) / est.stderr)

    details = {
        "properties": {key: r.passed for key, r in reports.items()},
        "identity_ratio_worst_z": worst_z,
        "identity_boxes_with_stderr": bounded,
        "certificates": all(get_symbol(n).certificate is not None for n in SYMBOL_NAMES),
    }
    run.write_json("property_battery.json", {key: r.to_dict() for key, r in reports.items()})
    passed = all(details["properties"].values()) and worst_z <= 3.0 and details["certificates"]
    return passed, details, False


def criterion_11(run: BatteryRun):
    """Byte-identical CSV artifacts across thread counts {1, 4, 8}.

    The fit and scan are rerun at every thread count without the memo, which
    would hand back one computation to compare with itself.
    """
    spec = MANIFEST["determinism"]
    blobs = [
        tuple(csv_text(*case.run(tc).csv_rows()).encode("utf-8")
              for case in (spec["exponent"], spec["scan"]))
        for tc in spec["thread_counts"]
    ]
    identical = all(b == blobs[0] for b in blobs[1:])
    details = {
        "thread_counts": list(spec["thread_counts"]),
        "fit_bytes": len(blobs[0][0]),
        "scan_bytes": len(blobs[0][1]),
        "identical": identical,
    }
    if run.out_dir is not None:
        (run.out_dir / "determinism_fit.csv").write_bytes(blobs[0][0])
        (run.out_dir / "determinism_scan.csv").write_bytes(blobs[0][1])
    return identical, details, False


CRITERIA = {
    1: ("product-symbol exponent n(beta+1)+1", criterion_1),
    2: ("power-sum exponent n(beta+1)+(n+1)/2", criterion_2),
    3: ("sandwich bounds n+1 <= slope <= (3n+1)/2", criterion_3),
    4: ("disc-cap scaling beta+2", criterion_4),
    5: ("sharpness thresholds n <= beta+3", criterion_5),
    6: ("bidisc criterion with diagonal witness", criterion_6),
    7: ("tridisc criterion (gradients or entries)", criterion_7),
    8: ("rank condition sufficient but not necessary", criterion_8),
    9: ("weight-uniform Carleson ratios (Hardy evidence)", criterion_9),
    10: ("analytic property battery", criterion_10),
    11: ("thread-count determinism of CSV artifacts", criterion_11),
}


def run_battery(out_dir=None, threads=None, only=None, emit=print,
                config: LabConfig = DEFAULTS):
    """Run the pinned acceptance battery; returns (results, exit_code)."""
    run = BatteryRun(out_dir, threads, config)
    results = []
    for k in sorted(only) if only else sorted(CRITERIA):
        results.append(run.criterion(k))
        emit(results[-1].line())
    exit_code = 0
    if any(r.untrusted and not r.passed for r in results):
        exit_code = 3
    elif any(not r.passed for r in results):
        exit_code = 1
    run.write_json("battery_summary.json", {
        "results": [
            {"criterion": r.number, "name": r.name, "passed": r.passed,
             "untrusted": r.untrusted, "details": r.details}
            for r in results
        ],
        "exit_code": exit_code,
    })
    return results, exit_code

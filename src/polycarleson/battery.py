"""Named symbol registry and the pinned acceptance battery.

Every quantitative claim the package makes about itself is executed here with
recorded seeds, budgets, and grids.  The same runners back the ``battery`` CLI
subcommand and the acceptance test suite, so a published verdict pair (for
example: rank sufficiency fails while the tridisc decision is Bounded) always
comes from one process over one battery run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .carleson import beta_uniformity_probe, preimage_box_ratio, ratio_growth_scan
from .config import DEFAULTS, LabConfig
from .contact import jc_check, slice_gradient_constancy
from .criteria import (
    BOUNDED,
    NECESSITY_FAILS,
    UNBOUNDED,
    check_rank_sufficiency,
    decide_bidisc,
    decide_tridisc,
)
from .inequality_lab import (
    linearization_bound_check,
    mobius_margin_check,
    schwarz_product_check,
)
from .measure import (
    AnnulusArc,
    CarlesonBox,
    WeightParam,
    disc_cap_measure,
    merge_arcs,
)
from .output import write_csv, write_json
from .sublevel import fit_exponent
from .svgplot import write_fit_svg, write_scan_svg
from .symbols import PolySymbol, TorusPoint

BASE_SEED = 20260801


# ---------------------------------------------------------------------------
# named symbols
# ---------------------------------------------------------------------------


def _product_entries(n):
    return [((1,) * n, 1.0)]


def _power_sum_entries(n):
    out = []
    for j in range(n):
        alpha = [0] * n
        alpha[j] = n
        out.append((tuple(alpha), 1.0 / n))
    return out


def _build(name: str) -> PolySymbol:
    if name.startswith("identity"):
        return PolySymbol.identity(int(name.removeprefix("identity")))
    if name.startswith("product"):
        n = int(name.removeprefix("product"))
        return PolySymbol.from_tables([_product_entries(n)], n)
    if name.startswith("powersum"):
        n = int(name.removeprefix("powersum"))
        return PolySymbol.from_tables([_power_sum_entries(n)], n)
    if name == "stacked_product3":
        return PolySymbol.from_tables([_product_entries(3)] * 2 + [[]], 3)
    if name == "stacked_product4":
        return PolySymbol.from_tables([_product_entries(4)] * 3 + [[]], 4)
    if name == "mean_product":
        return PolySymbol.from_tables(
            [[((1, 0), 0.5), ((0, 1), 0.5)], [((1, 1), 1.0)]], 2
        )
    if name == "coord_square":
        return PolySymbol.from_tables([[((1, 0), 1.0)], [((0, 2), 1.0)]], 2)
    if name == "damped_product":
        return PolySymbol.from_tables([[((1, 1), 1.0)], [((1, 1), 0.5)]], 2)
    if name == "repeated_product3":
        return PolySymbol.from_tables([[((1, 1, 0), 1.0)], [((1, 1, 0), 1.0)], []], 3)
    if name == "mixed_pair":
        return PolySymbol.from_tables(
            [[((1, 0), 0.5), ((0, 1), 0.5)], [((1, 1), 0.5), ((0, 0), 0.5)]], 2
        )
    if name == "swap2":
        return PolySymbol.from_tables([[((0, 1), 1.0)], [((1, 0), 1.0)]], 2)
    if name == "half_scale2":
        return PolySymbol.from_tables([[((1, 0), 0.5)], [((0, 1), 0.5)]], 2)
    raise KeyError(f"unknown battery symbol {name!r}")


SYMBOL_NAMES = (
    "identity1", "identity2", "identity3",
    "product1", "product2", "product3", "product4",
    "powersum2", "powersum3",
    "stacked_product3", "stacked_product4",
    "mean_product", "coord_square", "damped_product",
    "repeated_product3", "mixed_pair", "swap2", "half_scale2",
)

_cache: dict[str, PolySymbol] = {}


def get_symbol(name: str) -> PolySymbol:
    if name not in _cache:
        _cache[name] = _build(name)
    return _cache[name]


# ---------------------------------------------------------------------------
# pinned manifest
# ---------------------------------------------------------------------------

GRID_4_9 = tuple(2.0**-k for k in range(4, 10))
GRID_4_8 = tuple(2.0**-k for k in range(4, 9))
GRID_3_9 = tuple(2.0**-k for k in range(3, 10))
GRID_3_7 = tuple(2.0**-k for k in range(3, 8))

MANIFEST = {
    "product_exponent": {
        # (symbol, beta, seed); slope target n*(beta+1)+1, tolerance 0.15
        "cases": [
            ("product1", 0.0, BASE_SEED + 11),
            ("product2", 0.0, BASE_SEED + 12),
            ("product3", 0.0, BASE_SEED + 13),
            ("product2", 1.0, BASE_SEED + 14),
            ("product2", -0.5, BASE_SEED + 15),
        ],
        "grid": GRID_4_9,
        "budget": 10_000_000,
        "tolerance": 0.15,
        "max_seconds_per_case": 300.0,
    },
    "power_sum_exponent": {
        # slope target n*(beta+1) + (n+1)/2, tolerance 0.2
        "cases": [
            ("powersum2", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 21),
            ("powersum3", 0.0, GRID_4_8, 20_000_000, BASE_SEED + 22),
        ],
        "tolerance": 0.2,
    },
    "disc_cap_scaling": {
        "betas": (-0.5, 0.0, 1.0),
        "grid": GRID_3_9,
        "tolerance": 0.05,
        "max_seconds": 10.0,
    },
    "sharpness_scans": {
        "bounded3": ("stacked_product3", (True, True, False), GRID_3_7,
                     10_000_000, BASE_SEED + 51, 0.0, 0.1),
        "unbounded4": ("stacked_product4", (True, True, True, False), GRID_3_7,
                       10_000_000, BASE_SEED + 52, -1.0, 0.2),
    },
    "bidisc": {
        "bounded": ("identity2", "coord_square", "damped_product"),
        "unbounded": "mean_product",
        "scan": (GRID_3_7, 10_000_000, BASE_SEED + 61, -0.5, 0.2),
    },
    "tridisc": {
        "bounded": "stacked_product3",
        "unbounded": "repeated_product3",
        "scan": (GRID_3_7, 10_000_000, BASE_SEED + 71, -1.0, 0.2),
        "grid_res": 128,
    },
    "beta_uniformity": {
        "symbol": "coord_square",
        "betas": (-0.9, -0.5, -0.1),
        "grid": GRID_3_7,
        "budget": 2_000_000,
        "seed": BASE_SEED + 91,
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
        "exponent": ("product2", 0.0, GRID_4_9, 10_000_000, BASE_SEED + 111),
        "scan": ("stacked_product3", (True, True, False), GRID_3_7,
                 2_000_000, BASE_SEED + 112),
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


def _maybe_write(out_dir, stem, result, title, write_svg):
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = result.csv_rows()
    write_csv(out_dir / f"{stem}.csv", header, rows)
    write_svg(out_dir / f"{stem}.svg", result, title)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Product-symbol volume exponent: slope n(beta+1)+1 within 0.15."""
    spec = MANIFEST["product_exponent"]
    details = {}
    passed = True
    untrusted = False
    for name, beta, seed in spec["cases"]:
        sym = get_symbol(name)
        n = sym.n_in
        target = n * (beta + 1.0) + 1.0
        t0 = time.perf_counter()
        fit = fit_exponent(sym, 1.0, WeightParam(beta), delta_grid=spec["grid"],
                           budget=spec["budget"], seed=seed, threads=threads,
                           config=config)
        elapsed = time.perf_counter() - t0
        shared[f"fit/{name}/beta={beta:g}"] = fit
        ok = abs(fit.slope - target) <= spec["tolerance"] and elapsed <= spec["max_seconds_per_case"]
        passed &= ok
        untrusted |= any(not p.trusted for p in fit.points)
        details[f"{name}, beta={beta:g}"] = {
            "slope": fit.slope, "target": target, "stderr": fit.slope_stderr,
            "seconds": round(elapsed, 2), "ok": ok,
        }
        _maybe_write(out_dir, f"exponent_{name}_beta{beta:g}", fit,
                     f"{name} volume scaling, beta={beta:g}", write_fit_svg)
    return CriterionResult(1, "product-symbol exponent n(beta+1)+1", passed,
                           details, untrusted)


def criterion_2(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Power-sum volume exponent: slope n(beta+1)+(n+1)/2 within 0.2."""
    spec = MANIFEST["power_sum_exponent"]
    details = {}
    passed = True
    untrusted = False
    for name, beta, grid, budget, seed in spec["cases"]:
        sym = get_symbol(name)
        n = sym.n_in
        target = n * (beta + 1.0) + (n + 1.0) / 2.0
        fit = fit_exponent(sym, 1.0, WeightParam(beta), delta_grid=grid,
                           budget=budget, seed=seed, threads=threads, config=config)
        shared[f"fit/{name}/beta={beta:g}"] = fit
        ok = abs(fit.slope - target) <= spec["tolerance"]
        passed &= ok
        untrusted |= any(not p.trusted for p in fit.points)
        details[f"{name}, beta={beta:g}"] = {
            "slope": fit.slope, "target": target, "stderr": fit.slope_stderr, "ok": ok,
        }
        _maybe_write(out_dir, f"exponent_{name}_beta{beta:g}", fit,
                     f"{name} volume scaling, beta={beta:g}", write_fit_svg)
    return CriterionResult(2, "power-sum exponent n(beta+1)+(n+1)/2", passed,
                           details, untrusted)


def criterion_3(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Sandwich bounds: every nondegenerate battery scalar fits inside
    [n+1-0.2, (3n+1)/2+0.2] at beta 0 for n in {2, 3}."""
    details = {}
    passed = True
    for name in ("product2", "product3", "powersum2", "powersum3"):
        key = f"fit/{name}/beta=0"
        fit = shared.get(key)
        if fit is None:
            spec1 = MANIFEST["product_exponent"]
            spec2 = MANIFEST["power_sum_exponent"]
            if name.startswith("product"):
                seed = dict((c[0], c[2]) for c in spec1["cases"] if c[1] == 0.0)[name]
                fit = fit_exponent(get_symbol(name), 1.0, WeightParam(0.0),
                                   delta_grid=spec1["grid"], budget=spec1["budget"],
                                   seed=seed, threads=threads, config=config)
            else:
                case = [c for c in spec2["cases"] if c[0] == name][0]
                fit = fit_exponent(get_symbol(name), 1.0, WeightParam(0.0),
                                   delta_grid=case[2], budget=case[3], seed=case[4],
                                   threads=threads, config=config)
            shared[key] = fit
        n = get_symbol(name).n_in
        lo, hi = n + 1.0 - 0.2, (3.0 * n + 1.0) / 2.0 + 0.2
        ok = lo <= fit.slope <= hi
        passed &= ok
        details[name] = {"slope": fit.slope, "band": (lo, hi), "ok": ok}
    return CriterionResult(3, "sandwich bounds n+1 <= slope <= (3n+1)/2", passed, details)


def criterion_4(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Disc-cap scaling: quadrature slope of A_beta(D(1,delta) ∩ D) is beta+2."""
    spec = MANIFEST["disc_cap_scaling"]
    details = {}
    passed = True
    t0 = time.perf_counter()
    for beta in spec["betas"]:
        vals = [disc_cap_measure(1.0, d, WeightParam(beta), quad_tol=config.quad_tol)
                for d in spec["grid"]]
        slope = float(np.polyfit(np.log(spec["grid"]), np.log(vals), 1)[0])
        ok = abs(slope - (beta + 2.0)) <= spec["tolerance"]
        passed &= ok
        details[f"beta={beta:g}"] = {"slope": slope, "target": beta + 2.0, "ok": ok}
    elapsed = time.perf_counter() - t0
    details["seconds"] = round(elapsed, 3)
    passed &= elapsed <= spec["max_seconds"]
    return CriterionResult(4, "disc-cap scaling beta+2", passed, details)


def _scan_case(key, threads, config):
    name, shrink, grid, budget, seed, target, tol = key
    sym = get_symbol(name)
    center = TorusPoint((0.0,) * sym.n_in)
    scan = ratio_growth_scan(sym, center, shrink, WeightParam(0.0), grid, budget,
                             seed=seed, threads=threads, config=config)
    ok = abs(scan.slope - target) <= tol
    return scan, ok


def criterion_5(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Sharpness thresholds: stacked product map ratio slope 0 at n=3, -1 at n=4."""
    spec = MANIFEST["sharpness_scans"]
    details = {}
    passed = True
    untrusted = False
    for label in ("bounded3", "unbounded4"):
        scan, ok = _scan_case(spec[label], threads, config)
        shared[f"scan/{label}"] = scan
        passed &= ok
        untrusted |= any(not e.trusted for e in scan.estimates)
        details[label] = {"slope": scan.slope, "target": spec[label][5],
                          "tolerance": spec[label][6], "ok": ok}
        _maybe_write(out_dir, f"scan_{spec[label][0]}", scan,
                     f"{spec[label][0]} ratio growth", write_scan_svg)
    return CriterionResult(5, "sharpness thresholds n <= beta+3", passed,
                           details, untrusted)


def criterion_6(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Bidisc decisions plus the unbounded family's measured slope."""
    spec = MANIFEST["bidisc"]
    details = {}
    passed = True
    for name in spec["bounded"]:
        d = decide_bidisc(get_symbol(name), 0.0, config=config)
        ok = d.outcome == BOUNDED
        passed &= ok
        details[name] = {"outcome": d.outcome, "ok": ok}
        if out_dir is not None:
            write_json(Path(out_dir) / f"decide_{name}.json", d.to_dict())
    mix = get_symbol(spec["unbounded"])
    d = decide_bidisc(mix, 0.0, config=config)
    diag = None
    if d.witness is not None:
        a1, a2 = d.witness.point.angles
        diag = abs((a1 - a2 + math.pi) % (2 * math.pi) - math.pi)
    ok = d.outcome == UNBOUNDED and diag is not None and diag < 1e-3
    passed &= ok
    details[spec["unbounded"]] = {"outcome": d.outcome, "witness_diagonal_gap": diag, "ok": ok}
    if out_dir is not None:
        write_json(Path(out_dir) / f"decide_{spec['unbounded']}.json", d.to_dict())

    grid, budget, seed, target, tol = spec["scan"]
    scan = ratio_growth_scan(mix, TorusPoint((0.0, 0.0)), (True, True),
                             WeightParam(0.0), grid, budget, seed=seed,
                             threads=threads, config=config)
    shared["scan/mean_product"] = scan
    ok = abs(scan.slope - target) <= tol
    passed &= ok
    untrusted = any(not e.trusted for e in scan.estimates)
    details["mean_product scan"] = {"slope": scan.slope, "target": target, "ok": ok}
    _maybe_write(out_dir, "scan_mean_product", scan, "mean_product ratio growth",
                 write_scan_svg)
    return CriterionResult(6, "bidisc criterion with diagonal witness", passed,
                           details, untrusted)


def criterion_7(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Tridisc decisions plus the unbounded pair's measured slope."""
    spec = MANIFEST["tridisc"]
    details = {}
    res = spec["grid_res"]
    d_bounded = decide_tridisc(get_symbol(spec["bounded"]), config=config, grid_res=res)
    d_unbounded = decide_tridisc(get_symbol(spec["unbounded"]), config=config, grid_res=res)
    shared["tridisc/bounded"] = d_bounded
    shared["tridisc/unbounded"] = d_unbounded
    ok1 = d_bounded.outcome == BOUNDED
    ok2 = d_unbounded.outcome == UNBOUNDED
    details[spec["bounded"]] = {"outcome": d_bounded.outcome, "ok": ok1}
    details[spec["unbounded"]] = {"outcome": d_unbounded.outcome, "ok": ok2}
    if out_dir is not None:
        write_json(Path(out_dir) / f"decide_{spec['bounded']}.json", d_bounded.to_dict())
        write_json(Path(out_dir) / f"decide_{spec['unbounded']}.json", d_unbounded.to_dict())

    grid, budget, seed, target, tol = spec["scan"]
    scan = ratio_growth_scan(get_symbol(spec["unbounded"]), TorusPoint((0.0, 0.0, 0.0)),
                             (True, True, False), WeightParam(0.0), grid, budget,
                             seed=seed, threads=threads, config=config)
    shared["scan/repeated_product3"] = scan
    ok3 = abs(scan.slope - target) <= tol
    details["repeated_product3 scan"] = {"slope": scan.slope, "target": target, "ok": ok3}
    _maybe_write(out_dir, "scan_repeated_product3", scan,
                 "repeated_product3 ratio growth", write_scan_svg)
    passed = ok1 and ok2 and ok3
    untrusted = any(not e.trusted for e in scan.estimates)
    return CriterionResult(7, "tridisc criterion (gradients or entries)", passed,
                           details, untrusted)


def criterion_8(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Sufficient-not-necessary separation on the stacked product map."""
    sym = get_symbol("stacked_product3")
    res = MANIFEST["tridisc"]["grid_res"]
    verdict = check_rank_sufficiency(sym, config=config, grid_res=res)
    decision = shared.get("tridisc/bounded")
    if decision is None:
        decision = decide_tridisc(sym, config=config, grid_res=res)
        shared["tridisc/bounded"] = decision
    ok = verdict.outcome == NECESSITY_FAILS and decision.outcome == BOUNDED
    details = {
        "rank_sufficiency": verdict.outcome,
        "tridisc_decision": decision.outcome,
        "witness_index_set": list(verdict.witness_index_set or ()),
    }
    if out_dir is not None:
        write_json(Path(out_dir) / "verdict_stacked_product3.json", verdict.to_dict())
    return CriterionResult(8, "rank condition sufficient but not necessary", ok, details)


def criterion_9(shared: dict, out_dir=None, threads=None,
                config: LabConfig = DEFAULTS) -> CriterionResult:
    """Weight-uniformity probe near the Hardy limit."""
    spec = MANIFEST["beta_uniformity"]
    sym = get_symbol(spec["symbol"])
    center = TorusPoint((0.0, 0.0))
    report = beta_uniformity_probe(sym, center, (True, True), spec["betas"],
                                   spec["grid"], spec["budget"], seed=spec["seed"],
                                   threads=threads, config=config)
    ref = ratio_growth_scan(sym, center, (True, True), WeightParam(0.0), spec["grid"],
                            spec["budget"], seed=spec["seed"] + 1, threads=threads,
                            config=config)
    ref_max = max(e.ratio for e in ref.estimates if e.trusted)
    ok_bound = report.max_ratio <= spec["max_ratio_factor"] * ref_max
    ok_slopes = all(abs(s) <= spec["slope_tolerance"] for s in report.slopes)
    details = {
        "max_ratio": report.max_ratio,
        "beta0_max_ratio": ref_max,
        "slopes": dict(zip([f"beta={b:g}" for b in report.betas], report.slopes)),
        "bound_ok": ok_bound,
        "slopes_ok": ok_slopes,
    }
    if out_dir is not None:
        rows = []
        for scan in report.scans:
            h, r = scan.csv_rows()
            rows.extend(r)
        write_csv(Path(out_dir) / "beta_uniformity.csv",
                  ["beta", "delta", "ratio", "stderr", "trusted"], rows)
    shared["beta_probe"] = report
    return CriterionResult(9, "weight-uniform Carleson ratios (Hardy evidence)",
                           ok_bound and ok_slopes, details)


def property_reports(seed: int) -> list:
    """The sampled analytic property checks, seeded seed, seed+1, ..., seed+4."""

    def mobius(x, k):
        return (x + k) / (1.0 + k * x)

    arc = merge_arcs([(-0.2, 0.4)])
    return [
        mobius_margin_check(mobius, np.linspace(0.0, 0.9, 10), seed=seed),
        linearization_bound_check(get_symbol("product2"), TorusPoint((0.0, 0.0)), 1.0,
                                  seed=seed + 1),
        linearization_bound_check(get_symbol("powersum2"), TorusPoint((0.0, 0.0)), 1.0,
                                  seed=seed + 2),
        schwarz_product_check(get_symbol("coord_square"),
                              AnnulusArc(depths=(0.05, 0.05), arcs=(arc, arc)),
                              1.9, samples=100_000, seed=seed + 3),
        schwarz_product_check(get_symbol("identity2"),
                              AnnulusArc(depths=(0.3, 0.3), arcs=(None, None)),
                              1.0, samples=100_000, seed=seed + 4),
    ]


def criterion_10(shared: dict, out_dir=None, threads=None,
                 config: LabConfig = DEFAULTS) -> CriterionResult:
    """Property battery plus identity-map ratio sanity."""
    spec = MANIFEST["property_battery"]
    seed = spec["seed"]
    details = {}
    reports = property_reports(seed)

    slice_ok = True
    psi = PolySymbol.monomial(2, (0, 1))
    slice_ok &= slice_gradient_constancy(psi, 1, TorusPoint((0.0,)), [0.0],
                                         config=config, seed=seed + 5).passed
    psi3 = PolySymbol.monomial(3, (0, 1, 1))
    slice_ok &= slice_gradient_constancy(psi3, 1, TorusPoint((0.0, 0.0)), [0.3j],
                                         config=config, seed=seed + 6).passed

    jc_ok = True
    jc_cases = [
        ("product2", TorusPoint((0.0, 0.0)), 1.0),
        ("product3", TorusPoint((0.0, math.pi, math.pi)), 1.0),
        ("powersum2", TorusPoint((math.pi, math.pi)), 1.0),
        ("powersum3", TorusPoint((0.0, 2 * math.pi / 3, 4 * math.pi / 3)), 1.0),
    ]
    for name, pt, eta in jc_cases:
        jc_ok &= jc_check(get_symbol(name), pt, eta, config).passed

    rng = np.random.default_rng(seed + 7)
    worst_z = 0.0
    ident = get_symbol("identity2")
    for b in spec["identity_betas"]:
        beta = WeightParam(b)
        for i in range(spec["identity_boxes"]):
            angles = tuple(rng.random(2) * 2 * math.pi)
            radii = tuple(0.1 + 0.7 * rng.random(2))
            box = CarlesonBox(TorusPoint(angles), radii)
            est = preimage_box_ratio(ident, box, beta, spec["identity_budget"],
                                     seed=seed + 100 + i, threads=threads, config=config)
            if est.stderr > 0:
                worst_z = max(worst_z, abs(est.ratio - 1.0) / est.stderr)
    ratios_ok = worst_z <= 3.0

    props_ok = all(r.passed for r in reports)
    details["properties"] = {r.name: r.passed for r in reports}
    details["slice_gradient_constancy"] = slice_ok
    details["boundary_derivative_checks"] = jc_ok
    details["identity_ratio_worst_z"] = worst_z
    details["certificates"] = all(get_symbol(n).certificate is not None for n in SYMBOL_NAMES)
    if out_dir is not None:
        write_json(Path(out_dir) / "property_battery.json",
                   {r.name + f"_{i}": r.to_dict() for i, r in enumerate(reports)})
    passed = props_ok and slice_ok and jc_ok and ratios_ok and details["certificates"]
    return CriterionResult(10, "analytic property battery", passed, details)


def criterion_11(shared: dict, out_dir=None, threads=None,
                 config: LabConfig = DEFAULTS) -> CriterionResult:
    """Byte-identical CSV artifacts across thread counts {1, 4, 8}."""
    import tempfile

    spec = MANIFEST["determinism"]
    name, beta, grid, budget, seed = spec["exponent"]
    sname, shrink, sgrid, sbudget, sseed = spec["scan"]
    blobs = []
    for tc in spec["thread_counts"]:
        with tempfile.TemporaryDirectory() as tmp:
            fit = fit_exponent(get_symbol(name), 1.0, WeightParam(beta),
                               delta_grid=grid, budget=budget, seed=seed,
                               threads=tc, config=config)
            header, rows = fit.csv_rows()
            write_csv(Path(tmp) / "fit.csv", header, rows)
            scan = ratio_growth_scan(get_symbol(sname), TorusPoint((0.0, 0.0, 0.0)),
                                     shrink, WeightParam(0.0), sgrid, sbudget,
                                     seed=sseed, threads=tc, config=config)
            h2, r2 = scan.csv_rows()
            write_csv(Path(tmp) / "scan.csv", h2, r2)
            blobs.append(
                (Path(tmp, "fit.csv").read_bytes(), Path(tmp, "scan.csv").read_bytes())
            )
    identical = all(b == blobs[0] for b in blobs[1:])
    details = {
        "thread_counts": list(spec["thread_counts"]),
        "fit_bytes": len(blobs[0][0]),
        "scan_bytes": len(blobs[0][1]),
        "identical": identical,
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        Path(out_dir, "determinism_fit.csv").write_bytes(blobs[0][0])
        Path(out_dir, "determinism_scan.csv").write_bytes(blobs[0][1])
    return CriterionResult(11, "thread-count determinism of CSV artifacts",
                           identical, details)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_battery(out_dir=None, threads=None, only=None, emit=print,
                config: LabConfig = DEFAULTS):
    """Run the pinned acceptance battery; returns (results, exit_code)."""
    numbers = sorted(only) if only else sorted(CRITERIA)
    shared: dict = {}
    results = []
    for k in numbers:
        result = CRITERIA[k](shared, out_dir=out_dir, threads=threads, config=config)
        results.append(result)
        emit(result.line())
    exit_code = 0
    if any(r.untrusted and not r.passed for r in results):
        exit_code = 3
    elif any(not r.passed for r in results):
        exit_code = 1
    if out_dir is not None:
        write_json(Path(out_dir) / "battery_summary.json", {
            "results": [
                {"criterion": r.number, "name": r.name, "passed": r.passed,
                 "untrusted": r.untrusted, "details": _plain(r.details)}
                for r in results
            ],
            "exit_code": exit_code,
        })
    return results, exit_code


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj

"""Batch experiment runner.

Subcommands: ``decide`` (rank-based boundedness verdicts), ``exponent``
(sublevel volume scaling fits), ``carleson`` (box-ratio scans), ``contact``
(contact-set dumps), ``check-props`` (inequality battery), ``battery`` (the
full pinned acceptance suite).  Options come from an optional JSON config file
with command-line flags taking precedence.  Exit codes: 0 all asserted
properties pass, 1 a property failed, 2 usage or config error, 3 untrusted
estimates encountered.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .battery import SYMBOL_NAMES, get_symbol, property_reports, run_battery
from .carleson import ratio_growth_scan
from .config import DEFAULTS
from .criteria import (
    BOUNDED,
    INCONCLUSIVE,
    check_rank_sufficiency,
    decide_bidisc,
    decide_tridisc,
)
from .contact import find_contact_set
from .fitting import FitRefused
from .measure import WeightParam
from .montecarlo import resolve_threads
from .output import write_csv, write_json
from .sublevel import DEFAULT_DELTA_GRID, fit_exponent
from .svgplot import write_fit_svg, write_scan_svg
from .symbols import PolySymbol, SymbolNotSelfMap, TorusPoint

USAGE_ERROR = 2
UNTRUSTED = 3


@dataclass
class ExperimentConfig:
    """Everything a run needs; round-trips losslessly through JSON."""

    subcommand: str = ""
    symbol: str = ""
    beta: float = 0.0
    eta: list = dataclasses.field(default_factory=lambda: [1.0, 0.0])
    delta_grid: list = dataclasses.field(default_factory=lambda: list(DEFAULT_DELTA_GRID))
    budget: int = 1_000_000
    seed: int = 0
    threads: int | None = None
    out_dir: str = "."
    formats: list = dataclasses.field(default_factory=lambda: ["csv", "json", "svg"])
    shrink: list = dataclasses.field(default_factory=list)
    center: list = dataclasses.field(default_factory=list)
    index_set: list = dataclasses.field(default_factory=list)
    only: list = dataclasses.field(default_factory=list)
    tolerances: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        for k, v in data.items():
            if not hasattr(cfg, k):
                raise ValueError(f"unknown config key {k!r}")
            setattr(cfg, k, v)
        known = {f.name for f in dataclasses.fields(DEFAULTS)}
        for k in cfg.tolerances:
            if k not in known:
                raise ValueError(f"unknown tolerances key {k!r}")
        for k in ("budget", "seed", "beta"):
            if type(getattr(cfg, k)) not in (int, float):
                raise ValueError(f"config key {k!r} must be a number, got {getattr(cfg, k)!r}")
        return cfg

    def lab_config(self):
        return DEFAULTS.replace(**self.tolerances) if self.tolerances else DEFAULTS


def load_symbol(spec: str) -> PolySymbol:
    """Registry name, path to a literal JSON file, or an inline JSON literal.

    The literal format is a list of components, each a list of
    ``[coeff_re, coeff_im, a_1, ..., a_n]`` rows.
    """
    if spec in SYMBOL_NAMES:
        return get_symbol(spec)
    if spec.lstrip().startswith("["):
        return PolySymbol.from_literal(json.loads(spec))
    path = Path(spec)
    if path.is_file():
        return PolySymbol.from_literal(json.loads(path.read_text()))
    raise ValueError(
        f"unknown symbol {spec!r}: not a battery name, literal, or readable file"
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polycarleson",
        description="Composition-operator boundedness laboratory on the polydisc",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its keys")
        sp.add_argument("--symbol", help="battery name, literal JSON, or file path")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        sp.add_argument("--budget", type=int)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--out-dir", dest="out_dir")
        sp.add_argument("--format", dest="formats", action="append",
                        choices=["csv", "json", "svg"])
        sp.add_argument("--delta-grid", dest="delta_grid",
                        help="comma-separated radii")

    for name in ("decide", "exponent", "carleson", "contact", "check-props", "battery"):
        sp = sub.add_parser(name)
        common(sp)
        if name == "exponent":
            sp.add_argument("--eta", help="unimodular target, as 're,im' or angle")
        if name == "carleson":
            sp.add_argument("--shrink", help="comma mask, e.g. 1,1,0")
            sp.add_argument("--center", help="comma-separated torus angles")
        if name == "contact":
            sp.add_argument("--index-set", dest="index_set",
                            help="1-based component indices, e.g. 1,2")
        if name == "battery":
            sp.add_argument("--only", help="comma-separated criterion numbers")
    return p


def _merge_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(data)
    cfg.subcommand = args.subcommand
    if getattr(args, "symbol", None):
        cfg.symbol = args.symbol
    for key in ("seed", "threads", "budget", "beta", "out_dir"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "formats", None):
        cfg.formats = args.formats
    if getattr(args, "delta_grid", None):
        cfg.delta_grid = [float(x) for x in str(args.delta_grid).split(",")]
    if getattr(args, "eta", None):
        parts = [float(x) for x in str(args.eta).split(",")]
        cfg.eta = parts if len(parts) == 2 else [math.cos(parts[0]), math.sin(parts[0])]
    if getattr(args, "shrink", None):
        cfg.shrink = [int(x) for x in str(args.shrink).split(",")]
    if getattr(args, "center", None):
        cfg.center = [float(x) for x in str(args.center).split(",")]
    if getattr(args, "index_set", None):
        cfg.index_set = [int(x) for x in str(args.index_set).split(",")]
    if getattr(args, "only", None):
        cfg.only = [int(x) for x in str(args.only).split(",")]
    return cfg


class _WarningLog:
    """Mirror numerical warnings into a structured JSONL log."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / "warnings.jsonl"
        self._entries = []

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._records = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        for w in self._records:
            self._entries.append(
                {"category": w.category.__name__, "message": str(w.message)}
            )
        if self._entries:
            with open(self.path, "w", encoding="utf-8") as fh:
                for e in self._entries:
                    fh.write(json.dumps(e, sort_keys=True) + "\n")
        return self._ctx.__exit__(*exc)


def _cmd_decide(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    lab = cfg.lab_config()
    if sym.n_in == 2 and sym.n_out == 2:
        decision = decide_bidisc(sym, cfg.beta, config=lab)
        payload = decision.to_dict()
        outcome = decision.outcome
    elif sym.n_in == 3 and sym.n_out == 3:
        if cfg.beta != 0.0:
            print("tridisc decision is specific to the unweighted Bergman space (beta 0)",
                  file=sys.stderr)
            return USAGE_ERROR
        decision = decide_tridisc(sym, config=lab)
        payload = decision.to_dict()
        outcome = decision.outcome
    elif sym.n_in == sym.n_out:
        verdict = check_rank_sufficiency(sym, config=lab)
        payload = verdict.to_dict()
        outcome = BOUNDED if verdict.outcome == "SufficiencyHolds" else verdict.outcome
    else:
        print("decide needs a square self-map", file=sys.stderr)
        return USAGE_ERROR
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if "json" in cfg.formats:
        write_json(out_dir / f"decide_{_stem(cfg.symbol)}.json", payload)
    return UNTRUSTED if outcome == INCONCLUSIVE else 0


def _cmd_exponent(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    eta = complex(cfg.eta[0], cfg.eta[1])
    try:
        fit = fit_exponent(sym, eta, WeightParam(cfg.beta), delta_grid=cfg.delta_grid,
                           budget=cfg.budget, seed=cfg.seed, threads=cfg.threads,
                           config=cfg.lab_config())
    except FitRefused as exc:
        print(f"fit refused: {exc}", file=sys.stderr)
        return UNTRUSTED
    stem = f"exponent_{_stem(cfg.symbol)}"
    header, rows = fit.csv_rows()
    if "csv" in cfg.formats:
        write_csv(out_dir / f"{stem}.csv", header, rows)
    if "svg" in cfg.formats:
        write_fit_svg(out_dir / f"{stem}.svg", fit, f"{_stem(cfg.symbol)} volume scaling")
    summary = {"slope": fit.slope, "slope_stderr": fit.slope_stderr,
               "intercept": fit.intercept, "max_abs_residual": fit.max_abs_residual,
               "deltas": [d for d, p in zip(fit.deltas, fit.points) if p.trusted]}
    print(json.dumps(summary, indent=2, sort_keys=True))
    if "json" in cfg.formats:
        write_json(out_dir / f"{stem}.json", summary)
    return 0 if all(p.trusted for p in fit.points) else UNTRUSTED


def _cmd_carleson(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    if not cfg.shrink:
        print("carleson scan needs --shrink", file=sys.stderr)
        return USAGE_ERROR
    center = TorusPoint(tuple(cfg.center) if cfg.center else (0.0,) * sym.n_in)
    try:
        scan = ratio_growth_scan(sym, center, [bool(s) for s in cfg.shrink],
                                 WeightParam(cfg.beta), cfg.delta_grid, cfg.budget,
                                 seed=cfg.seed, threads=cfg.threads,
                                 config=cfg.lab_config())
    except FitRefused as exc:
        print(f"scan refused: {exc}", file=sys.stderr)
        return UNTRUSTED
    stem = f"carleson_{_stem(cfg.symbol)}"
    header, rows = scan.csv_rows()
    if "csv" in cfg.formats:
        write_csv(out_dir / f"{stem}.csv", header, rows)
    if "svg" in cfg.formats:
        write_scan_svg(out_dir / f"{stem}.svg", scan, f"{_stem(cfg.symbol)} ratio growth")
    summary = {"slope": scan.slope, "slope_stderr": scan.slope_stderr,
               "ratios": [e.ratio for e in scan.estimates],
               "trusted": [e.trusted for e in scan.estimates]}
    print(json.dumps(summary, indent=2, sort_keys=True))
    if "json" in cfg.formats:
        write_json(out_dir / f"{stem}.json", summary)
    return 0 if all(e.trusted for e in scan.estimates) else UNTRUSTED


def _cmd_contact(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    indices = [i - 1 for i in cfg.index_set] if cfg.index_set else list(range(sym.n_out))
    cs = find_contact_set(sym, indices, config=cfg.lab_config())
    header, rows = cs.to_csv_rows()
    if "csv" in cfg.formats:
        write_csv(out_dir / f"contact_{_stem(cfg.symbol)}.csv", header, rows)
    print(json.dumps({"kind": cs.kind, "points": len(cs.points),
                      "accepted_fraction": cs.accepted_fraction}, sort_keys=True))
    return 0


def _cmd_check_props(cfg: ExperimentConfig, out_dir: Path) -> int:
    reports = property_reports(cfg.seed)
    for i, rep in enumerate(reports):
        payload = rep.to_dict()
        print(json.dumps({"name": rep.name, "passed": rep.passed,
                          "empirical_constant": rep.empirical_constant}, sort_keys=True))
        if "json" in cfg.formats:
            write_json(out_dir / f"property_{rep.name}_{i}.json", payload)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_battery(cfg: ExperimentConfig, out_dir: Path) -> int:
    results, code = run_battery(out_dir=out_dir, threads=cfg.threads,
                                only=set(cfg.only) if cfg.only else None,
                                config=cfg.lab_config())
    return code


def _stem(symbol_spec: str) -> str:
    s = Path(symbol_spec).stem if symbol_spec else "symbol"
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in s)[:60] or "symbol"


COMMANDS = {
    "decide": _cmd_decide,
    "exponent": _cmd_exponent,
    "carleson": _cmd_carleson,
    "contact": _cmd_contact,
    "check-props": _cmd_check_props,
    "battery": _cmd_battery,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        cfg.threads = resolve_threads(cfg.threads)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        with _WarningLog(out_dir):
            return COMMANDS[cfg.subcommand](cfg, out_dir)
    except (ValueError, SymbolNotSelfMap, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment runner.

Subcommands: ``decide`` (rank-based boundedness verdicts), ``exponent``
(sublevel volume scaling fits), ``carleson`` (box-ratio scans), ``contact``
(contact-set dumps), ``check-props`` (criterion 10's analytic property checks,
the list ``battery.property_reports`` pins), ``battery`` (the full pinned
acceptance suite).  Options come from an optional JSON config file, which may
set any key, with command-line flags taking precedence; each subcommand takes
only the flags it reads (``COMMANDS``).  Exit codes: 0 all asserted properties
pass, 1 a property failed, 2 usage or config error, 3 untrusted estimates
encountered.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .criteria import INCONCLUSIVE, check_rank_sufficiency, decide_bidisc, decide_tridisc
from .contact import find_contact_set
from .fitting import FitRefused
from .measure import WeightParam
from .output import json_text, write_csv, write_json, write_result
from .sublevel import DEFAULT_DELTA_GRID, fit_exponent
from .symbols import PolySymbol, TorusPoint

USAGE_ERROR = 2
UNTRUSTED = 3


FORMATS = ("csv", "json", "svg")  # artifact kinds a run may write


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
    formats: list = dataclasses.field(default_factory=lambda: list(FORMATS))
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
            default = getattr(cfg, k)
            if isinstance(default, (list, dict, str)) and type(v) is not type(default):
                raise ValueError(f"config key {k!r} must be a {type(default).__name__}, got {v!r}")
            setattr(cfg, k, v)
        kinds = {f.name: type(getattr(DEFAULTS, f.name)) for f in dataclasses.fields(DEFAULTS)}
        for k in cfg.tolerances:
            if k not in kinds:
                raise ValueError(f"unknown tolerances key {k!r}")
        cfg.tolerances = {k: _number(f"tolerances.{k}", v, kinds[k])
                          for k, v in cfg.tolerances.items()}
        for k, kind in _LIST_ELEMENTS.items():
            setattr(cfg, k, [_number(f"{k}[{i}]", v, kind) for i, v in enumerate(getattr(cfg, k))])
        if len(cfg.eta) != 2:
            raise ValueError(f"config key 'eta' must hold [re, im], got {cfg.eta!r}")
        for i, v in enumerate(cfg.formats):
            if v not in FORMATS:
                raise ValueError(f"config key 'formats[{i}]' must be one of {FORMATS}, got {v!r}")
        cfg.threads = None if cfg.threads is None else _number("threads", cfg.threads, int)
        cfg.budget = _number("budget", cfg.budget, int)
        cfg.seed = _number("seed", cfg.seed, int)
        cfg.beta = _number("beta", cfg.beta, float)
        return cfg

    def lab_config(self):
        return DEFAULTS.replace(**self.tolerances) if self.tolerances else DEFAULTS


_LIST_ELEMENTS = {"eta": float, "delta_grid": float, "center": float,
                  "shrink": int, "index_set": int, "only": int}


def _number(key: str, value, kind: type):
    """``value`` checked as an int or float config value; a bool is neither.

    An integer key also takes an integral float, which JSON writers may emit
    (2e4 for 20000), and returns it as an int; a float key takes any int or float.
    """
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is int or (kind is float and type(value) is float):
        return value
    noun = "an integer" if kind is int else "a number"
    raise ValueError(f"config key {key!r} must be {noun}, got {value!r}")


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


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")] if text else []


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _eta(text: str) -> list[float]:
    """A unimodular target as 're,im' or as one angle, returned as [re, im]."""
    parts = _floats(text)
    if len(parts) == 1:
        return [math.cos(parts[0]), math.sin(parts[0])]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im' or an angle, got {text!r}")
    return parts


# every flag a subcommand may take, with its argparse keywords; COMMANDS says
# which subcommand takes which
_FLAGS = {
    "--config": {"help": "JSON config file; flags override its keys"},
    "--out-dir": {},
    "--symbol": {"help": "battery name, literal JSON, or file path"},
    "--seed": {"type": int},
    "--threads": {"type": int, "help": "worker threads (default: POLYCARLESON_THREADS, else 1)"},
    "--budget": {"type": int},
    "--beta": {"type": float},
    "--format": {"dest": "formats", "action": "append", "choices": FORMATS},
    "--delta-grid": {"type": _floats, "help": "comma-separated radii"},
    "--eta": {"type": _eta, "help": "unimodular target, as 're,im' or angle"},
    "--shrink": {"type": _ints, "help": "comma mask, e.g. 1,1,0"},
    "--center": {"type": _floats, "help": "comma-separated torus angles"},
    "--index-set": {"type": _ints, "help": "1-based component indices, e.g. 1,2"},
    "--only": {"type": _ints, "help": "comma-separated criterion numbers"},
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polycarleson",
        description="Composition-operator boundedness laboratory on the polydisc",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in ("--config", "--out-dir", *flags):
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def _merge_config(args) -> ExperimentConfig:
    """The config file's keys with every non-empty flag laid over them."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k != "config" and v not in (None, "", [])}
    return ExperimentConfig.from_dict({**data, **flags})


@contextlib.contextmanager
def _warning_log(out_dir: Path):
    """Mirror numerical warnings into a structured JSONL log."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            if records:
                (out_dir / "warnings.jsonl").write_text("".join(
                    json_text({"category": w.category.__name__, "message": str(w.message)},
                              indent=None) + "\n" for w in records), encoding="utf-8")


def _cmd_decide(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    lab = cfg.lab_config()
    if sym.n_in == 2 and sym.n_out == 2:
        result = decide_bidisc(sym, cfg.beta, config=lab)
    elif sym.n_in == 3 and sym.n_out == 3:
        if cfg.beta != 0.0:
            print("tridisc decision is specific to the unweighted Bergman space (beta 0)",
                  file=sys.stderr)
            return USAGE_ERROR
        result = decide_tridisc(sym, config=lab)
    elif sym.n_in == sym.n_out:
        result = check_rank_sufficiency(sym, config=lab)
    else:
        print("decide needs a square self-map", file=sys.stderr)
        return USAGE_ERROR
    payload = result.to_dict()
    print(json_text(payload))
    write_json(out_dir / f"decide_{_stem(cfg.symbol)}.json", payload)
    return UNTRUSTED if result.outcome == INCONCLUSIVE else 0


def _cmd_exponent(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    eta = complex(cfg.eta[0], cfg.eta[1])
    try:
        fit = fit_exponent(sym, eta, WeightParam(cfg.beta), delta_grid=cfg.delta_grid,
                           budget=cfg.budget, seed=cfg.seed, threads=cfg.threads)
    except FitRefused as exc:
        print(f"fit refused: {exc}", file=sys.stderr)
        return UNTRUSTED
    summary = {"slope": fit.slope, "slope_stderr": fit.slope_stderr,
               "intercept": fit.intercept, "max_abs_residual": fit.max_abs_residual,
               "deltas": [d for d, p in zip(fit.deltas, fit.points) if p.trusted]}
    return _report(cfg, out_dir, "exponent", fit, "volume scaling", summary, fit.points)


def _cmd_carleson(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    if not cfg.shrink:
        print("carleson scan needs --shrink", file=sys.stderr)
        return USAGE_ERROR
    center = TorusPoint(tuple(cfg.center) if cfg.center else (0.0,) * sym.n_out)
    try:
        scan = ratio_growth_scan(sym, center, [bool(s) for s in cfg.shrink],
                                 WeightParam(cfg.beta), cfg.delta_grid, cfg.budget,
                                 seed=cfg.seed, threads=cfg.threads)
    except FitRefused as exc:
        print(f"scan refused: {exc}", file=sys.stderr)
        return UNTRUSTED
    summary = {"slope": scan.slope, "slope_stderr": scan.slope_stderr,
               "ratios": [e.ratio for e in scan.estimates],
               "trusted": [e.trusted for e in scan.estimates]}
    return _report(cfg, out_dir, "carleson", scan, "ratio growth", summary, scan.estimates)


def _report(cfg: ExperimentConfig, out_dir: Path, command: str, result, caption: str,
            summary: dict, points) -> int:
    """Write a fit's or scan's artifacts, print its summary; exit 3 on any untrusted point."""
    name = _stem(cfg.symbol)
    write_result(out_dir, f"{command}_{name}", result, f"{name} {caption}", cfg.formats,
                 summary)
    print(json_text(summary))
    return 0 if all(p.trusted for p in points) else UNTRUSTED


def _cmd_contact(cfg: ExperimentConfig, out_dir: Path) -> int:
    sym = load_symbol(cfg.symbol)
    indices = [i - 1 for i in cfg.index_set] if cfg.index_set else list(range(sym.n_out))
    cs = find_contact_set(sym, indices, config=cfg.lab_config())
    write_csv(out_dir / f"contact_{_stem(cfg.symbol)}.csv", *cs.to_csv_rows())
    print(json_text({"kind": cs.kind, "points": len(cs.points),
                     "accepted_fraction": cs.accepted_fraction}, indent=None))
    return 0


def _cmd_check_props(cfg: ExperimentConfig, out_dir: Path) -> int:
    reports = property_reports(cfg.seed, cfg.lab_config())
    for i, rep in enumerate(reports):
        print(json_text({"name": rep.name, "passed": rep.passed,
                         "empirical_constant": rep.empirical_constant}, indent=None))
        write_json(out_dir / f"property_{rep.name}_{i}.json", rep.to_dict())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_battery(cfg: ExperimentConfig, out_dir: Path) -> int:
    _, code = run_battery(out_dir=out_dir, threads=cfg.threads,
                          only=set(cfg.only) if cfg.only else None, config=cfg.lab_config())
    return code


def _stem(symbol_spec: str) -> str:
    s = Path(symbol_spec).stem if symbol_spec else "symbol"
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in s)[:60] or "symbol"


# each subcommand's handler and the flags it reads, besides --config and --out-dir;
# a fit and a scan read the same run flags
_RUN = ("--symbol", "--seed", "--threads", "--budget", "--beta", "--format", "--delta-grid")
COMMANDS = {
    "decide": (_cmd_decide, ("--symbol", "--beta")),
    "exponent": (_cmd_exponent, (*_RUN, "--eta")),
    "carleson": (_cmd_carleson, (*_RUN, "--shrink", "--center")),
    "contact": (_cmd_contact, ("--symbol", "--index-set")),
    "check-props": (_cmd_check_props, ("--seed",)),
    "battery": (_cmd_battery, ("--threads", "--only")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        with _warning_log(out_dir):
            return COMMANDS[cfg.subcommand][0](cfg, out_dir)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

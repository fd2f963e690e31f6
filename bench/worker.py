"""One fresh-interpreter task of the benchmark: set up, then run a pass or the probes.

Usage: python3 bench/worker.py '<json task>'.  The task is one of
  {"task": "setup"}
  {"task": "pass", "workload", "seed", "threads", "traced", "budget_scale", "spans_path"}
  {"task": "probes", "seed", "threads", "budget_scale"}
The result is printed as one JSON object on the last line of standard output.
Each task starts from a cold interpreter, as one CLI invocation would, so the
symbol, grid and fiber caches start empty.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
from workloads import LOCAL_SYMBOLS, WORKLOADS, derive_seed, scaled

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def setup(traced: bool):
    """Import the package and build and certify every symbol; returns (symbols, collector, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import polycarleson

    if not Path(polycarleson.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polycarleson imported from {polycarleson.__file__}, not {SRC}")
    from polycarleson.battery import SYMBOL_NAMES, get_symbol
    from polycarleson.symbols import PolySymbol

    collector = None
    if traced:
        collector = spans.Collector()
        spans.install(collector)
    syms = {name: get_symbol(name) for name in SYMBOL_NAMES}
    for name, (tables, n) in LOCAL_SYMBOLS.items():
        syms[name] = PolySymbol.from_tables(tables, n)
    return syms, collector, time.perf_counter() - t0


def run_op(op, syms, seed: int, threads: int):
    from polycarleson import (TorusPoint, WeightParam, check_rank_sufficiency, decide_bidisc,
                              decide_tridisc, fit_exponent, ratio_growth_scan)

    sym = syms[op.symbol]
    if op.kind == "fit":
        return fit_exponent(sym, 1.0, WeightParam(op.beta), op.grid, op.budget, seed=seed,
                            threads=threads)
    if op.kind == "scan":
        return ratio_growth_scan(sym, TorusPoint((0.0,) * sym.n_in), op.shrink,
                                 WeightParam(op.beta), op.grid, op.budget, seed=seed,
                                 threads=threads)
    if op.kind == "bidisc":
        return decide_bidisc(sym, op.beta)
    if op.kind == "tridisc":
        return decide_tridisc(sym, grid_res=op.grid_res)
    if op.kind == "rank":
        return check_rank_sufficiency(sym, grid_res=op.grid_res)
    raise ValueError(f"unknown op kind {op.kind!r}")


def output_bytes(result) -> bytes:
    """The bytes a user would keep: the CSV of a fit or scan, the JSON of a decision."""
    from polycarleson.output import format_cell

    if hasattr(result, "csv_rows"):
        header, rows = result.csv_rows()
        lines = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    return result.to_json().encode("utf-8")


def check(op, result) -> str:
    """Empty string when the result meets the op's oracle, else the reason it does not."""
    if op.kind in ("fit", "scan"):
        points = result.points if op.kind == "fit" else result.estimates
        untrusted = sum(1 for p in points if not p.trusted)
        if untrusted:
            return f"{untrusted} untrusted points"
        if not abs(result.slope - op.target) <= op.tol:
            return f"slope {result.slope:.4f} outside {op.target:g} +- {op.tol:g}"
        return ""
    if result.outcome != op.expect:
        return f"outcome {result.outcome}, expected {op.expect}"
    return ""


def run_pass(task: dict) -> dict:
    syms, collector, setup_s = setup(task["traced"])
    ops = [scaled(op, task["budget_scale"]) for op in WORKLOADS[task["workload"]]]
    first_span = len(collector.spans) if collector else 0
    outcomes = []
    t_start = time.perf_counter()
    for op in ops:
        seed = derive_seed(task["seed"], task["workload"], op.label)
        ctx = collector.span(f"op.{op.kind}", label=op.label) if collector else nullcontext()
        t = time.perf_counter()
        with ctx:
            try:
                result, error = run_op(op, syms, seed, task["threads"]), ""
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                traceback.print_exc(file=sys.stderr)
                result, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((op, result, error, time.perf_counter() - t))
    wall_s = time.perf_counter() - t_start

    records = []
    for op, result, error, seconds in outcomes:
        rec = {"label": op.label, "seconds": seconds, "reason": error or check(op, result)}
        if result is not None:
            rec["digest"] = hashlib.sha256(output_bytes(result)).hexdigest()
            if hasattr(result, "slope"):
                rec.update(slope=result.slope, slope_stderr=result.slope_stderr)
            else:
                rec["outcome"] = result.outcome
        records.append(rec)
    out = {"setup_s": setup_s, "wall_s": wall_s, "ops": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if collector:
        traced = collector.spans[first_span:]
        main = threading.get_ident()
        layers = spans.layer_metrics(traced, main, wall_s)
        layers["symbols.certify_s"] = sum(s.seconds for s in collector.spans[:first_span]
                                          if s.name == "symbols.certify_self_map")
        out["layers"] = layers
        out["self_times"] = spans.self_time_table(traced)
        out["main_self_s"] = sum(spans.self_time_table(traced, thread=main).values())
        collector.write_jsonl(task["spans_path"])
    return out


def run_setup(task: dict) -> dict:
    _, _, setup_s = setup(False)
    return {"setup_s": setup_s}


def run_probes(task: dict) -> dict:
    import probes

    syms, collector, _ = setup(True)
    return probes.run(syms, collector, task["seed"], task["threads"], task["budget_scale"])


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    task = json.loads(sys.argv[1])
    out = {"setup": run_setup, "pass": run_pass, "probes": run_probes}[task["task"]](task)
    out["versions"] = versions()
    print(json.dumps(out, allow_nan=False))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""polycarleson benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exponent --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With --trace 0 the client issues the
workload's operations one at a time (closed loop, threads=2), each pass in a
fresh interpreter, until --seconds have elapsed, and reports the end-to-end
metrics.  With --trace 1 it runs one untraced and one traced pass plus the
layer probes and reports the per-layer metrics.  Every operation is checked
against its oracle; the last line of standard output is the JSON result, and
the exit code is 1 when any operation or guard fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREADS = 2
SETUP_SAMPLES = 2  # setup-only interpreters per untraced run, besides one per pass
RUN_LIMIT_S = 170.0  # every worker must finish within this many seconds of the start


class WorkerFailed(RuntimeError):
    pass


def worker(task: dict, deadline: float) -> dict:
    """Run one task in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"no time left for {task['task']}")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(task)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{task['task']} did not finish in {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{task['task']} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def geomean(values) -> float | None:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else None


def wnv(passes) -> float | None:
    """Geometric mean over passing ops of slope_stderr^2 x seconds.

    Decisions carry no sampling error, so a pass's decisions count as one
    operation with variance factor 1: their summed seconds.  Taking each
    decision on its own would let millisecond-long calls, whose timing is the
    noisiest, weigh as much as the grid-bound ones.
    """
    values = []
    for p in passes:
        ok = [op for op in p["ops"] if not op["reason"]]
        values += [op["slope_stderr"] ** 2 * op["seconds"] for op in ok if "slope_stderr" in op]
        exact = [op["seconds"] for op in ok if "slope_stderr" not in op]
        if exact:
            values.append(sum(exact))
    return geomean(values)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_record(args, versions: dict) -> dict:
    """Where and with what the numbers were measured."""
    def cache_bytes(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        return int(out) if out.isdigit() and int(out) > 0 else None

    llc = cache_bytes(3)
    grid_bytes = 4 * 256**3
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "l2_bytes_per_core": cache_bytes(2),
        "l3_bytes": llc,
        "grid256_bytes": grid_bytes,
        "grid256_over_l3": grid_bytes / llc if llc else None,
        "seed": args.seed,
        "threads": THREADS,
        "budget_scale": args.budget_scale,
        "operations": [asdict(op) for op in WORKLOADS[args.workload]],
        "git_sha": git_sha(),
        **versions,
    }


def untraced_run(args, deadline: float):
    """Passes until --seconds have elapsed, each in a fresh interpreter.

    Returns (metrics, attempted, failures, record, versions), as traced_run does.
    """
    setups = [worker({"task": "setup"}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    task = {"task": "pass", "workload": args.workload, "seed": args.seed, "threads": THREADS,
            "traced": False, "budget_scale": args.budget_scale}
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(worker(task, deadline))
        now = time.monotonic()
        # stop at --seconds, or earlier if another pass might overrun the time limit
        if now - start >= args.seconds or deadline - now < 2 * (now - t):
            break
    failures = op_failures(passes)
    if any(digests(p) != digests(passes[0]) for p in passes[1:]):
        failures.append("guard: outputs differ between passes with the same seed")
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "wnv": wnv(passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted = sum(len(p["ops"]) for p in passes) + (len(passes) > 1)
    record = {"setup_samples": setups, "passes": passes}
    return metrics, attempted, failures, record, passes[0]["versions"]


def digests(p) -> list:
    return [op.get("digest") for op in p["ops"]]


def op_failures(passes) -> list[str]:
    return [f"{op['label']}: {op['reason']}" for p in passes for op in p["ops"] if op["reason"]]


def traced_run(args, deadline: float):
    """One untraced pass, one traced pass and the probes; returns per-layer metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    task = {"task": "pass", "workload": args.workload, "seed": args.seed, "threads": THREADS,
            "traced": False, "budget_scale": args.budget_scale}
    plain = worker(task, deadline)
    traced = worker({**task, "traced": True, "spans_path": str(spans_path)}, deadline)
    probes = worker({"task": "probes", "seed": args.seed, "threads": THREADS,
                     "budget_scale": args.budget_scale}, deadline)
    failures = op_failures([plain, traced])
    if digests(plain) != digests(traced):
        failures.append("guard: traced outputs differ from untraced outputs")
    if not probes["thread_guard"]["identical"]:
        failures.append("guard: fit CSV differs between 1 and 2 threads")
    metrics = {**traced["layers"], **probes["layers"],
               "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    attempted = len(plain["ops"]) + len(traced["ops"]) + 2
    record = {"untraced": plain, "traced": traced, "probes": probes,
              "spans_path": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failures, record, plain["versions"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget-scale", type=float, default=1.0,
                    help="multiply every Monte Carlo budget (smoke tests only)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polycarleson" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/polycarleson package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS or args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        run = traced_run if args.trace else untraced_run
        values, attempted, failures, record, versions = run(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    machine = machine_record(args, versions)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {THREADS}  git {machine['git_sha']}")
    print(f"  machine: nproc {machine['nproc']}, L2 {machine['l2_bytes_per_core']} B/core, "
          f"L3 {machine['l3_bytes']} B, 256^3 grid {machine['grid256_bytes']} B "
          f"= {machine['grid256_over_l3']} of L3")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  fail_ratio = {len(failures) / attempted} ({len(failures)} of {attempted})")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        t = record["traced"]
        print(f"  trace: main-thread self {t['main_self_s']} s + unattributed "
              f"{values['trace.unattributed_s']} s = wall {values['trace.wall_s']} s")
        for row in record["probes"]["reconciliation"]:
            mark = "agrees" if row["agrees"] else "DISAGREES"
            print(f"  roadmap {row['metric']}: measured {row['measured']} "
                  f"vs {row['roadmap']} ({mark})")
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"machine": machine, "metrics": metrics, "failures": failures,
                                  "attempted": attempted, **record}, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fixed-size layer probes, per-cell efficiency, the thread-count guard and the
reconciliation against the baseline recorded in ROADMAP.md.

Everything here runs in the traced pass only; none of it feeds an end-to-end
metric.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

import spans
from worker import output_bytes
from workloads import GRID_4_9, derive_seed

PROBE_POINTS = 1_000_000
CELL_BUDGET = 10_000_000
CELLS = (("product2", 4), ("product2", 9), ("product3", 4), ("product3", 9),
         ("powersum2", 4), ("powersum2", 9), ("powersum3", 4), ("powersum3", 8))

# ROADMAP.md "Baseline": product2 at delta 2^-6 with a 10M budget, and hit rates at 10M.
ROADMAP = {
    "baseline.estimate_1t_s": 3.34,
    "baseline.estimate_2t_s": 1.93,
    "baseline.sample_share": 0.65,
    "baseline.eval_share": 0.13,
    "baseline.audit_share": 0.12,
    "sublevel.hit_ratio.product2.d9": 0.042,
    "sublevel.hit_ratio.product3.d9": 0.006,
    "sublevel.hit_ratio.powersum2.d9": 3.3e-4,
    "sublevel.hit_ratio.powersum3.d8": 1.3e-5,
}
AGREE = 0.25  # relative distance within which a measurement counts as agreeing


def _seconds(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _regions(syms):
    from polycarleson import build_proposal

    d = 2.0**-6
    regions = {
        "window": (syms["product2"], build_proposal([(syms["product2"], 1.0, d)], 2)),
        "arcs": (syms["powersum2"], build_proposal([(syms["powersum2"], 1.0, d)], 2)),
        "fiber_arcs": (syms["general2"],
                       build_proposal([(syms["general2"].component(0), 1.0, d)], 2)),
    }
    shapes = [r.window is not None for _, r in regions.values()]
    if shapes != [True, False, False]:
        raise RuntimeError("probe regions no longer have the expected shapes")
    return regions


def rate_probes(syms, seed: int, scale: float) -> dict:
    """Million points per second of the sampler, evaluation and membership test, one thread."""
    from polycarleson import WeightParam, restricted_sample, sample_polydisc
    from polycarleson.measure import region_contains
    from polycarleson.montecarlo import run_batches

    beta = WeightParam(0.0)
    n_pts = max(10_000, int(PROBE_POINTS * scale))
    out = {}
    eval_s = 0.0
    regions = _regions(syms)
    for kind, (sym, region) in regions.items():
        rng = np.random.default_rng(derive_seed(seed, "probe", kind))
        secs = _seconds(lambda: restricted_sample(region, beta, rng, n_pts))
        out[f"measure.restricted_sample_mpts_per_s.{kind}"] = n_pts / secs / 1e6
        z, _ = restricted_sample(region, beta, rng, n_pts)
        eval_s += _seconds(lambda: sym.evaluate_batch(z))
    out["symbols.eval_mpts_per_s"] = len(regions) * n_pts / eval_s / 1e6

    rng = np.random.default_rng(derive_seed(seed, "probe", "polydisc"))
    out["measure.sample_polydisc_mpts_per_s"] = (
        n_pts / _seconds(lambda: sample_polydisc(2, beta, rng, n_pts)) / 1e6)
    z = sample_polydisc(2, beta, rng, n_pts)
    window = regions["window"][1]
    out["measure.region_contains_mpts_per_s"] = (
        n_pts / _seconds(lambda: region_contains(window, z)) / 1e6)

    def worker(r, count):
        return (restricted_sample(window, beta, r, count)[0].shape[0],)

    batch_seed = derive_seed(seed, "probe", "batches")
    one, two = (_seconds(lambda t=t: run_batches(4 * n_pts, batch_seed, "probe", worker,
                                                 threads=t, batch_size=n_pts))
                for t in (1, 2))
    out["montecarlo.speedup_2t"] = one / two
    return out


def cell_probes(syms, seed: int, threads: int, scale: float) -> dict:
    """Hit ratio and work-normalised variance of single estimates at fixed cells."""
    from polycarleson import SublevelQuery, WeightParam, estimate_sublevel

    budget = max(1000, int(CELL_BUDGET * scale))
    out = {}
    for name, k in CELLS:
        q = SublevelQuery(syms[name], 1.0, 2.0**-k, WeightParam(0.0), budget,
                          seed=derive_seed(seed, "cell", name, k), threads=threads)
        t = time.perf_counter()
        est = estimate_sublevel(q)
        secs = time.perf_counter() - t
        cell = f"{name}.d{k}"
        out[f"sublevel.hit_ratio.{cell}"] = est.hits / budget
        out[f"sublevel.cell_wnv.{cell}"] = (
            (est.stderr / est.volume) ** 2 * secs if est.volume > 0 else None)
    return out


def baseline_probe(syms, collector, seed: int, scale: float) -> dict:
    """product2 at delta 2^-6: seconds at 1 and 2 threads, stage shares at 1 thread."""
    from polycarleson import SublevelQuery, WeightParam, estimate_sublevel

    budget = max(1000, int(CELL_BUDGET * scale))
    out = {}
    for t in (1, 2):
        q = SublevelQuery(syms["product2"], 1.0, 2.0**-6, WeightParam(0.0), budget,
                          seed=derive_seed(seed, "baseline"), threads=t)
        first = len(collector.spans)
        t0 = time.perf_counter()
        estimate_sublevel(q)
        out[f"baseline.estimate_{t}t_s"] = secs = time.perf_counter() - t0
        if t == 1:
            table = spans.self_time_table(collector.spans[first:])
            audit = sum(s.seconds for s in collector.spans[first:]
                        if s.name == "montecarlo.run_batches" and s.attrs["kind"] == "audit")
            out["baseline.sample_share"] = table.get("measure.restricted_sample", 0.0) / secs
            out["baseline.eval_share"] = table.get("montecarlo.batch.main", 0.0) / secs
            out["baseline.audit_share"] = audit / secs
    return out


def thread_guard(syms, seed: int, scale: float) -> dict:
    """One exponent fit must give byte-identical CSV at 1 and 2 threads."""
    from polycarleson import WeightParam, fit_exponent

    digests = []
    for t in (1, 2):
        fit = fit_exponent(syms["product2"], 1.0, WeightParam(0.0), GRID_4_9,
                           max(1000, int(2_000_000 * scale)),
                           seed=derive_seed(seed, "threads"), threads=t)
        digests.append(hashlib.sha256(output_bytes(fit)).hexdigest())
    return {"threads": [1, 2], "digests": digests, "identical": digests[0] == digests[1]}


def reconcile(measured: dict) -> list[dict]:
    rows = []
    for name, expected in ROADMAP.items():
        value = measured.get(name)
        ratio = None if value is None else value / expected
        rows.append({"metric": name, "measured": value, "roadmap": expected, "ratio": ratio,
                     "agrees": ratio is not None and abs(ratio - 1.0) <= AGREE})
    return rows


def run(syms, collector, seed: int, threads: int, scale: float) -> dict:
    metrics = rate_probes(syms, seed, scale)
    metrics.update(cell_probes(syms, seed, threads, scale))
    metrics.update(baseline_probe(syms, collector, seed, scale))
    return {"layers": metrics, "thread_guard": thread_guard(syms, seed, scale),
            "reconciliation": reconcile(metrics)}

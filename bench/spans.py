"""Span collection around the library's public functions, from outside the package.

`install` replaces each traced function with a timing wrapper in the module
that looks it up at call time, so the library itself is unchanged.  Spans are
kept in memory; `layer_metrics` turns them into per-layer counts and times.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Collector:
    """In-memory span store; the parent is the innermost open span on the thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            sp = Span(next(self._ids), parent, name, threading.get_ident(),
                      time.perf_counter(), attrs=attrs)
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "thread": s.thread, "start": s.start, "end": s.end,
                                     "attrs": s.attrs}) + "\n")


def _wrap(collector: Collector, module, name: str, span_name: str, record=None):
    orig = getattr(module, name)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        with collector.span(span_name) as sp:
            out = orig(*args, **kwargs)
            if record is not None:
                record(sp, args, kwargs, out)
            return out

    setattr(module, name, traced)


def screened_cells(sym, index_set, res: int, contact_tol: float) -> int:
    """Grid cells find_contact_set screens: res^n per non-monomial component.

    Mirrors its structural shortcut: a zero component or a monomial whose
    coefficient is off the unit circle ends the call before any grid work.
    """
    grid = 0
    for i in index_set:
        if not sym.components[i]:
            return 0
        mono = sym.monomial_structure(i)
        if mono is None:
            grid += 1
        elif abs(abs(mono[0]) - 1.0) > contact_tol:
            return 0
    return grid * res**sym.n_in


def install(collector: Collector) -> None:
    """Wrap the traced functions where sublevel, carleson, criteria, measure and symbols look them up."""
    from polycarleson import carleson, criteria, measure, sublevel, symbols
    from polycarleson.config import DEFAULTS

    def sample_bytes(sp, args, kwargs, out):
        z = out[0] if isinstance(out, tuple) else out
        sp.attrs["bytes"] = int(z.nbytes)

    def indicator(sp, args, kwargs, out):
        sp.attrs.update(hits=out.hits, trusted=out.trusted)

    def contact(sp, args, kwargs, out):
        config = args[3] if len(args) > 3 else kwargs.get("config", DEFAULTS)
        tol = config.contact_tol
        sp.attrs.update(points=len(out.points), accepted_fraction=out.accepted_fraction,
                        cells=screened_cells(out.symbol, out.index_set, out.grid_res, tol))

    for mod in (sublevel, carleson):
        _wrap(collector, mod, "estimate_indicator", "sublevel.estimate_indicator", indicator)
        _wrap(collector, mod, "build_proposal", "sublevel.build_proposal")
        _wrap(collector, mod, "loglog_wls", "fitting.loglog_wls")
    _wrap(collector, sublevel, "restricted_sample", "measure.restricted_sample", sample_bytes)
    _wrap(collector, sublevel, "sample_polydisc", "measure.sample_polydisc", sample_bytes)
    _wrap(collector, sublevel, "region_contains", "measure.region_contains")
    _wrap(collector, sublevel, "region_mass", "measure.region_mass")
    _wrap(collector, sublevel, "find_value_fiber", "sublevel.find_value_fiber")
    _wrap(collector, sublevel, "find_contact_set", "contact.find_contact_set", contact)
    _wrap(collector, criteria, "find_contact_set", "contact.find_contact_set", contact)
    _wrap(collector, criteria, "rank_report", "contact.rank_report")
    _wrap(collector, carleson, "carleson_box_measure", "carleson.carleson_box_measure")
    _wrap(collector, carleson, "preimage_box_ratio", "carleson.preimage_box_ratio")
    _wrap(collector, measure, "disc_cap_measure", "measure.disc_cap_measure")
    _wrap(collector, symbols, "certify_self_map", "symbols.certify_self_map")

    orig_run_batches = sublevel.run_batches

    @functools.wraps(orig_run_batches)
    def run_batches(total, seed, label, worker, *args, **kwargs):
        kind = "audit" if label.endswith("/audit") else "main"
        with collector.span("montecarlo.run_batches", kind=kind, total=int(total)) as fan:
            def batch(rng, count):
                # pool threads start with an empty stack: parent them to the fan-out
                with collector.span(f"montecarlo.batch.{kind}", parent=fan.id):
                    return worker(rng, count)

            return orig_run_batches(total, seed, label, batch, *args, **kwargs)

    sublevel.run_batches = run_batches


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the children that ran on the same thread."""
    by_id = {s.id: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child[p.id] += s.seconds
    return {s.id: s.seconds - child[s.id] for s in spans}


DECIDER_OPS = ("op.bidisc", "op.tridisc", "op.rank")


def layer_metrics(spans: list[Span], main_thread: int, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Times named `*_s` are summed over threads (busy time).  The main thread's
    self times plus `trace.unattributed_s` add up to `trace.wall_s`;
    `trace.busy_s` adds the self times of every thread, without the main
    thread's wait for the batch pool.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, **match):
        return sum(s.seconds for s in by_name[name]
                   if all(s.attrs.get(k) == v for k, v in match.items()))

    def self_total(*names):
        return sum(selfs[s.id] for n in names for s in by_name[n])

    def count(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def drawn(kind):
        return sum(s.attrs["total"] for s in by_name["montecarlo.run_batches"]
                   if s.attrs["kind"] == kind)

    indicator = by_name["sublevel.estimate_indicator"]
    contacts = by_name["contact.find_contact_set"]
    cells = attr_sum("contact.find_contact_set", "cells")
    main_top = sum(s.seconds for s in spans if s.thread == main_thread and s.parent is None)
    return {
        "measure.disc_cap_measure_calls": count("measure.disc_cap_measure"),
        "measure.disc_cap_measure_s": total("measure.disc_cap_measure"),
        "measure.sample_bytes": attr_sum("measure.restricted_sample", "bytes")
        + attr_sum("measure.sample_polydisc", "bytes"),
        "montecarlo.batches": count("montecarlo.batch.main") + count("montecarlo.batch.audit"),
        "sublevel.estimates": len(indicator),
        "sublevel.draws": drawn("main"),
        "sublevel.audit_draws": drawn("audit"),
        "sublevel.hits": attr_sum("sublevel.estimate_indicator", "hits"),
        "sublevel.untrusted": sum(1 for s in indicator if s.attrs.get("trusted") is False),
        "sublevel.estimate_s": total("sublevel.estimate_indicator"),
        "sublevel.sample_s": total("measure.restricted_sample"),
        "sublevel.audit_s": total("montecarlo.run_batches", kind="audit"),
        "sublevel.membership_s": self_total("sublevel.estimate_indicator",
                                            "montecarlo.batch.main", "montecarlo.batch.audit"),
        "sublevel.build_proposal_s": total("sublevel.build_proposal"),
        "sublevel.value_fiber_s": total("sublevel.find_value_fiber"),
        "contact.find_contact_set_calls": len(contacts),
        "contact.find_contact_set_s": total("contact.find_contact_set"),
        "contact.grid_cells": cells,
        "contact.grid_bytes": 4 * cells,
        "contact.accepted_fraction": (sum(s.attrs.get("accepted_fraction", 0.0) for s in contacts)
                                      / len(contacts)) if contacts else 0.0,
        "contact.points": attr_sum("contact.find_contact_set", "points"),
        "contact.rank_report_calls": count("contact.rank_report"),
        "contact.rank_report_s": total("contact.rank_report"),
        "criteria.decisions": sum(count(n) for n in DECIDER_OPS),
        "criteria.decide_s": self_total(*DECIDER_OPS),
        "carleson.box_ratio_calls": count("carleson.preimage_box_ratio"),
        "carleson.box_ratio_s": total("carleson.preimage_box_ratio"),
        "carleson.box_measure_s": total("carleson.carleson_box_measure"),
        "fitting.fit_calls": count("fitting.loglog_wls"),
        "fitting.fit_s": total("fitting.loglog_wls"),
        "trace.wall_s": wall_s,
        # the fan-out's self time is the main thread waiting for the pool, not work
        "trace.busy_s": sum(selfs[s.id] for s in spans if s.name != "montecarlo.run_batches"),
        "trace.unattributed_s": wall_s - main_top,
    }


def self_time_table(spans: list[Span], thread: int | None = None) -> dict[str, float]:
    """Self time per span name, summed over threads or on one thread."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if thread is None or s.thread == thread:
            out[s.name] += selfs[s.id]
    return dict(sorted(out.items()))

"""Smoke test of the benchmark harness at tiny budgets (under a minute).

    python3 -m pytest bench/test_harness.py -q

It checks that every metric named in BENCHMARK.json is emitted, that the
correctness oracle rejects a wrong expectation, and that the benchmark refuses
to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from workloads import GRID_4_9, Op  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench(ROOT, "--workload", "scan", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--budget-scale", "0.05")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert proc.returncode == (0 if result["correct"] else 1)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.0 <= values["trace.unattributed_s"] <= values["trace.wall_s"]
        assert values["carleson.box_ratio_calls"] == 25


@pytest.fixture(scope="module")
def symbols():
    syms, _, _ = worker.setup(False)
    return syms


@pytest.mark.parametrize("expect, ok", [("Bounded", True), ("Unbounded", False)])
def test_oracle_checks_verdicts(symbols, expect, ok):
    op = Op("identity2", "bidisc", "identity2", expect=expect)
    reason = worker.check(op, worker.run_op(op, symbols, 0, 1))
    assert (reason == "") == ok, reason


@pytest.mark.parametrize("target, ok", [(3.0, True), (4.0, False)])
def test_oracle_checks_slopes(symbols, target, ok):
    op = Op("product2", "fit", "product2", grid=GRID_4_9, budget=200_000, target=target,
            tol=0.15)
    reason = worker.check(op, worker.run_op(op, symbols, 5, 2))
    assert (reason == "") == ok, reason


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "exponent", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

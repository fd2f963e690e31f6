"""Acceptance suite: every pinned battery criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The criteria share expensive fits and
scans through one module-scoped battery run and its memo, exactly as the
``battery`` CLI subcommand does, so the verdict pairs asserted here come from a
single run.  The tolerances below are literals on purpose: they guard against
the manifest being loosened.
"""

import pytest

from polycarleson.battery import (
    BASE_SEED,
    GRID_4_8,
    MANIFEST,
    SYMBOL_NAMES,
    SYMBOL_TABLES,
    BatteryRun,
    FitCase,
    get_symbol,
    property_reports,
    run_battery,
)


@pytest.fixture(scope="module")
def run():
    return BatteryRun()


def _run(number, run):
    result = run.criterion(number)
    print(result.line())
    return result


def test_criterion_01_product_exponents(run):
    result = _run(1, run)
    for case, info in result.details.items():
        assert abs(info["slope"] - info["target"]) <= 0.15, (case, info)
        assert info["seconds"] <= 300.0, (case, info)
    assert result.passed


def test_criterion_02_power_sum_exponents(run):
    result = _run(2, run)
    for case, info in result.details.items():
        assert abs(info["slope"] - info["target"]) <= 0.2, (case, info)
    assert result.passed


def test_criterion_03_sandwich_bounds(run):
    result = _run(3, run)
    for case, info in result.details.items():
        lo, hi = info["band"]
        assert lo <= info["slope"] <= hi, (case, info)
    assert result.passed


def test_criterion_04_disc_cap_scaling(run):
    result = _run(4, run)
    for case, info in result.details.items():
        if case == "seconds":
            assert info <= 10.0
            continue
        assert abs(info["slope"] - info["target"]) <= 0.05, (case, info)
    assert result.passed


def test_criterion_05_sharpness_thresholds(run):
    result = _run(5, run)
    assert abs(result.details["bounded3"]["slope"]) <= 0.1, result.details
    assert abs(result.details["unbounded4"]["slope"] + 1.0) <= 0.2, result.details
    assert result.passed


def test_criterion_06_bidisc(run):
    result = _run(6, run)
    for name in MANIFEST["bidisc"]["bounded"]:
        assert result.details[name]["outcome"] == "Bounded"
    assert result.details["mean_product"]["outcome"] == "Unbounded"
    assert result.details["mean_product"]["witness_diagonal_gap"] < 1e-3
    assert abs(result.details["mean_product scan"]["slope"] + 0.5) <= 0.2
    assert result.passed


def test_criterion_07_tridisc(run):
    result = _run(7, run)
    assert result.details["stacked_product3"]["outcome"] == "Bounded"
    assert result.details["repeated_product3"]["outcome"] == "Unbounded"
    assert abs(result.details["repeated_product3 scan"]["slope"] + 1.0) <= 0.2
    assert result.passed


def test_criterion_08_sufficient_not_necessary(run):
    result = _run(8, run)
    assert result.details["rank_sufficiency"] == "NecessityFails"
    assert result.details["tridisc_decision"] == "Bounded"
    assert result.passed


def test_criterion_09_beta_uniformity(run):
    result = _run(9, run)
    assert result.details["max_ratio"] <= 10.0 * result.details["beta0_max_ratio"]
    for beta, slope in result.details["slopes"].items():
        assert abs(slope) <= 0.1, (beta, slope)
    assert result.passed


def test_criterion_10_property_battery(run):
    result = _run(10, run)
    properties = result.details["properties"]
    assert all(properties.values()), result.details
    assert properties["slice_gradient_constancy_5"] and properties["slice_gradient_constancy_6"]
    assert all(properties[f"boundary_derivative_{i}"] for i in range(7, 11))
    assert result.details["identity_ratio_worst_z"] <= 3.0
    spec = MANIFEST["property_battery"]
    boxes = spec["identity_boxes"] * len(spec["identity_betas"])
    assert result.details["identity_boxes_with_stderr"] == boxes  # every box was tested
    assert result.details["certificates"]
    assert result.passed


def test_criterion_10_one_detail_per_report(run):
    """Reports that share a name (two linearization bounds, two Schwarz
    products, ...) each keep their own entry, keyed as in property_battery.json."""
    reports = property_reports(MANIFEST["property_battery"]["seed"])
    properties = _run(10, run).details["properties"]
    assert properties == {f"{r.name}_{i}": r.passed for i, r in enumerate(reports)}
    assert len(properties) == len(reports) == 11


def test_criterion_11_determinism(run):
    result = _run(11, run)
    assert result.details["identical"]
    assert result.passed


def test_cross_validation_slope_signs(run):
    """Measured ratio slopes agree in sign with the rank-based verdicts."""
    for number in (5, 6, 7):
        _run(number, run)
    bounded = [MANIFEST["sharpness_scans"]["bounded3"]]
    unbounded = [MANIFEST["sharpness_scans"]["unbounded4"], MANIFEST["bidisc"]["scan"],
                 MANIFEST["tridisc"]["scan"]]
    assert all(case in run.memo for case in bounded + unbounded)
    for case in bounded:
        assert run.result(case).slope >= -0.1, case
    for case in unbounded:
        assert run.result(case).slope <= -0.3, case


def test_every_battery_symbol_is_certified():
    for name in SYMBOL_NAMES:
        assert get_symbol(name).certificate is not None, name


def test_refused_case_fails_its_criterion(monkeypatch):
    """A refused fit fails its own case as untrusted; the remaining criteria still run."""
    # 0.4 z + 0.4 z^2 stays within |f| <= 0.8, so every set of the 2^-4 ... 2^-8
    # grid is empty though no proposal says so: the expected count of draws
    # with positive weight is 0 at any seed, and no point is trusted
    monkeypatch.setitem(SYMBOL_TABLES, "capped_square", [[((1,), 0.4), ((2,), 0.4)]])
    refusing = FitCase("capped_square", 0.0, GRID_4_8, 10, BASE_SEED + 22)
    monkeypatch.setitem(MANIFEST, "power_sum_exponent",
                        {**MANIFEST["power_sum_exponent"], "cases": (refusing,)})
    lines = []
    results, code = run_battery(only={2, 4}, emit=lines.append)
    detail = results[0].details["capped_square, beta=0"]
    assert not detail["ok"] and detail["untrusted"]
    assert "only 0 trusted points" in detail["refused"]
    assert not results[0].passed and results[0].untrusted
    assert results[1].passed and len(lines) == 2
    assert code == 3

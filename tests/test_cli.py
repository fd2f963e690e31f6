import dataclasses
import json
import warnings

import pytest

from polycarleson import battery, cli
from polycarleson.cli import ExperimentConfig, _build_parser, _merge_config, load_symbol, main
from polycarleson.output import json_text


def run_cli(args):
    return main(args)


class TestConfigRoundTrip:
    def test_lossless(self, tmp_path):
        cfg = ExperimentConfig(subcommand="exponent", symbol="product2", beta=0.5,
                               budget=12345, seed=7, delta_grid=[0.5, 0.25, 0.125, 0.0625],
                               shrink=[1, 0], only=[4], tolerances={"contact_tol": 1e-7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"no_such_key": 1})


class TestFlags:
    def test_list_flags_typed_and_laid_over_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"symbol": "product3", "seed": 4, "budget": 10,
                                    "delta_grid": [0.5, 0.25]}))
        args = _build_parser().parse_args([
            "exponent", "--config", str(path), "--symbol", "product2", "--eta", "0",
            "--delta-grid", "0.25,0.125"])
        assert _merge_config(args) == ExperimentConfig(
            subcommand="exponent", symbol="product2", seed=4, budget=10,
            delta_grid=[0.25, 0.125], eta=[1.0, 0.0])

    def test_malformed_list_flags_exit_2(self, tmp_path):
        for args in (["exponent", "--eta", "1,0,0"], ["carleson", "--shrink", "1,x"],
                     ["exponent", "--delta-grid", "0.5,,0.25"]):
            assert run_cli([*args, "--symbol", "product2", "--out-dir", str(tmp_path)]) == 2, args


class TestWarningLog:
    def test_warnings_mirrored_as_jsonl(self, tmp_path, monkeypatch):
        def noisy(cfg, out_dir):
            warnings.warn("grid too coarse", RuntimeWarning)
            warnings.warn("second", UserWarning)
            return 0

        monkeypatch.setitem(cli.COMMANDS, "decide", noisy)
        assert run_cli(["decide", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "warnings.jsonl").read_text() == (
            '{"category": "RuntimeWarning", "message": "grid too coarse"}\n'
            '{"category": "UserWarning", "message": "second"}\n')


class TestSymbolLoading:
    def test_registry_name(self):
        sym = load_symbol("product2")
        assert sym.n_in == 2

    def test_inline_literal(self):
        sym = load_symbol("[[[1.0, 0.0, 1, 1]]]")
        assert sym.n_in == 2
        assert sym.n_out == 1

    def test_file_literal(self, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps([[[1.0, 0.0, 1, 0]], [[1.0, 0.0, 0, 2]]]))
        sym = load_symbol(str(path))
        assert sym.n_out == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_symbol("nonsense_name")


class TestDecideCommand:
    def test_identity_bidisc(self, tmp_path, capsys):
        code = run_cli(["decide", "--symbol", "identity2", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "Bounded"
        assert (tmp_path / "decide_identity2.json").exists()

    def test_mean_product_unbounded(self, tmp_path, capsys):
        code = run_cli(["decide", "--symbol", "mean_product", "--out-dir", str(tmp_path)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["outcome"] == "Unbounded"
        assert "witness" in data

    def test_tridisc_beta_rejected(self, tmp_path):
        code = run_cli(["decide", "--symbol", "identity3", "--beta", "1.0",
                        "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("config, symbol", [
        ('{"symbol": 5}', None),
        ('{"out_dir": 5}', "product2"),
        (None, "[[1]]"),
        (None, '[[["a",0,1]]]'),
        (None, "[[[1,0,1.5]]]"),  # once truncated to z without a word
    ])
    def test_malformed_input_is_a_config_error(self, tmp_path, monkeypatch, capsys, config,
                                               symbol):
        monkeypatch.chdir(tmp_path)  # the default out_dir
        args = ["decide"]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            args += ["--config", str(path)]
        if symbol is not None:
            args += ["--symbol", symbol]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_overflowing_symbol_fails_certification(self, tmp_path, capsys):
        code = run_cli(["decide", "--symbol", "[[[1,0,1e20]]]", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "torus grid max nan" in err and "SVD" not in err


class TestExponentCommand:
    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        code = run_cli([
            "exponent", "--symbol", "product2", "--budget", "200000",
            "--delta-grid", "0.0625,0.03125,0.015625,0.0078125",
            "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["slope"] - 3.0) < 0.3
        csv = (tmp_path / "exponent_product2.csv").read_text().splitlines()
        assert csv[0] == "delta,estimate,stderr,hits,region_mass,trusted"
        assert len(csv) == 5
        svg = (tmp_path / "exponent_product2.svg").read_text()
        assert svg.startswith("<svg") and "slope" in svg

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = ExperimentConfig(subcommand="exponent", symbol="product2",
                               budget=100000, seed=1,
                               delta_grid=[0.25, 0.125, 0.0625, 0.03125],
                               out_dir=str(tmp_path))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = run_cli(["exponent", "--config", str(path), "--seed", "9"])
        assert code == 0

    # the proposal margin, the audit's trust rule and the contact-detection caps
    # are constants, not settings: a margin of 0.05 once ran with every point
    # trusted and every volume ~5.7 % of the truth
    REMOVED_TOLERANCES = {"proposal_margin": 0.05, "leakage_fraction": 0.1,
                          "leakage_threshold": 0.01, "zero_hit_factor": 3.0, "fiber_cap": 64,
                          "coarse_margin": 1e-2, "merge_radius": 1e-4, "manifold_frac": 0.05,
                          "posdim_sample_cap": 4096, "finite_cap": 256, "quad_tol": 1e-8}

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ("{not json", '{"tolerances": {"no_such_tol": 1.0}}', '{"budget": "ten"}',
                     '{"shrink": "1,0"}', '{"budget": 20000.5}', '{"seed": 3.5}',
                     '{"tolerances": {"batch_size": 1000}}', '{"tolerances": {"cert_tol": 0.5}}',
                     '{"tolerances": {"jc_tol": "1e-6"}}', '{"tolerances": {"rank_tol": true}}',
                     '{"tolerances": [1e-7]}', '{"eta": [1]}', '{"eta": ["a", 0]}',
                     '{"shrink": ["a", 0]}', '{"threads": true}', '{"shrink": [true, false]}',
                     '{"delta_grid": [0.5, "0.25"]}', '{"center": [null]}', '{"only": [4.5]}',
                     '{"formats": ["xml"]}', '{"formats": [1]}'):
            path.write_text(text)
            assert run_cli(["exponent", "--config", str(path), "--symbol", "product2",
                            "--out-dir", str(tmp_path)]) == 2, text
        for key, value in self.REMOVED_TOLERANCES.items():
            path.write_text(json.dumps({"tolerances": {key: value}}))
            assert run_cli(["exponent", "--config", str(path), "--symbol", "product2",
                            "--budget", "200000", "--seed", "3",
                            "--out-dir", str(tmp_path)]) == 2, key

    def test_integral_float_budget_and_seed_run(self, tmp_path, capsys):
        # budget and seed take integral floats; a tolerance takes an int
        path = tmp_path / "cfg.json"
        path.write_text('{"budget": 2e4, "seed": 3.0,'
                        ' "tolerances": {"contact_tol": 1e-8, "jc_tol": 1}}')
        args = _build_parser().parse_args(["exponent", "--config", str(path)])
        cfg = _merge_config(args)
        assert (cfg.budget, cfg.seed) == (20000, 3)
        assert type(cfg.budget) is int and type(cfg.seed) is int
        assert cfg.tolerances == {"contact_tol": 1e-8, "jc_tol": 1}
        code = run_cli(["exponent", "--config", str(path), "--symbol", "product2",
                        "--delta-grid", "0.25,0.125,0.0625,0.03125", "--out-dir", str(tmp_path)])
        assert code == 0

    def test_missing_symbol_exit_2(self, tmp_path, capsys):
        # no --symbol is the empty spec, which names the working directory
        for extra in ([], ["--symbol", str(tmp_path)]):
            code = run_cli(["exponent", "--budget", "1000", "--out-dir", str(tmp_path), *extra])
            assert code == 2, extra
            assert "unknown symbol" in capsys.readouterr().err

    def test_structurally_empty_fit_exit_3(self, tmp_path, capsys):
        # |0.5 z1 z2| <= 0.5, so every sublevel set around eta = 1 is empty
        code = run_cli(["exponent", "--symbol", "[[[0.5, 0, 1, 1]]]", "--budget", "1000",
                        "--out-dir", str(tmp_path)])
        assert code == 3
        assert "fit refused" in capsys.readouterr().err

    def test_untrusted_points_exit_3(self, tmp_path, capsys):
        # f = 0.4 z + 0.4 z^2 has |f| <= 0.8, so {|f - 1| <= delta} is empty for
        # delta < 0.2 though no proposal says so: the two finest deltas have no
        # draw with positive weight (expected count 0 at any seed) and are not
        # trusted.  z enters with two exponents, so weights are 0/1; at delta
        # 0.24, the smallest of the other four, ~75 of the 50,000 draws hit.
        # The fit over those four still succeeds.
        path = tmp_path / "capped.json"
        path.write_text(json.dumps([[[0.4, 0.0, 1], [0.4, 0.0, 2]]]))
        code = run_cli(["exponent", "--symbol", str(path), "--budget", "50000", "--seed", "1",
                        "--delta-grid", "1.92,0.96,0.48,0.24,0.12,0.06",
                        "--out-dir", str(tmp_path)])
        assert code == 3
        rows = (tmp_path / "exponent_capped.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows].count("0") == 2


class TestCarlesonCommand:
    def test_scan(self, tmp_path, capsys):
        code = run_cli([
            "carleson", "--symbol", "identity2", "--shrink", "1,1",
            "--budget", "100000", "--delta-grid", "0.125,0.0625,0.03125,0.015625",
            "--seed", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["slope"]) < 0.2
        assert (tmp_path / "carleson_identity2.csv").exists()
        assert (tmp_path / "carleson_identity2.svg").exists()

    @pytest.mark.parametrize("literal", [
        "[[[0.333,0,1,0],[0.333,0,0,1],[0.333,0,1,1]]]",
        "[[[0.5,0,1,0],[0.5,0,0,1]]]",
    ])
    def test_non_square_symbol_centre_has_n_out_angles(self, tmp_path, literal):
        # one component of two variables: a box lives in the target polydisc, so the
        # default centre has one angle per component, not per variable
        code = run_cli(["carleson", "--symbol", literal, "--shrink", "1", "--budget", "20000",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert len(list(tmp_path.glob("carleson_*.csv"))) == 1

    def test_missing_shrink_exit_2(self, tmp_path):
        assert run_cli(["carleson", "--symbol", "identity2",
                        "--out-dir", str(tmp_path)]) == 2

    def test_non_geometric_grid_exit_2(self, tmp_path, capsys):
        # a grid that `exponent` refuses is refused here too, before any box is estimated
        code = run_cli(["carleson", "--symbol", "identity2", "--shrink", "1,1",
                        "--delta-grid", "0.5,0.3,0.1,0.01", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "geometric" in capsys.readouterr().err


class TestContactCommand:
    def test_dump(self, tmp_path, capsys):
        code = run_cli(["contact", "--symbol", "mixed_pair", "--index-set", "1,2",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "finite"
        csv = (tmp_path / "contact_mixed_pair.csv").read_text().splitlines()
        assert csv[0] == "theta_1,theta_2,residual,kind"
        assert len(csv) == 3


class TestCheckPropsCommand:
    def test_all_pass(self, tmp_path, capsys):
        code = run_cli(["check-props", "--seed", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert all(entry["passed"] for entry in lines)
        assert any(entry["name"] == "mobius_margin" for entry in lines)

    def test_runs_every_property_report(self, tmp_path, capsys):
        reports = battery.property_reports(5)
        assert {"slice_gradient_constancy", "boundary_derivative"} <= {r.name for r in reports}
        assert run_cli(["check-props", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert lines == [{"name": r.name, "passed": r.passed,
                          "empirical_constant": r.empirical_constant} for r in reports]
        written = sorted(p.name for p in tmp_path.glob("property_*.json"))
        assert written == sorted(f"property_{r.name}_{i}.json" for i, r in enumerate(reports))
        for i, r in enumerate(reports):
            text = (tmp_path / f"property_{r.name}_{i}.json").read_text()
            assert text == json_text(r.to_dict()) + "\n"


class TestBatteryCommand:
    def test_single_fast_criterion(self, tmp_path, capsys):
        code = run_cli(["battery", "--only", "4", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] criterion 4" in out
        summary = json.loads((tmp_path / "battery_summary.json").read_text())
        assert summary["exit_code"] == 0

    def test_sandwich_criterion_writes_its_fits(self, tmp_path, capsys, monkeypatch):
        # criterion 3 computes the beta-0 fits of criteria 1 and 2 itself; cut
        # their budgets so the run is quick, the artifacts are what is checked
        for key in ("product_exponent", "power_sum_exponent"):
            spec = dict(battery.MANIFEST[key])
            spec["cases"] = tuple(dataclasses.replace(c, budget=100_000) for c in spec["cases"])
            monkeypatch.setitem(battery.MANIFEST, key, spec)
        run_cli(["battery", "--only", "3", "--out-dir", str(tmp_path)])
        assert "criterion 3" in capsys.readouterr().out
        written = sorted(p.name for p in tmp_path.glob("exponent_*.csv"))
        assert written == [f"exponent_{name}_beta0.csv"
                           for name in ("powersum2", "powersum3", "product2", "product3")]


class TestThreadsEnvVar:
    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYCARLESON_THREADS", "2")
        code = run_cli(["decide", "--symbol", "identity2", "--out-dir", str(tmp_path)])
        assert code == 0

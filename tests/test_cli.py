"""Configuration loading, command-line entry points, and output files.

Expected behavior fixed up front: defaults are filled and logged, window
violations are rejected citing the named inequality, outputs round-trip
exactly at 17 significant digits, and identical config + seed gives a
bit-identical report apart from its timestamp.
"""

import csv
import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest

from fracsolve import cli, driver, gagliardo
from fracsolve.config import ConfigError, HypothesisError, load_config
from fracsolve.gagliardo import OperatorParams, assemble_weights
from fracsolve.grids import build_grid, disk, interval
from fracsolve.io_utils import write_field_csv
from fracsolve.riesz import plan_riesz_convolution, riesz_gradient
from support.oracles import read_field_csv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
    "exponents": {"s": 0.55, "s1": 0.6, "s2": 0.5, "p": 2.5, "q": 2.2},
}

NEGATIVE_EXPECTATIONS = {
    "q_ge_p.json": "2<q<p<N/s1",
    "s1p_le_1.json": "s1*p>1",
    "gamma_out_of_range.json": "gamma in (0,1)",
    "r_too_large.json": "r in (1,p-1)",
    "zeta_too_large.json": "zeta in (1,p-1)",
    "s1_hits_resonance.json": "s1<1/(p'*gamma)",
}


def dump(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_minimal_config_fills_and_logs_defaults(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="fracsolve.config"):
            cfg = load_config(dump(tmp_path, MINIMAL))
        assert cfg.resolution == 17
        assert cfg.reaction.gamma == 0.5
        assert cfg.reaction.r == 1.1
        assert cfg.convective.c3 == 0.0
        assert cfg.minimizer.tol == 1e-6
        assert cfg.outer.theta == 0.5
        assert cfg.output_dir == "out"
        assert cfg.seed == 0
        for name in ("resolution", "reaction", "convective", "minimizer", "outer", "seed"):
            assert name in caplog.text

    def test_explicit_values_not_logged_as_defaults(self, tmp_path, caplog):
        payload = dict(MINIMAL, resolution=9)
        with caplog.at_level(logging.INFO, logger="fracsolve.config"):
            cfg = load_config(dump(tmp_path, payload))
        assert cfg.resolution == 9
        assert "default applied: resolution" not in caplog.text

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(MINIMAL, domian={"kind": "interval", "a": 0, "b": 1})
        with pytest.raises(ConfigError, match="domian"):
            load_config(dump(tmp_path, payload))

    @pytest.mark.parametrize(
        "knob", ["shrink", "sufficient_decrease", "initial_step", "max_backtracks"]
    )
    def test_line_search_constants_not_configurable(self, tmp_path, knob):
        cfg = load_config(dump(tmp_path, dict(MINIMAL, minimizer={"tol": 1e-7})))
        assert set(cfg.as_dict()["minimizer"]) == {"tol", "max_iter"}
        payload = dict(MINIMAL, minimizer={"tol": 1e-7, knob: 0.5})
        with pytest.raises(ConfigError, match=r"unknown field\(s\)"):
            load_config(dump(tmp_path, payload))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_q_ge_p_cites_named_inequality(self, tmp_path):
        payload = {
            "domain": {"kind": "disk", "cx": 0.0, "cy": 0.0, "radius": 1.0},
            "exponents": {"s": 0.55, "s1": 0.6, "s2": 0.5, "p": 3.0, "q": 3.2},
        }
        with pytest.raises(HypothesisError, match=r"2<q<p<N/s1"):
            load_config(dump(tmp_path, payload))

    def test_resonant_s1_cites_named_inequality(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "negative" / "s1_hits_resonance.json").read_text())
        with pytest.raises(HypothesisError, match=r"s1<1/\(p'\*gamma\)"):
            load_config(dump(tmp_path, payload))

    def test_hypothesis_gate_optional(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "negative" / "q_ge_p.json").read_text())
        cfg = load_config(dump(tmp_path, payload), require_hypotheses=False)
        assert not cfg.hypotheses.passed

    @pytest.mark.parametrize("name,expected", sorted(NEGATIVE_EXPECTATIONS.items()))
    def test_shipped_negative_configs_name_one_violation(self, name, expected):
        with pytest.raises(HypothesisError) as err:
            load_config(str(CONFIG_DIR / "negative" / name))
        assert [c.name for c in err.value.failures] == [expected]

    def test_resolution_above_table_cap_rejected(self, tmp_path):
        payload = {
            "domain": {"kind": "disk", "cx": 0.0, "cy": 0.0, "radius": 1.0},
            "exponents": {"s": 0.55, "s1": 0.6, "s2": 0.5, "p": 3.0, "q": 2.5},
            "resolution": 131,
        }
        with pytest.raises(ConfigError, match="resolution"):
            load_config(dump(tmp_path, payload))

    def test_shipped_positive_configs_load(self):
        for name in ("interval_1d.json", "interval_1d_pure.json", "disk_2d.json"):
            cfg = load_config(str(CONFIG_DIR / name))
            assert cfg.hypotheses.passed


class TestFieldCsv:
    def test_round_trip_exact_1d(self, tmp_path):
        grid = build_grid(interval(0.0, 1.0), 17)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(grid.n_interior) * 1e-3
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, u)
        back = read_field_csv(grid, path)
        assert np.array_equal(back, u)

    def test_round_trip_exact_2d(self, tmp_path):
        grid = build_grid(disk(0.0, 0.0, 1.0), 9)
        rng = np.random.default_rng(4)
        u = np.exp(rng.standard_normal(grid.n_interior) * 7.0)
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, u)
        back = read_field_csv(grid, path)
        assert np.array_equal(back, u)

    def test_extra_columns_zero_off_interior(self, tmp_path):
        grid = build_grid(disk(0.0, 0.0, 1.0), 9)
        rng = np.random.default_rng(5)
        u, w = rng.standard_normal((2, grid.n_interior)) + 2.0
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, u, extra=[("w", w)])
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["x", "y", "u", "w"]
            data = np.array([[float(v) for v in row] for row in reader])
        assert np.all(data[~grid.interior_mask, 2:] == 0.0)
        assert np.array_equal(data[grid.interior_idx, 2], u)
        assert np.array_equal(data[grid.interior_idx, 3], w)

    def test_extra_column_of_wrong_length_rejected(self, tmp_path):
        grid = build_grid(interval(0.0, 1.0), 17)
        u = np.ones(grid.n_interior)
        path = tmp_path / "field.csv"
        with pytest.raises(ValueError, match="expected 15 interior values"):
            write_field_csv(path, grid, u, extra=[("w", np.ones(grid.n_interior + 1))])
        assert not path.exists()


class TestCliSolve:
    def test_solve_writes_three_files(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["solve", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        )
        assert code == 0
        for name in ("solution.csv", "report.json", "convergence.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["final_residual"] < 1e-5
        # the csv reproduces the reported interior values exactly
        grid = load_config(str(CONFIG_DIR / "interval_1d.json")).build_grid()
        u = read_field_csv(grid, out / "solution.csv")
        assert np.array_equal(u, np.asarray(report["u"]))
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert rows[0] == "k,step_seminorm,frozen_residual,full_residual,v_norm"
        assert len(rows) == report["outer_iterations"] + 1

    def test_convergence_csv_rows_are_the_report_lists(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(
            ["solve", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        with open(out / "convergence.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [[float(v) for v in row] for row in reader]
        k, step, frozen, full, v_norm = (list(col) for col in zip(*rows))
        assert k == list(range(1, report["outer_iterations"] + 1))
        assert step == report["step_seminorms"]
        assert frozen == report["frozen_residuals"]
        assert full == report["full_residuals"]
        assert v_norm == report["v_norms"][1:]

    def test_solve_deterministic_modulo_timestamp(self, tmp_path):
        out = tmp_path / "run"
        args = ["solve", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        assert cli.main(args) == 0
        first = json.loads((out / "report.json").read_text())
        assert cli.main(args) == 0
        second = json.loads((out / "report.json").read_text())
        assert first.pop("timestamp") != ""
        second.pop("timestamp")
        canon = lambda d: json.dumps(d, sort_keys=True)
        assert canon(first) == canon(second)

    def test_report_counts_inner_iterations(self, tmp_path):
        out = tmp_path / "run"
        args = ["solve", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        assert cli.main(args) == 0
        report = json.loads((out / "report.json").read_text())
        counts = report["inner_iterations"]
        assert len(counts) == report["outer_iterations"]
        assert all(isinstance(c, int) and c >= 0 for c in counts)
        # the first step starts from the floor and cannot already be converged
        assert counts[0] > 0

    def test_runtime_failure_exit_code_and_stderr(self, tmp_path, capsys):
        payload = json.loads((CONFIG_DIR / "interval_1d.json").read_text())
        payload["outer"]["max_outer"] = 1
        payload["outer"]["ball_monitor"] = False
        out = tmp_path / "run"
        code = cli.main(["solve", "--config", dump(tmp_path, payload), "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "runtime"
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("phase", ["build", "solve"])
    def test_failed_solve_writes_report_with_phase_and_error(
        self, tmp_path, capsys, monkeypatch, phase
    ):
        # build: the pair pass is over budget; solve: the ball monitor trips
        # at the starting iterate, since the fitted radius is tiny
        if phase == "build":
            monkeypatch.setattr(gagliardo, "NODE_CAP", 1)
        else:
            tiny = driver.GrowthBound(c_emp=1e-12, rho=1e-9, exponent=1.0)
            monkeypatch.setattr(driver, "fit_growth_bound", lambda instance, seed=0: tiny)
        out = tmp_path / "run"
        path = str(CONFIG_DIR / "interval_1d.json")
        code = cli.main(["solve", "--config", path, "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert sorted(err) == ["error", "message"] and err["error"] == "runtime"
        report = json.loads((out / "report.json").read_text())
        assert sorted(report) == sorted(
            ["timestamp", "config", "seed", "converged", "phase", "error"]
        )
        assert report["converged"] is False and report["phase"] == phase
        assert report["config"] == load_config(path).as_dict()
        kind = "MemoryBudgetError" if phase == "build" else "RuntimeError"
        assert report["error"]["type"] == kind
        assert err["message"] == f"{kind}: {report['error']['message']}"
        if phase == "solve":
            assert "ball monitor violation" in report["error"]["message"]
        assert [f.name for f in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            ("kernel-table", "exponents", "p", float("nan")),
            ("solve", "outer", "tol", float("inf")),
            ("solve", None, "seed", -1),
        ],
    )
    def test_rejected_value_is_config_error(self, tmp_path, capsys, command, section, key, value):
        # each used to run: NaN tables, a converged report after one step,
        # or a seed that failed only after assembly, with exit code 1
        payload = json.loads((CONFIG_DIR / "interval_1d.json").read_text())
        (payload[section] if section else payload)[key] = value
        out = tmp_path / "run"
        code = cli.main([command, "--config", dump(tmp_path, payload), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == (f"{section}.{key}" if section else key)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,orders",
        [
            ("solve", {"s1": 1.0}),
            ("torsion", {"s1": 1.0}),
            ("gradient", {"s1": 1.0}),
            ("gradient", {"s": 1.0, "s1": 1.0}),
            ("kernel-table", {"s1": 1.0}),
            ("check-hypotheses", {"s1": 1.0}),
        ],
    )
    def test_order_one_is_config_error(self, tmp_path, capsys, command, orders):
        # s1 = 1 used to pass the config gate, and the commands failed at run time
        payload = json.loads((CONFIG_DIR / "interval_1d.json").read_text())
        payload["exponents"].update(orders)
        out = tmp_path / "run"
        args = [command, "--config", dump(tmp_path, payload)]
        if command != "check-hypotheses":
            args += ["--out", str(out)]
        assert cli.main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "config",
            "field": "exponents",
            "reason": "order s1 must lie below 1, got s1=1.0",
        }
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"


class TestCliOther:
    def test_check_hypotheses_pass(self, capsys):
        code = cli.main(["check-hypotheses", "--config", str(CONFIG_DIR / "interval_1d.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    @pytest.mark.parametrize("name,expected", sorted(NEGATIVE_EXPECTATIONS.items()))
    def test_check_hypotheses_fail_exit_2(self, name, expected, capsys):
        code = cli.main(
            ["check-hypotheses", "--config", str(CONFIG_DIR / "negative" / name)]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "hypothesis"
        assert [f["name"] for f in err["failures"]] == [expected]

    def test_check_hypotheses_rejects_out(self, tmp_path, capsys):
        # the command writes no files, so an output directory is a usage error
        config = str(CONFIG_DIR / "interval_1d.json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-hypotheses", "--config", config, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command",
        ["solve", "torsion", "gradient", "kernel-table", "check-hypotheses", "selftest"],
    )
    def test_rejects_threads(self, command, capsys):
        # a second FFT worker makes no run faster, so no command takes a
        # thread count
        args = [] if command == "selftest" else ["--config", str(CONFIG_DIR / "interval_1d.json")]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *args, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_torsion_outputs(self, tmp_path):
        out = tmp_path / "t"
        code = cli.main(
            ["torsion", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        )
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["sigma"] > 0.0
        assert cert["eta"] > 0.0
        grid = load_config(str(CONFIG_DIR / "interval_1d.json")).build_grid()
        floor = read_field_csv(grid, out / "torsion.csv")
        assert np.all(floor > 0.0)

    def test_gradient_outputs(self, tmp_path):
        out = tmp_path / "g"
        code = cli.main(
            ["gradient", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        )
        assert code == 0
        rows = (out / "gradient.csv").read_text().strip().splitlines()
        assert rows[0].startswith("x,")
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.all(np.isfinite(data))

    @pytest.mark.parametrize("name", ["interval_1d.json", "disk_2d.json"])
    def test_gradient_csv_is_the_zero_extended_riesz_gradient(self, tmp_path, name):
        out = tmp_path / "g"
        assert cli.main(["gradient", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
        cfg = load_config(str(CONFIG_DIR / name), require_hypotheses=False)
        grid = cfg.build_grid()
        with open(out / "gradient.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
        axes = "xy"[: grid.dim]
        assert header == [*axes, "u", *(f"dsu_{a}" for a in axes)]
        dsu = data[:, grid.dim + 1 :]
        assert np.all(dsu[~grid.interior_mask] == 0.0)
        # the bump is the distance to the boundary over its maximum
        d = grid.interior_distance
        bump = data[grid.interior_idx, grid.dim]
        assert np.array_equal(bump, d / np.max(d))
        # 17 significant digits round-trip every double exactly
        want = riesz_gradient(plan_riesz_convolution(grid, 1.0 - cfg.exponents.s), bump)
        assert np.array_equal(dsu[grid.interior_idx], want)

    def test_kernel_table_outputs(self, tmp_path):
        out = tmp_path / "k"
        code = cli.main(
            ["kernel-table", "--config", str(CONFIG_DIR / "interval_1d.json"), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "kernel_table.json").read_text())
        assert summary["n_interior"] == 15
        assert len(summary["tables"]) == 2
        for entry in summary["tables"]:
            assert entry["tail_min"] > 0.0

    def test_kernel_table_summary_matches_dense_pair(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "disk_2d.json").read_text())
        payload["resolution"] = 25
        path = dump(tmp_path, payload)
        out = tmp_path / "k"
        assert cli.main(["kernel-table", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "kernel_table.json").read_text())
        cfg = load_config(path)
        grid, e = cfg.build_grid(), cfg.exponents
        assert summary["n_interior"] == grid.n_interior == 437
        for entry, (s, p) in zip(summary["tables"], ((e.s1, e.p), (e.s2, e.q))):
            pair = assemble_weights(grid, OperatorParams(s, p)).pair
            assert (entry["s"], entry["p"]) == (s, p)
            assert entry["pair_frobenius"] == pytest.approx(np.linalg.norm(pair), rel=1e-12)
            assert entry["pair_max"] == float(np.max(pair))

    @pytest.mark.parametrize("outer_cache", [None, "preset"])
    def test_cache_dir_applies_to_one_command(self, tmp_path, monkeypatch, outer_cache):
        if outer_cache is None:
            monkeypatch.delenv("FRACSOLVE_CACHE", raising=False)
        else:
            monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path / outer_cache))
        before = os.environ.get("FRACSOLVE_CACHE")
        base = json.loads((CONFIG_DIR / "interval_1d.json").read_text())
        cache = tmp_path / "A"
        with_cache = dump(tmp_path, dict(base, cache_dir=str(cache)), "with_cache.json")
        code = cli.main(["kernel-table", "--config", with_cache, "--out", str(tmp_path / "k1")])
        assert code == 0
        assert os.environ.get("FRACSOLVE_CACHE") == before
        written = sorted(cache.glob("*.fwt"))
        assert len(written) == 2
        for path in written:
            path.unlink()

        without = dump(tmp_path, dict(base, cache_dir=None), "without.json")
        code = cli.main(["kernel-table", "--config", without, "--out", str(tmp_path / "k2")])
        assert code == 0
        assert os.environ.get("FRACSOLVE_CACHE") == before
        assert not list(cache.iterdir())

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "ok" in capsys.readouterr().out

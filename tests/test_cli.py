"""End-to-end tests for the command-line interface."""

import csv
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, count_calls, read_sweep_csv, strict_json
from golden.regenerate import GOLDEN, SCENARIOS, pinned_platform

import subdebt.cli as cli
import subdebt.risk as risk
import subdebt.scenario as scenario_module
import subdebt.verify as verify
from subdebt.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFY_FAILURE,
    main,
    run,
)
from subdebt.scenario import load_scenario

PYPROJECT = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()

DISTRESSED = """\
[scenario]
name = distressed
asset_value = 62
senior_face = 60
junior_face = 10
sigma = 0.10
initial_sigma = 0.10
maturity = 1.0
rate = 0.01

[monte_carlo]
paths = 100000
seed = 1
"""

SOLVENT = DISTRESSED.replace("asset_value = 62", "asset_value = 100").replace(
    "name = distressed", "name = solvent"
)

FROZEN = """\
[scenario]
name = frozen
asset_value = 62
senior_face = 60
junior_face = 10
sigma = 0.0
initial_sigma = 0.10
maturity = 1.0
rate = 0.01
"""

# V = 1e308 and tau = 100, so V e^{-q tau} sqrt(tau) overflows.  With these
# faces, sigma and rate the vega is finite; with F_S = 1e308, F_J = 5e307,
# sigma = 0.001 and r = 0 it is about 4e308, past the float range.
LARGE = """\
[scenario]
name = large
asset_value = 1e308
senior_face = {senior_face}
junior_face = {junior_face}
sigma = {sigma}
initial_sigma = 0.10
maturity = 100
rate = {rate}
"""


# Each command, with the flags that make it quick where it needs any.
COMMAND_FLAGS = {
    "price": [],
    "thresholds": [],
    "sweep-sigma": [],
    "sweep-structure": ["--total-face", "100", "--proportions", "0.1,0.2"]
    + ["--v-min", "50", "--v-max", "70", "--steps", "5"],
    "verify": ["--paths", "2000"],
}


@pytest.fixture
def distressed(tmp_path):
    path = tmp_path / "distressed.ini"
    path.write_text(DISTRESSED)
    return str(path)


@pytest.fixture
def solvent(tmp_path):
    path = tmp_path / "solvent.ini"
    path.write_text(SOLVENT)
    return str(path)


@pytest.fixture
def near_hump(tmp_path):
    """``scenarios/distressed.ini`` at tau = 30, 1e-11 above its hump threshold."""
    text = (SCENARIOS / "distressed.ini").read_text()
    text = text.replace("asset_value = 62", "asset_value = 48.01050792942115")
    path = tmp_path / "near_hump.ini"
    path.write_text(text.replace("maturity = 1.0", "maturity = 30"))
    return str(path)


class TestPrice:
    def test_text_report_echoes_inputs_and_values(self, distressed, capsys):
        assert main(["price", "--scenario", distressed]) == EXIT_OK
        out = capsys.readouterr().out
        for key in (
            "scenario",
            "asset_value",
            "senior_value",
            "junior_value",
            "equity_value",
            "total",
            "junior_vega",
        ):
            assert key in out
        assert "distressed" in out

    def test_json_report_values(self, distressed, capsys):
        assert main(["price", "--scenario", distressed, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == pytest.approx(62.0, rel=1e-12)
        assert report["junior_vega"] > 0.0
        assert report["senior_value"] + report["junior_value"] + report[
            "equity_value"
        ] == pytest.approx(62.0, rel=1e-10)

    def test_solvent_vega_is_negative(self, solvent, capsys):
        main(["price", "--scenario", solvent, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["junior_vega"] < 0.0

    def test_zero_volatility_reports_vega_not_applicable(self, tmp_path, capsys):
        # sigma = 0, and a sigma > 0 whose product with sqrt(0.25) underflows.
        underflow = FROZEN.replace("sigma = 0.0", "sigma = 5e-324").replace(
            "maturity = 1.0", "maturity = 0.25"
        )
        for text, maturity in ((FROZEN, 1.0), (underflow, 0.25)):
            path = tmp_path / "frozen.ini"
            path.write_text(text)
            assert main(["price", "--scenario", str(path)]) == EXIT_OK
            out = capsys.readouterr().out
            assert "n/a" in out
            assert main(["price", "--scenario", str(path), "--format", "json"]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["junior_vega"] is None
            # Deterministic residual above the senior tranche at V = 62.
            assert report["junior_value"] == pytest.approx(
                62.0 - 60.0 * math.exp(-0.01 * maturity), rel=1e-12
            )

    def test_vega_whose_scale_overflows_is_printed_as_a_number(self, tmp_path, capsys):
        path = tmp_path / "large.ini"
        path.write_text(LARGE.format(senior_face=1e300, junior_face=1e300, sigma=0.2, rate=0.01))
        assert main(["price", "--scenario", str(path), "--format", "json"]) == EXIT_OK
        vega = strict_json(capsys.readouterr().out)["junior_vega"]
        # 50-digit mpmath at these exact floats.
        assert abs(vega - -1.8459380645236593e285) <= 1e-12 * 1.8459380645236593e285
        args = ["sweep-sigma", "--scenario", str(path), "--format", "json", "--steps", "5"]
        assert main(args) == EXIT_OK
        vegas = strict_json(capsys.readouterr().out)["columns"]["junior_vega"]
        assert all(isinstance(value, float) for value in vegas)

    def test_vega_beyond_the_float_range_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "large.ini"
        path.write_text(LARGE.format(senior_face=1e308, junior_face=5e307, sigma=0.001, rate=0))
        assert main(["price", "--scenario", str(path), "--format", "json"]) == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: junior vega overflows ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        # The claims are finite there, so verify's Monte-Carlo engine is what
        # refuses the structure; both commands still exit 3.
        for args in (["sweep-sigma"], ["verify", "--paths", "2000"]):
            assert main([*args, "--scenario", str(path)]) == EXIT_VALIDATION_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_csv_report(self, distressed, capsys):
        assert main(["price", "--scenario", distressed, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",")[0] for line in lines[1:]]
        assert "junior_value" in keys

    def test_csv_quotes_a_scenario_name_with_comma_and_quote(self, tmp_path, capsys):
        name = 'firm "A", distressed'
        path = tmp_path / "quoted.ini"
        path.write_text(DISTRESSED.replace("name = distressed", f"name = {name}"))
        assert main(["price", "--scenario", str(path), "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1] == ["scenario", name]

    def test_percent_sign_in_name_is_echoed(self, tmp_path, capsys):
        path = tmp_path / "percent.ini"
        path.write_text(DISTRESSED.replace("name = distressed", "name = 50% off"))
        assert main(["price", "--scenario", str(path)]) == EXIT_OK
        assert "50% off" in capsys.readouterr().out

    def test_out_writes_file(self, distressed, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "price",
                    "--scenario",
                    distressed,
                    "--format",
                    "json",
                    "--out",
                    str(out_path),
                ]
            )
            == EXIT_OK
        )
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["scenario"] == "distressed"


class TestThresholds:
    def test_distressed_profile(self, distressed, capsys):
        assert (
            main(["thresholds", "--scenario", distressed, "--format", "json"])
            == EXIT_OK
        )
        report = json.loads(capsys.readouterr().out)
        assert report["shift_threshold"] == pytest.approx(63.8, abs=0.05)
        assert report["hump_threshold"] == pytest.approx(64.16, abs=0.01)
        assert report["optimal_volatility"] == pytest.approx(0.262, abs=0.0005)
        assert report["regime"] == "hump-shaped"
        assert report["shifts_above_initial"] is True
        assert report["chosen_risk"] == pytest.approx(0.262, abs=0.0005)

    def test_solvent_profile(self, solvent, capsys):
        main(["thresholds", "--scenario", solvent, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "decreasing-in-risk"
        assert report["optimal_volatility"] is None
        assert report["shifts_above_initial"] is False
        assert report["chosen_risk"] == 0.10

    def test_boundary_asset_value_yields_zero_maximizer(self, tmp_path, capsys):
        boundary = math.exp(-0.01) * math.sqrt(60.0 * 70.0)
        text = DISTRESSED.replace("asset_value = 62", f"asset_value = {boundary!r}")
        path = tmp_path / "boundary.ini"
        path.write_text(text)
        main(["thresholds", "--scenario", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["optimal_volatility"] == 0.0
        assert report["regime"] == "hump-shaped"

    def test_just_above_the_hump_threshold_is_decreasing(self, near_hump, capsys):
        assert main(["thresholds", "--scenario", near_hump, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["hump_threshold"] == 48.010507928941045 < report["asset_value"]
        assert report["regime"] == "decreasing-in-risk"
        assert report["optimal_volatility"] is None

    def test_classifies_once(self, distressed, monkeypatch, capsys):
        # One shift and one hump threshold, and sigma* once, per command.
        counts = {"threshold": 0, "sigma*": 0}
        count_calls(monkeypatch, counts, "threshold", (risk,), "_threshold")
        count_calls(monkeypatch, counts, "sigma*", (risk,), "_optimal_volatility")
        assert main(["thresholds", "--scenario", distressed]) == EXIT_OK
        assert counts == {"threshold": 2, "sigma*": 1}


class TestSweepSigma:
    def test_csv_to_stdout_and_round_trip(self, distressed, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        args = [
            "sweep-sigma",
            "--scenario",
            distressed,
            "--sigma-min",
            "0.01",
            "--sigma-max",
            "0.8",
            "--steps",
            "200",
        ]
        assert main(args + ["--out", str(out_path)]) == EXIT_OK
        with open(out_path) as stream:
            table = read_sweep_csv(stream)
        assert len(table["sigma"]) == 200
        junior = list(table["junior_value"])
        sigmas = list(table["sigma"])
        assert sigmas[junior.index(max(junior))] == pytest.approx(0.262, abs=0.004)

    def test_json_output(self, distressed, capsys):
        assert (
            main(
                [
                    "sweep-sigma",
                    "--scenario",
                    distressed,
                    "--steps",
                    "10",
                    "--format",
                    "json",
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["independent"] == "sigma"
        assert len(payload["columns"]["junior_value"]) == 10

    def test_rejects_bad_range(self, distressed, capsys):
        assert (
            main(
                [
                    "sweep-sigma",
                    "--scenario",
                    distressed,
                    "--sigma-min",
                    "0.8",
                    "--sigma-max",
                    "0.1",
                ]
            )
            == EXIT_VALIDATION_ERROR
        )

    def test_overflowing_half_variance_is_validation_error(self, distressed, capsys):
        # sigma^2 tau / 2 = inf at the top of the grid would price the sigma = 0 limit.
        args = ["sweep-sigma", "--scenario", distressed, "--sigma-max", "1e200"]
        assert main(args) == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sigma^2 / 2 * tau overflows ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_underflowing_sigma_sqrt_tau_leaves_vega_empty(self, tmp_path, capsys):
        path = tmp_path / "short.ini"
        path.write_text(DISTRESSED.replace("maturity = 1.0", "maturity = 0.25"))
        args = ["sweep-sigma", "--scenario", str(path), "--sigma-min", "5e-324"]
        args += ["--sigma-max", "0.1", "--steps", "3"]
        assert main(args) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 4
        assert rows[1].startswith("5e-324,") and rows[1].endswith(",")
        assert not rows[2].endswith(",")
        assert main(args + ["--format", "json"]) == EXIT_OK
        vega = json.loads(capsys.readouterr().out)["columns"]["junior_vega"]
        assert vega[0] is None and vega[1] > 0.0

    def test_identical_runs_produce_identical_bytes(self, distressed, capsys):
        args = ["sweep-sigma", "--scenario", distressed, "--steps", "50"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestSweepStructure:
    ARGS = [
        "--total-face",
        "100",
        "--proportions",
        "0.10,0.20,0.30",
        "--v-min",
        "50",
        "--v-max",
        "70",
        "--steps",
        "21",
    ]

    def test_csv_output_and_ordering(self, distressed, capsys):
        assert main(["sweep-structure", "--scenario", distressed] + self.ARGS) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("junior_proportion,asset_value,chosen_risk")
        assert len(lines) == 1 + 3 * 21
        by_proportion = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_proportion.setdefault(cells[0], []).append(float(cells[2]))
        curves = [by_proportion[key] for key in ("0.1", "0.2", "0.3")]
        for smaller, bigger in zip(curves, curves[1:]):
            assert all(a >= b for a, b in zip(smaller, bigger))

    def test_json_output(self, distressed, capsys):
        assert (
            main(
                ["sweep-structure", "--scenario", distressed, "--format", "json"]
                + self.ARGS
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert [t["junior_proportion"] for t in payload["tables"]] == [0.1, 0.2, 0.3]

    def test_initial_sigma_override(self, tmp_path, capsys):
        path = tmp_path / "override.ini"
        path.write_text(DISTRESSED.replace("initial_sigma = 0.10", "initial_sigma = 0.4"))
        args = [
            "sweep-structure",
            "--scenario",
            str(path),
            "--format",
            "json",
            "--total-face",
            "100",
            "--proportions",
            "0.30",
            "--v-min",
            "78",
            "--v-max",
            "90",
            "--steps",
            "7",
        ]
        main(args)
        payload = json.loads(capsys.readouterr().out)
        # Above the shift threshold at sigma0 = 0.4 (about 76.5 for this
        # mix) the chosen risk stays at the overridden pre-shift level.
        assert payload["tables"][0]["columns"]["chosen_risk"] == [0.4] * 7
        # The scenario key is the one way to set it.
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--initial-sigma", "0.4"])
        assert excinfo.value.code == EXIT_PARSE_ERROR

    def test_rejects_bad_proportions(self, distressed, capsys):
        base = ["sweep-structure", "--scenario", distressed]
        bad = self.ARGS.copy()
        bad[3] = "0.10,1.20"
        assert main(base + bad) == EXIT_VALIDATION_ERROR
        bad[3] = "half"
        assert main(base + bad) == EXIT_VALIDATION_ERROR


class TestVerify:
    def test_distressed_scenario_passes(self, distressed, capsys):
        assert main(["verify", "--scenario", distressed]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "result: PASS" in out

    def test_json_report(self, distressed, capsys):
        assert (
            main(
                [
                    "verify",
                    "--scenario",
                    distressed,
                    "--format",
                    "json",
                    "--paths",
                    "20000",
                    "--seed",
                    "4",
                ]
            )
            == EXIT_OK
        )
        report = json.loads(capsys.readouterr().out)
        assert report["paths"] == 20000
        assert report["seed"] == 4
        assert report["passed"] is True
        names = [check["name"] for check in report["checks"]]
        assert names == [
            "mc_senior_value",
            "mc_junior_value",
            "mc_equity_value",
            "optimal_volatility",
            "junior_vega",
        ]

    def test_zero_volatility_scenario(self, tmp_path, capsys):
        path = tmp_path / "frozen.ini"
        path.write_text(FROZEN + "\n[monte_carlo]\npaths = 1000\n")
        assert main(["verify", "--scenario", str(path)]) == EXIT_OK
        assert "skipped" in capsys.readouterr().out

    def test_degenerate_sample_has_no_se_multiple(self, tmp_path, capsys):
        # sigma sqrt(tau) underflows, so every path is the same and every
        # claim's standard error is 0.
        path = tmp_path / "frozen.ini"
        text = FROZEN.replace("sigma = 0.0", "sigma = 5e-324").replace(
            "maturity = 1.0", "maturity = 0.25"
        )
        path.write_text(text + "\n[monte_carlo]\npaths = 2000\n")
        base = ["verify", "--scenario", str(path)]
        assert main(base + ["--format", "json"]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        for check in checks[:3]:
            assert check["degenerate_sample"] is True
            assert check["se_multiples"] is None
        assert main(base) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("se_multiples=n/a") == 3
        assert main(base + ["--format", "csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        for row in rows[1:4]:
            assert row.endswith(",,true")

    def test_just_above_the_hump_threshold_passes(self, near_hump, capsys):
        args = ["verify", "--scenario", near_hump, "--paths", "20000", "--format", "json"]
        assert main(args) == EXIT_OK
        check = json.loads(capsys.readouterr().out)["checks"][3]
        assert check == {
            "name": "optimal_volatility",
            "closed_form": None,
            "estimate": None,
            "error": None,
            "passed": True,
        }

    def test_failing_check_exits_nonzero(self, distressed, capsys, monkeypatch):
        def failing(cs, mc):
            return {
                "paths": mc.path_count,
                "seed": mc.seed,
                "antithetic": True,
                "checks": [{"name": "mc_junior_value", "passed": False}],
                "passed": False,
            }

        monkeypatch.setattr(verify, "run_verification", failing)
        assert main(["verify", "--scenario", distressed]) == EXIT_VERIFY_FAILURE

    def test_a_numeric_detail_a_check_adds_shows_in_every_format(
        self, distressed, capsys, monkeypatch
    ):
        # The report writer has no list of keys: a number appended to an
        # entry is shown in text and is CSV's detail.
        argmax_check = verify._argmax_check

        def with_margin(cs):
            entry = argmax_check(cs)
            entry["margin"] = 0.25
            return entry

        monkeypatch.setattr(verify, "_argmax_check", with_margin)
        base = ["verify", "--scenario", distressed, "--paths", "2000"]
        assert main([*base, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["checks"][3]["margin"] == 0.25
        assert main(base) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[4]
        assert line.startswith("[PASS] optimal_volatility: closed=")
        assert line.endswith(", margin=0.25")
        assert main([*base, "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[4][0] == "optimal_volatility"
        assert rows[4][3] == "0.25"


class TestExitCodes:
    def test_malformed_scenario_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("this is not remotely an ini file")
        assert main(["price", "--scenario", str(path)]) == EXIT_PARSE_ERROR
        assert "error:" in capsys.readouterr().err

    def test_percent_sign_in_a_number_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "percent.ini"
        path.write_text(DISTRESSED.replace("asset_value = 62", "asset_value = 5%"))
        assert main(["price", "--scenario", str(path)]) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "key asset_value is not a number: '5%'" in err

    @pytest.mark.parametrize("value", ["false", "maybe"])
    def test_antithetic_other_than_true_is_parse_error(self, tmp_path, value):
        # A fresh process, so that a traceback would reach stderr.
        path = tmp_path / "plain.ini"
        path.write_text(DISTRESSED + f"antithetic = {value}\n")
        result = subprocess.run(
            [sys.executable, "-m", "subdebt", "verify", "--scenario", str(path)],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_PARSE_ERROR
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "antithetic" in result.stderr

    def test_verify_out_of_float_range_is_validation_error(self, tmp_path):
        # rate = 800 overflows every terminal value; a fresh process under
        # -W error, so that a NumPy warning or a traceback would show.
        path = tmp_path / "overflow.ini"
        path.write_text(DISTRESSED.replace("rate = 0.01", "rate = 800"))
        args = ["verify", "--scenario", str(path), "--paths", "2000", "--format", "json"]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "subdebt", *args],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_VALIDATION_ERROR
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_verify_path_count_above_the_maximum_is_validation_error(self, distressed):
        # A fresh process, so that a traceback would reach stderr; the
        # per-chunk table for 10**18 paths would not fit in memory.
        args = ["verify", "--scenario", distressed, "--paths", str(10**18)]
        result = subprocess.run(
            [sys.executable, "-m", "subdebt", *args],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_VALIDATION_ERROR
        assert result.stdout == ""
        assert result.stderr == f"error: path_count must be <= 2**32, got {10**18}\n"

    def test_missing_scenario_file_is_parse_error(self, capsys):
        assert main(["price", "--scenario", "/no/such/file.ini"]) == EXIT_PARSE_ERROR

    def test_scenario_file_that_is_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[scenario]\n")
        assert main(["price", "--scenario", str(path)]) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario file {path}: ")
        assert err.count("\n") == 1

    def test_invalid_parameters_are_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        for old, new in (
            ("senior_face = 60", "senior_face = -60"),
            ("asset_value = 62", "asset_value = inf"),
            ("initial_sigma = 0.10", "initial_sigma = inf"),
            ("rate = 0.01", "rate = -800"),
        ):
            path.write_text(DISTRESSED.replace(old, new))
            for command in ("price", "thresholds"):
                code = main([command, "--scenario", str(path)])
                assert code == EXIT_VALIDATION_ERROR, (command, new)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: ")

    def test_unknown_scenario_key_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "misspelled.ini"
        path.write_text(DISTRESSED.replace("rate = 0.01", "rate = 0.01\ndividend_yeild = 0.05"))
        assert main(["price", "--scenario", str(path)]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: unknown keys in [scenario]: dividend_yeild\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "command, rate, flags",
        [
            ("price", "-800", []),
            ("thresholds", "-707", []),
            (
                "sweep-sigma",
                "0.01",
                ["--sigma-min", "0.1", "--sigma-max", "0.10000000000000002", "--steps", "5"],
            ),
            (
                "sweep-structure",
                "0.01",
                ["--total-face", "100", "--proportions", "0.1", "--v-min", "0.1"]
                + ["--v-max", "0.10000000000000002", "--steps", "5"],
            ),
            ("verify", "0.01", ["--paths", str(2**32 + 2)]),
        ],
        ids=["price", "thresholds", "sweep-sigma", "sweep-structure", "verify"],
    )
    def test_failed_computation_leaves_out_unopened(
        self, tmp_path, capsys, command, rate, flags, existing
    ):
        # The scenario loads and the handler's computation fails: the output
        # is opened only after it, so --out is neither created nor truncated.
        path = tmp_path / "scenario.ini"
        path.write_text(DISTRESSED.replace("rate = 0.01", f"rate = {rate}"))
        load_scenario(path)
        out = tmp_path / "out.txt"
        if existing:
            out.write_bytes(b"earlier output\n")
        code = main([command, "--scenario", str(path), *flags, "--out", str(out)])
        assert code == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if existing:
            assert out.read_bytes() == b"earlier output\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("command", ["price", "sweep-sigma"])
    def test_out_into_missing_directory_is_usage_error(
        self, distressed, tmp_path, capsys, command
    ):
        out_path = tmp_path / "no-such-dir" / "out.csv"
        args = [command, "--scenario", distressed, "--out", str(out_path)]
        assert main(args) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1
        assert not out_path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    @pytest.mark.parametrize("command, flags", list(COMMAND_FLAGS.items()), ids=list(COMMAND_FLAGS))
    def test_output_that_cannot_be_written_is_usage_error(
        self, distressed, command, flags, to_stdout
    ):
        # A fresh process, so that a traceback, or a failure reported again
        # at interpreter shutdown, would reach stderr.
        args = [command, "--scenario", distressed, *flags]
        if not to_stdout:
            args += ["--out", "/dev/full"]
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "subdebt", *args],
                env=child_env(),
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert result.returncode == EXIT_PARSE_ERROR
        assert result.stderr.startswith("error: cannot write ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-sigma", "--sigma-min", "0.1", "--sigma-max", "0.10000000000000002"],
            ["sweep-structure", "--total-face", "100", "--proportions", "0.1"]
            + ["--v-min", "0.1", "--v-max", "0.10000000000000002"],
        ],
        ids=["sigma", "structure"],
    )
    def test_degenerate_grid_is_validation_error(self, distressed, capsys, args):
        command, *flags = args
        code = main([command, "--scenario", distressed, *flags, "--steps", "5"])
        assert code == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: independent values must be strictly increasing, "
            "got 0.1 before 0.1\n"
        )

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["sweep-sigma", "--steps", "1000000000000"],
                "steps must be <= 100000, got 1000000000000",
            ),
            (
                ["sweep-structure", "--total-face", "100", "--proportions", "0.1"]
                + ["--v-min", "50", "--v-max", "70", "--steps", "1000000000000"],
                "steps must be <= 100000, got 1000000000000",
            ),
            # Each debt mix is a table of its own: without the cap on steps
            # times proportions, 99 mixes at the step cap take about 2 GB.
            (
                ["sweep-structure", "--total-face", "100"]
                + ["--proportions", ",".join(f"0.{i:02d}" for i in range(1, 100))]
                + ["--v-min", "50", "--v-max", "70", "--steps", "100000"],
                "steps * proportions must be <= 300000, got 100000 * 99",
            ),
        ],
        ids=["sigma", "structure", "structure-mixes"],
    )
    def test_step_count_over_the_cap_is_validation_error(self, distressed, args, message):
        # Refused before any point is allocated, so the command exits at once.
        # The child's address space is limited to 1 GiB, so that a build
        # without the cap fails fast instead of filling the machine's memory.
        command, *flags = args
        limited = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "from subdebt.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", limited, command, "--scenario", distressed, *flags],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_VALIDATION_ERROR
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [["--help"], ["price", "--help"]], ids=["main", "price"])
    def test_help_that_cannot_be_written_is_usage_error(self, args, unbuffered):
        # Unbuffered, the failed write happens inside argparse; buffered, at
        # the flush after it.
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "subdebt", *args],
                env=env,
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert result.returncode == EXIT_PARSE_ERROR
        assert result.stderr == "error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command,first_csv_cell",
        [
            (["sweep-sigma"], "sigma,"),
            (
                [
                    "sweep-structure",
                    "--total-face",
                    "100",
                    "--proportions",
                    "0.1,0.2",
                    "--v-min",
                    "50",
                    "--v-max",
                    "70",
                ],
                "junior_proportion,",
            ),
        ],
        ids=["sweep-sigma", "sweep-structure"],
    )
    def test_closed_stdout_pipe_is_usage_error(self, distressed, command, first_csv_cell, fmt):
        # Far more output than a pipe holds, so the writes outrun the reader.
        args = [*command, "--scenario", distressed, "--steps", "20000", "--format", fmt]
        with subprocess.Popen(
            [sys.executable, "-m", "subdebt", *args],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            first_line = first_csv_cell if fmt == "csv" else "{"
            assert process.stdout.readline().startswith(first_line)
            process.stdout.close()
            _, stderr = process.communicate(timeout=60)
        assert process.returncode == EXIT_PARSE_ERROR
        assert stderr == "error: cannot write stdout: Broken pipe\n"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["price", "thresholds", "sweep-sigma"])
    def test_monte_carlo_flags_belong_to_verify_only(self, distressed, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scenario", distressed, "--paths", "5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["price", "thresholds"])
    @pytest.mark.parametrize(
        "replacements",
        [
            # V / F_S and V^2 underflow to 0; F_S (F_S + F_J) overflows.
            (
                ("asset_value = 62", "asset_value = 1e-200"),
                ("senior_face = 60", "senior_face = 1e200"),
            ),
            # F_S e^{-r tau} and F_S (F_S + F_J) overflow; e^{-r tau} does not.
            (
                ("senior_face = 60", "senior_face = 1e300"),
                ("rate = 0.01", "rate = -100"),
            ),
        ],
        ids=["tiny-ratio", "huge-discounted-face"],
    )
    def test_out_of_float_range_is_finite_or_validation_error(
        self, tmp_path, capsys, replacements, command, fmt
    ):
        text = DISTRESSED
        for old, new in replacements:
            text = text.replace(old, new)
        path = tmp_path / "extreme.ini"
        path.write_text(text)
        args = [command, "--scenario", str(path)]
        code = main(args if fmt == "text" else args + ["--format", "json"])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_VALIDATION_ERROR)
        assert "Traceback" not in captured.err
        if code == EXIT_VALIDATION_ERROR:
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        elif fmt == "json":

            def reject(constant):
                raise ValueError(f"{constant} is not valid JSON")

            json.loads(captured.out, parse_constant=reject)
        else:
            assert "n/a" not in captured.out and "inf" not in captured.out

    def test_invalid_seed_is_validation_error(self, distressed, capsys):
        assert (
            main(["verify", "--scenario", distressed, "--seed", "-5"])
            == EXIT_VALIDATION_ERROR
        )


@pytest.fixture
def freezes(monkeypatch):
    """The calls of ``gc.freeze``, recorded instead of freezing this process."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    return calls


# Reports at exit whether the heap is frozen, then runs ``python -m
# subdebt`` with its own arguments.
_LAUNCH = """\
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}\\n"))
runpy.run_module("subdebt", run_name="__main__", alter_sys=True)
"""


class TestProcessEntry:
    """``run`` is ``main`` with the cyclic collector off, plus one
    ``gc.freeze`` once ``main`` has returned; then the collector is as
    ``run`` found it."""

    @pytest.mark.parametrize(
        "old, new, code",
        [
            ("", "", EXIT_OK),
            ("senior_face = 60", "senior_face = -60", EXIT_VALIDATION_ERROR),
            ("[scenario]", "[scenario", EXIT_PARSE_ERROR),
        ],
        ids=["ok", "validation", "parse"],
    )
    def test_run_returns_what_main_returns(self, tmp_path, capsys, freezes, old, new, code):
        path = tmp_path / "scenario.ini"
        path.write_text(DISTRESSED.replace(old, new))
        argv = ["price", "--scenario", str(path)]
        assert main(argv) == code
        expected = capsys.readouterr()
        assert run(argv) == code
        assert capsys.readouterr() == expected
        assert freezes == ["freeze"]

    def test_run_freezes_once_after_main_returns(self, distressed, capsys, freezes, monkeypatch):
        def recorded(argv=None):
            code = main(argv)
            freezes.append(f"main returned {code}")
            return code

        monkeypatch.setattr(cli, "main", recorded)
        assert run(["price", "--scenario", distressed]) == EXIT_OK
        assert freezes == ["main returned 0", "freeze"]

    def test_run_freezes_on_a_usage_error_and_reraises_it(self, capsys, freezes):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 2
        assert freezes == ["freeze"]

    def test_main_does_not_freeze(self, distressed, capsys, freezes):
        before = gc.get_freeze_count()
        for command, flags in COMMAND_FLAGS.items():
            assert main([command, "--scenario", distressed, *flags]) == EXIT_OK
        assert freezes == []
        assert gc.get_freeze_count() == before

    def test_main_runs_with_the_collector_off_under_run(
        self, distressed, capsys, freezes, monkeypatch
    ):
        def recorded(argv=None):
            freezes.append(f"collector enabled: {gc.isenabled()}")
            return main(argv)

        monkeypatch.setattr(cli, "main", recorded)
        assert gc.isenabled()
        assert run(["price", "--scenario", distressed]) == EXIT_OK
        assert freezes == ["collector enabled: False", "freeze"]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_run_leaves_the_collector_as_it_found_it(self, distressed, capsys, freezes, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["price", "--scenario", distressed]) == EXIT_OK
            assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                run(["frobnicate"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert freezes == ["freeze", "freeze"]

    def test_main_does_not_switch_the_collector(self, distressed, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
        for command, flags in COMMAND_FLAGS.items():
            assert main([command, "--scenario", distressed, *flags]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert calls == []
        assert gc.isenabled()

    @pytest.mark.skipif(not pinned_platform(), reason="golden outputs are pinned for x86-64 glibc")
    def test_python_m_subdebt_exits_with_the_heap_frozen(self):
        scenario = str(SCENARIOS / "distressed.ini")
        result = subprocess.run(
            [sys.executable, "-c", _LAUNCH, "price", "--scenario", scenario],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout == (GOLDEN / "price" / "distressed.txt").read_text()
        assert result.stderr == "frozen at exit: True\n"

    def test_console_script_runs_what_python_m_subdebt_runs(self):
        # A regex, as the tests read README: tomllib is new in Python 3.11.
        script = re.search(r'^subdebt = "subdebt\.cli:(\w+)"$', PYPROJECT, re.M).group(1)
        source = Path(cli.__file__).with_name("__main__.py").read_text()
        assert f"from .cli import {script}\n" in source
        assert f"sys.exit({script}())" in source
        assert script == "run"


# The stdout, stderr and exit code of help and of usage errors, as the
# argparse parser wrote them before the flag reader existed, 80 columns
# wide.  Recorded once, not by ``golden/regenerate.py``: these bytes must
# not change.
USAGE = json.loads((GOLDEN / "usage.json").read_text())

# Values for each kind of option: well formed, then junk.
_VALUES = {
    float: (["0.5", "62", "1e3", "inf", "1_000.5", " 7"], ["-5", "abc", "", "-inf", "--"]),
    int: (["5", "200", "07", "1_000"], ["1e3", "1.5", "-5", "x", ""]),
    "choices": (["csv", "json"], ["CSV", "xml", "-csv", ""]),
    str: (["x", "a b", "price", "0.1,0.2", "=x", ""], ["-x", "--out", "-5"]),
}


def _draw_argv(rng):
    """An argv drawn from the option table and from junk, and whether it is
    well formed: a command, then each flag it gives named exactly, once,
    with a well-formed value, and every required flag given."""
    if rng.random() < 0.05:
        command = rng.choice(["frobnicate", "Price", "pric", "", "-h", "--scenario"])
        return [command, "--scenario", "x"], False
    command = rng.choice(list(cli._COMMANDS))
    options = cli._COMMANDS[command][2]
    argv, well_formed = [command], True
    for flag, option in rng.sample(list(options.items()), len(options)):
        if rng.random() < (0.05 if option.get("required") else 0.5):
            well_formed = well_formed and not option.get("required")
            continue
        kind = "choices" if "choices" in option else option.get("type", str)
        good, junk = _VALUES[kind]
        value = rng.choice(good)
        if rng.random() < 0.1:
            value, well_formed = rng.choice(junk), False
        form = rng.random()
        if form < 0.04:
            argv.append(f"{flag}={value}")
            well_formed = False
            continue
        if form < 0.08:
            flag, well_formed = flag[: rng.randrange(3, len(flag))], False
        elif form < 0.12:
            argv += [flag, rng.choice(good)]
            well_formed = False
        argv += [flag, value]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["extra", "--paths", "--frob"]))
        well_formed = False
    return argv, well_formed


def _typed(arguments):
    """Each argument with its type, so that 5 and 5.0 differ."""
    return {name: (type(value), value) for name, value in arguments.items()}


class TestFlagReader:
    """``_read_flags`` gives argparse's arguments for a well-formed argv and
    None for any other; that goes to argparse, whose help and errors keep
    their bytes."""

    def test_reader_agrees_with_argparse(self, capsys):
        rng = random.Random(20261020)
        parser = cli._build_parser()
        outcomes = {"read": 0, "declined": 0}
        for _ in range(3000):
            argv, well_formed = _draw_argv(rng)
            read = cli._read_flags(argv)
            try:
                parsed = vars(parser.parse_args(argv))
            except SystemExit:
                parsed = None
            assert (read is not None) == well_formed, argv
            if read is not None:
                assert _typed(vars(read)) == _typed(parsed), argv
            outcomes["read" if well_formed else "declined"] += 1
        capsys.readouterr()
        assert min(outcomes.values()) > 500, outcomes

    @pytest.mark.skipif(
        sys.version_info >= (3, 13), reason="argparse wraps usage lines differently from 3.13"
    )
    @pytest.mark.parametrize(
        "case", USAGE, ids=[" ".join(case["argv"]) or "no-arguments" for case in USAGE]
    )
    def test_help_and_usage_errors_keep_their_bytes(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._read_flags(case["argv"]) is None
        with pytest.raises(SystemExit) as excinfo:
            main(case["argv"])
        assert excinfo.value.code == case["code"]
        assert capsys.readouterr() == (case["stdout"], case["stderr"])


# Single-line edits of a bundled scenario, weighted to files that still load:
# a kept, re-cased or commented line loads, while a dropped, duplicated or
# indented line, or a value out of its domain, is refused.
_BUNDLED_SCENARIOS = [path.read_text(encoding="utf-8") for path in sorted(SCENARIOS.glob("*.ini"))]
_LINE_EDITS = ["keep", "keep", "case", "comment", "comment", "drop", "duplicate", "indent",
               "value", "value"]
_FUZZ_VALUES = ["inf", "nan", "-800", "1e309", ""]


@st.composite
def _edited_scenarios(draw):
    lines = draw(st.sampled_from(_BUNDLED_SCENARIOS)).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(_LINE_EDITS))
    if edit == "case":
        lines[i] = lines[i].upper() if draw(st.booleans()) else lines[i].title()
    elif edit == "comment":
        lines[i] += draw(st.sampled_from([" # note", " ; note", "  #note"]))
    elif edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "indent":
        lines[i] = draw(st.sampled_from([" ", "\t"])) + lines[i]
    elif edit == "value" and "=" in lines[i]:
        lines[i] = lines[i].partition("=")[0] + "= " + draw(st.sampled_from(_FUZZ_VALUES))
    return "\n".join(lines)


def test_edited_scenario_files_exit_with_a_documented_code(tmp_path, capsys):
    # In process: each edited file gives price and thresholds exit 0, 2, 3
    # or 4 and raises nothing, through both of load_scenario's readers.
    path = tmp_path / "edited.ini"
    codes = set()

    @settings(derandomize=True, max_examples=200)
    @given(_edited_scenarios(), st.sampled_from(["price", "thresholds"]))
    def check(text, command):
        path.write_text(text, encoding="utf-8")
        code = main([command, "--scenario", str(path)])
        assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR, EXIT_VERIFY_FAILURE)
        codes.add(code)

    spy = mock.patch.object(scenario_module, "_read_ini", wraps=scenario_module._read_ini)
    with spy as read_ini:
        check()
    capsys.readouterr()
    assert 20 <= read_ini.call_count <= 180
    assert {EXIT_OK, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR} <= codes


# Command lines for the fuzz below: each command's own flags, a flag of
# another command now and then, and values from each flag's valid range, or
# 0, a negative, 1e309, nan, a non-number or the empty string.  Drawn steps
# stay <= 2,000 and drawn paths <= 20,000; the pinned lines reach the caps.
_BUNDLED_PATHS = sorted(str(path) for path in SCENARIOS.glob("*.ini"))
_UNIT_TEXTS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr)
_FLAG_VALUES = {
    "--scenario": st.sampled_from(_BUNDLED_PATHS),
    "--format": st.sampled_from(["csv", "json"]),
    "--out": st.sampled_from(["out.txt", os.path.join("missing", "out.txt")]),
    "--sigma-min": st.floats(0.0, 2.0).map(repr),
    "--sigma-max": st.floats(0.0, 2.0).map(repr),
    "--steps": st.integers(2, 2_000).map(str),
    "--total-face": st.floats(1.0, 500.0).map(repr),
    "--proportions": st.lists(_UNIT_TEXTS, min_size=1, max_size=4).map(",".join),
    "--v-min": st.floats(1.0, 200.0).map(repr),
    "--v-max": st.floats(1.0, 200.0).map(repr),
    "--seed": st.integers(0, 2**64 - 1).map(str),
    "--paths": st.integers(2, 20_000).map(str),
}
_ODD_FLAG_VALUES = ["0", "-1", "-0.25", "1e309", "nan", "ten", ""]


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    # A required flag is left out one time in twenty, an optional one half
    # the time; one line in four takes a flag of any command, and one value
    # in ten is odd.  The odds come from a generator seeded by the draw:
    # hypothesis's own draws favour the ends of a range.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    flags = [
        flag
        for flag, option in options.items()
        if rng.random() < (0.95 if option.get("required") else 0.5)
    ]
    if rng.random() < 0.25:
        flags.append(rng.choice(sorted(_FLAG_VALUES)))
    rng.shuffle(flags)
    argv = [command]
    for flag in flags:
        odd = rng.random() < 0.1
        argv += [flag, rng.choice(_ODD_FLAG_VALUES) if odd else draw(_FLAG_VALUES[flag])]
    return argv


def _documented_exit(argv, capsys):
    """The exit code of ``main(argv)``, returned or raised as SystemExit, after
    checking that it is 0, 2, 3 or 4, that no traceback was printed, and that
    a refused run (2 or 3) left no ``--out`` file."""
    outs = [Path(value) for flag, value in zip(argv, argv[1:]) if flag == "--out"]
    for out in outs:
        if out.is_file():
            out.unlink()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR, EXIT_VERIFY_FAILURE), argv
    assert "Traceback" not in capsys.readouterr().err, argv
    if code in (EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR):
        assert not any(out.is_file() for out in outs), argv
    return code


def test_drawn_command_lines_exit_with_a_documented_code(tmp_path, monkeypatch, capsys):
    # In process, in a scratch directory, so that any --out lands there.
    monkeypatch.chdir(tmp_path)
    codes = set()

    @settings(derandomize=True, max_examples=200)
    @given(_command_lines())
    def check(argv):
        codes.add(_documented_exit(argv, capsys))

    check()
    assert {EXIT_OK, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR} <= codes


_DISTRESSED_PATH = str(SCENARIOS / "distressed.ini")


# Each at or just past a cap, with the code it must give: about 300,000
# points would be computed if MAX_STEPS or MAX_STRUCTURE_POINTS were gone.
@pytest.mark.parametrize(
    "argv,code",
    [
        (["sweep-sigma", "--steps", "100001", "--out", "out.csv"], EXIT_VALIDATION_ERROR),
        (
            ["sweep-structure", "--total-face", "100", "--proportions", "0.1,0.2,0.3,0.4",
             "--v-min", "50", "--v-max", "100", "--steps", "75001", "--out", "out.csv"],
            EXIT_VALIDATION_ERROR,
        ),
        (["verify", "--paths", "3", "--out", "out.txt"], EXIT_VALIDATION_ERROR),
        (["verify", "--paths", "8589934594", "--out", "out.txt"], EXIT_VALIDATION_ERROR),
        (["price", "--format", "xml", "--out", "out.txt"], EXIT_PARSE_ERROR),
        (["thresholds", "--out", os.path.join("missing", "out.txt")], EXIT_PARSE_ERROR),
    ],
    ids=["sigma-steps", "structure-points", "odd-paths", "paths-over-2**32", "format", "out-dir"],
)
def test_pinned_command_lines_exit_with_their_code(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    assert _documented_exit([command, "--scenario", _DISTRESSED_PATH, *flags], capsys) == code

"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import child_env, count_calls, read_sweep_csv

import subdebt.risk as risk
import subdebt.verify as verify
from subdebt.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFY_FAILURE,
    main,
)

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

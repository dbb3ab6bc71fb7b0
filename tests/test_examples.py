"""README's examples and the bundled scenarios, run as a user runs them.

The quick start and the report commands run in fresh interpreters under
``-W error``, on the package this process imports
(``conftest.child_env``).  The children start once per module, a few at
a time, so that they run side by side.  The figure data is written in
this process, with the flags README gives.
"""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import child_env
from subdebt.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SCENARIOS = {path.stem: str(path) for path in sorted((ROOT / "scenarios").glob("*.ini"))}
FORMATS = {"text": [], "csv": ["--format", "csv"], "json": ["--format", "json"]}
COMMANDS = {"price": [], "thresholds": [], "verify": ["--paths", "200000"]}
REPORTS = [(name, command, fmt) for name in SCENARIOS for command in COMMANDS for fmt in FORMATS]
ONE_CPU_PATHS = "1000000"
HAS_AFFINITY = hasattr(os, "sched_setaffinity")

# Pins itself to one CPU, then runs the command its arguments name.
_ONE_CPU = """\
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1
from subdebt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _section_block(heading, language):
    """The first ``language`` code block after README's ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _quick_start():
    """README's quick start, then one assert per value its comments state:
    a number (``# 64.16: ...``) or a comparison (``# > 0: ...``,
    ``# = expr here``)."""
    code = _section_block("Library quick start", "python")
    checks = {}
    for name, comment in re.findall(r"^(\w+) = .*#\s*(.*)$", code, re.M):
        number = re.match(r"(-?\d+\.(\d+))\b", comment)
        comparison = re.match(r"([<>]=?|=)\s*(.+?)(?::|\s+here\b|$)", comment)
        if number:
            checks[name] = f"round({name}, {len(number[2])}) == {number[1]}"
        elif comparison:
            operator = "==" if comparison[1] == "=" else comparison[1]
            checks[name] = f"{name} {operator} {comparison[2]}"
    assert set(checks) == {"vega", "boundary", "risk"}, checks
    asserts = "".join(f"assert {check}, ({check!r}, {name})\n" for name, check in checks.items())
    return code + asserts


def _run(args):
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _report_args(scenario, command, fmt):
    flags = [*COMMANDS[command], *FORMATS[fmt]]
    return ["-W", "error", "-m", "subdebt", command, "--scenario", SCENARIOS[scenario], *flags]


def _verify_args(scenario):
    flags = ["--paths", ONE_CPU_PATHS, "--format", "json"]
    return ["verify", "--scenario", SCENARIOS[scenario], *flags]


@pytest.fixture(scope="module")
def runs():
    """Every child process of this module, started at once on a small pool."""
    children = {("quick-start",): ["-W", "error", "-c", _quick_start()]}
    children.update({report: _report_args(*report) for report in REPORTS})
    for scenario in SCENARIOS if HAS_AFFINITY else ():
        children["all-cpus", scenario] = ["-m", "subdebt", *_verify_args(scenario)]
        children["one-cpu", scenario] = ["-c", _ONE_CPU, *_verify_args(scenario)]
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        futures = {key: pool.submit(_run, args) for key, args in children.items()}
        yield lambda *key: futures[key].result()


def test_readme_quick_start_gives_its_commented_values(runs):
    result = runs("quick-start")
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("scenario,command,fmt", REPORTS, ids=["-".join(r) for r in REPORTS])
def test_report_runs_warning_free(runs, scenario, command, fmt):
    result = runs(scenario, command, fmt)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout
    if fmt == "json":
        assert not re.search("NaN|Infinity", result.stdout)
        json.loads(result.stdout)


@pytest.mark.skipif(not HAS_AFFINITY, reason="os.sched_setaffinity is missing on this platform")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_verify_does_not_depend_on_the_cpus_it_runs_on(runs, scenario):
    # The chunks are merged in order, whichever thread reduced them.
    all_cpus, one_cpu = runs("all-cpus", scenario), runs("one-cpu", scenario)
    assert (all_cpus.returncode, all_cpus.stderr) == (0, "")
    assert (one_cpu.returncode, one_cpu.stderr) == (0, "")
    assert json.loads(all_cpus.stdout)["paths"] == int(ONE_CPU_PATHS)
    assert one_cpu.stdout == all_cpus.stdout


SIGMA_HEADER = ["sigma", "junior_value", "senior_value", "equity_value", "junior_vega"]
STRUCTURE_HEADER = [
    "junior_proportion",
    "asset_value",
    "chosen_risk",
    "optimal_volatility",
    "shift_threshold",
    "hump_threshold",
]
# Header and row count of each file README's figure-data commands write.
FIGURES = {
    "junior_value_vs_sigma_v100": (SIGMA_HEADER, 200),
    "junior_value_vs_sigma_v62": (SIGMA_HEADER, 200),
    "chosen_risk_vs_asset_value": (STRUCTURE_HEADER, 3 * 251),
}


def _figure_commands():
    """The ``subdebt`` commands of README's figure-data block, as argv lists."""
    script = _section_block("Figure data", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("subdebt ")]


def _replaced(argv, flag, value):
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1 :]]


def _reject(constant):
    raise ValueError(f"{constant} is not valid JSON")


def _table(path):
    """Header and rows of a figure-data file, with absent cells as None."""
    text = path.read_text()
    again = io.StringIO()
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        csv.writer(again, lineterminator="\n").writerows([header, *rows])
        rows = [[float(cell) if cell else None for cell in row] for row in rows]
    else:
        payload = json.loads(text, parse_constant=_reject)
        json.dump(payload, again, indent=2)
        again.write("\n")
        if "tables" in payload:
            tables = [(t["junior_proportion"], t["columns"]) for t in payload["tables"]]
            header = ["junior_proportion", *tables[0][1]]
            assert all(list(columns) == header[1:] for _, columns in tables)
            rows = [[p, *row] for p, columns in tables for row in zip(*columns.values())]
        else:
            header = list(payload["columns"])
            rows = list(zip(*payload["columns"].values()))
    # The sweeps write CSV and JSON without the csv and json modules: each
    # file must come back byte for byte through the stdlib writers.
    assert again.getvalue() == text, path.name
    return header, rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_data_has_its_shape_and_round_trips(tmp_path, fmt):
    written = []
    for argv in _figure_commands():
        out = tmp_path / f"{Path(argv[argv.index('--out') + 1]).stem}.{fmt}"
        argv = _replaced(argv, "--out", str(out))
        argv = _replaced(argv, "--scenario", str(ROOT / argv[argv.index("--scenario") + 1]))
        assert main([*argv, "--format", fmt]) == 0
        written.append(out.stem)
    assert sorted(written) == sorted(FIGURES)
    for stem, (expected_header, row_count) in FIGURES.items():
        header, rows = _table(tmp_path / f"{stem}.{fmt}")
        assert header == expected_header
        assert len(rows) == row_count
        for row in rows:
            assert len(row) == len(header)
            for name, value in zip(header, row):
                # Only a maximizer may be absent; every value present is finite.
                assert math.isfinite(value) if value is not None else name == "optimal_volatility"

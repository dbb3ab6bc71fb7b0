"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Checks that every workload, untraced and traced, prints a last line with
exactly the keys `correct`, `attempted`, `failed` and `metrics` and every
metric BENCHMARK.json names for that mode; that an injected wrong answer
is counted as failed and makes the run incorrect; and that the benchmark
refuses to run, without printing a result, where there is no program.
It is not collected by pytest and takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_outputs(spec: dict) -> None:
    sys.path.insert(0, str(BENCH))
    import run as bench_run

    for workload in bench_run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert set(result["metrics"]) == {m["name"] for m in declared}
            for name, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (name, entry)
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, {result['failed']} failed")


def check_injected_failure() -> None:
    sys.path.insert(0, str(BENCH))
    import run as bench_run
    import workloads  # puts src/ on the path

    import subdebt

    screen = workloads.Screen(seed=7)
    honest = subdebt.value_all_claims

    def skewed(cs):
        values = honest(cs)
        return type(values)(values.senior_value, values.junior_value + 1.0, values.equity_value, values.total)

    subdebt.value_all_claims = skewed
    try:
        tally = bench_run.timed_ops(screen, 0.3)
    finally:
        subdebt.value_all_claims = honest
    assert tally.n > 0 and tally.failed == tally.n and tally.wrong == tally.n, vars(tally).keys()
    print(f"ok  injected wrong answer counted: {tally.failed} of {tally.n} ops failed")


def check_refuses_without_program(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and "{" not in done.stdout, (done.returncode, done.stdout)
    print(f"ok  refuses to run without src/: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_program(spec)
    check_injected_failure()
    check_outputs(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

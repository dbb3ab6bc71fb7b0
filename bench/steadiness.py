"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 1-10 --out bench/baseline/untraced-seeds-1-10.json
    python3 bench/steadiness.py --seeds 101-110 --compare bench/baseline/untraced-seeds-1-10.json

Runs `bench/run.py` once per (workload, seed), one run at a time, and
for each end-to-end metric reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median.
A spread is steady when it is below a third of the metric's bound in
BENCHMARK.json (`setup_s` is exempt from the spread rule).  With
`--compare`, each median is also compared with an earlier record: it may
not be worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the record here")
    parser.add_argument("--compare", type=Path, help="an earlier record to compare medians with")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds_of(args.seeds)]
        rows = {}
        for name, metric in bounds.items():
            row = spread([r["metrics"][name]["value"] for r in results])
            row["steady"] = name == "setup_s" or row["spread"] < metric["bound"] / 3
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (row["median"] - before) / before
                worse = change > 0 if metric["better"] == "lower" else change < 0
                row["change_vs_compare"] = change
                row["within_bound"] = not worse or abs(change) <= metric["bound"]
                steady &= row["within_bound"]
            steady &= row["steady"]
            rows[name] = row
        record["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
        }
        for name, row in rows.items():
            extra = f" change {row['change_vs_compare']:+.3f}" if "change_vs_compare" in row else ""
            print(f"{workload:10s} {name:15s} median {row['median']:12.6g} spread {row['spread']:.4f}"
                  f" steady {row['steady']}{extra}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

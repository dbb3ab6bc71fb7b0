"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload screen --seed 1 --seconds 25 --trace 0

With `--trace 0` the run measures the end-to-end metrics with tracing
off; with `--trace 1` it measures the per-layer metrics (see
bench/README.md).  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it give the provenance and a summary, and the full record is
written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "screen", "sweep", "mc-oracle")
SETUP_SAMPLES = 3
# A run with a fixed op count still stops at this multiple of --seconds,
# so that a much slower host cannot overrun the time a run is given.
OVERRUN = 3
MAX_LISTED_FAILURES = 20


class Tally:
    """Latencies, host-speed references, points, failures and MC-key
    repeats of a series of ops."""

    def __init__(self, capacity: int):
        self.latency_ns = array("q", [0]) * capacity
        self.reference_ns = array("q", [0]) * capacity
        self.n = 0
        self.points = 0
        self.failed = 0
        self.wrong = 0
        self.known: dict[str, int] = {}
        self.failures: list[dict] = []
        self.mc_seen: set = set()
        self.mc_ops = 0
        self.mc_repeats = 0

    def record(self, workload, i, elapsed_ns, reference_ns, out) -> None:
        self.latency_ns[self.n] = elapsed_ns
        self.reference_ns[self.n] = reference_ns
        self.n += 1
        self.points += workload.points(i)
        key = workload.mc_key(i)
        if key is not None:
            self.mc_ops += 1
            self.mc_repeats += key in self.mc_seen
            self.mc_seen.add(key)
        problems = workload.check(i, out)
        if problems:
            self.failed += 1
            known = workload.known_defect(i, out)
            if known is None:
                self.wrong += 1
            else:
                self.known[known] = self.known.get(known, 0) + 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(
                    {"op": i, "input": workload.describe(i), "problems": problems[:3], "known_defect": known}
                )

    def latencies(self) -> list[int]:
        return list(self.latency_ns[: self.n])

    def scaled(self, workload) -> list[float]:
        """Each op's latency in ns at the nominal host speed: divided by the
        reference measured just before it, times the reference's nominal
        time (see bench/README.md, "Host speed")."""
        nominal_ns = workload.reference_ms * 1e6
        return [ns * nominal_ns / ref for ns, ref in zip(self.latency_ns[: self.n], self.reference_ns[: self.n])]


def timed_ops(workload, seconds: float, tracer=None, limit: int | None = None) -> Tally:
    """Closed loop for `seconds`, or for the workload's fixed op count:
    time each op, then check it untimed."""
    tally = Tally(workload.max_ops)
    limit = min(limit or workload.max_ops, workload.max_ops)
    count = workload.op_count(seconds)
    if count is not None:
        limit = min(limit, count)
        seconds *= OVERRUN
    deadline = time.monotonic() + seconds
    i = 0
    while i < limit and time.monotonic() < deadline:
        if i % workload.reference_every == 0:
            reference = workload.reference_ns()
        if tracer is None:
            start = time.perf_counter_ns()
            out = workload.op(i)
            end = time.perf_counter_ns()
        else:
            if tracer.full():
                break
            start = time.perf_counter_ns()
            with tracer.span(f"op.{workload.name}", i):
                out = workload.op(i)
            end = time.perf_counter_ns()
        tally.record(workload, i, end - start, reference, out)
        i += 1
    tally.peak_rss_kb = workload.peak_rss_kb()
    return tally


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: from spawn until the workload is
    generated and warmed up, ready for its first timed op.  Each sample is
    scaled to the nominal host speed by a bare interpreter start timed
    just before it."""
    import workloads

    out = workloads.OUT / f"setup-{workload}-{seed}"
    stdout, stderr, env = out.with_suffix(".out"), out.with_suffix(".err"), workloads.child_env()
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, _, reference = workloads.spawn([sys.executable, "-c", "pass"], stdout, stderr, env)
        argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
        start = time.perf_counter_ns()
        code, _, _ = workloads.spawn(argv, stdout, stderr, env)
        if code != 0:
            raise RuntimeError(f"set-up process failed: {stderr.read_text()[-500:]}")
        ready = int(stdout.read_text().split()[0])
        samples.append((ready - start) / 1e9 * workloads.INTERPRETER_START_MS * 1e6 / reference)
    stdout.unlink()
    stderr.unlink()
    return samples


def quantile(values, j: int, n: int) -> float:
    """The j-th of the n-quantiles, inclusive method; the value itself if alone."""
    values = list(values)
    return statistics.quantiles(values, n=n, method="inclusive")[j] if len(values) > 1 else values[0]


def end_to_end(workload, tally: Tally, setup: list[float]) -> dict:
    """Latency and throughput of the run's ops at the nominal host speed."""
    scaled = tally.scaled(workload)
    return {
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "latency_p90_ms": quantile(scaled, 8, 10) / 1e6,
        "points_per_s": tally.points / (sum(scaled) / 1e9),
        "peak_rss_mb": tally.peak_rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }


def traced_run(workload, seconds: float, seed: int):
    """Untraced ops, then the same ops traced, then the layer probes."""
    import tracing

    plain = timed_ops(workload, 0.4 * seconds)
    tracer = tracing.Tracer()
    workload.trace_imports = True
    with tracer.installed():
        traced = timed_ops(workload, 0.45 * seconds, tracer=tracer, limit=plain.n)
        workload.trace_imports = False
        k = traced.n
        base = sum(plain.scaled(workload)[:k])
        overhead = 100.0 * (sum(traced.scaled(workload)) - base) / base
        probed = tracing.probe_layers(tracer, seed)
    metrics = tracing.per_layer(tracer, probed, overhead)
    spans_file = tracing.OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    info = {
        "untraced_ops": plain.n,
        "traced_ops": k,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "absent_sites": tracer.absent,
    }
    if getattr(workload, "import_ms", None):
        median_import = statistics.median(workload.import_ms)
        info["cli_import_ms_median"] = median_import
        info["cli_import_share_of_op"] = median_import / (statistics.median(traced.latencies()) / 1e6)
    return metrics, [plain, traced], info


def provenance(seed: int) -> dict:
    versions = {}
    for name in ("numpy", "scipy", "mpmath"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = None
    import checks
    import workloads

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "seed": seed,
        "generator_contract": checks.GENERATOR_CONTRACT,
        "thread_limits": workloads.SINGLE_THREADED,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "subdebt" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'subdebt'} not found; run from a subdebt checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    import workloads

    workloads.OUT.mkdir(exist_ok=True)
    workload = workloads.setup(args.workload, args.seed)
    try:
        if args.trace:
            metrics, tallies, info = traced_run(workload, args.seconds, args.seed)
            declared = spec["per_layer"]
        else:
            tally = timed_ops(workload, args.seconds)
            metrics = end_to_end(workload, tally, setup_seconds(args.workload, args.seed))
            tallies = [tally]
            info = {
                "ops": tally.n,
                "reference_every": workload.reference_every,
                "reference_median_ms": statistics.median(tally.reference_ns[: tally.n]) / 1e6,
                "reference_nominal_ms": workload.reference_ms,
                "run_p50_ms": statistics.median(tally.latencies()) / 1e6,
                "run_p90_ms": quantile(tally.latencies(), 8, 10) / 1e6,
                "run_points_per_s": tally.points / (sum(tally.latencies()) / 1e9),
            }
            declared = spec["end_to_end"]
        final_problems, final_info = workload.final_checks()
    finally:
        workload.close()

    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    attempted = sum(t.n for t in tallies)
    failed = sum(t.failed for t in tallies)
    mc_ops = sum(t.mc_ops for t in tallies)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 0.0,
        "wrong_answers": sum(t.wrong for t in tallies),
        "known_defect_failures": {k: sum(t.known.get(k, 0) for t in tallies) for k in {k for t in tallies for k in t.known}},
        "failures": [f for t in tallies for f in t.failures][:MAX_LISTED_FAILURES],
        "final_check_problems": final_problems,
        "mc_ops": mc_ops,
        "mc_seed_paths_repeat_share": sum(t.mc_repeats for t in tallies) / mc_ops if mc_ops else None,
        **final_info,
        **info,
    }
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": summary["wrong_answers"] == 0 and not final_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    record = {"provenance": provenance(args.seed), "summary": summary, "result": result}
    path = workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print("summary " + json.dumps(summary))
    for name, entry in result["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

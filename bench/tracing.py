"""The traced run: spans recorded around calls into each `subdebt` layer,
plus probes for the layers a workload does not reach, reduced to the
per-layer metrics named in BENCHMARK.json.

Spans are recorded by wrapping public functions at the names each
calling module imported them under, from outside the package.  Nothing in
`src/` is changed.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import workloads
from workloads import OUT, spawn

# (module, attribute, span name).  The package-level names are the ones the
# benchmark itself calls; the others are the names one layer calls another by.
SITES = [
    ("subdebt", "value_all_claims", "claims.value_all_claims"),
    ("subdebt.sweeps", "value_all_claims", "claims.value_all_claims"),
    ("subdebt.claims", "call_price", "black_scholes.call_price"),
    ("subdebt.claims", "put_price", "black_scholes.put_price"),
    ("subdebt.risk", "vega", "black_scholes.vega"),
    ("subdebt.oracle", "junior_debt_value", "claims.junior_debt_value"),
    ("subdebt", "junior_debt_vega", "risk.junior_debt_vega"),
    ("subdebt.sweeps", "junior_debt_vega", "risk.junior_debt_vega"),
    ("subdebt", "classify_regime", "risk.classify_regime"),
    ("subdebt.risk", "classify_regime", "risk.classify_regime"),
    ("subdebt.sweeps", "classify_regime", "risk.classify_regime"),
    ("subdebt", "chosen_risk", "risk.chosen_risk"),
    ("subdebt.sweeps", "chosen_risk", "risk.chosen_risk"),
    ("subdebt", "sweep_sigma", "sweeps.sweep_sigma"),
    ("subdebt", "sweep_structure", "sweeps.sweep_structure"),
    ("subdebt", "write_sweep_csv", "sweeps.write"),
    ("subdebt", "write_sweep_json", "sweeps.write"),
    ("subdebt", "write_structure_csv", "sweeps.write"),
    ("subdebt", "write_structure_json", "sweeps.write"),
    ("subdebt", "mc_claim_values", "oracle.mc_claim_values"),
    ("subdebt.oracle", "simulate_terminal_values", "oracle.simulate_terminal_values"),
    ("subdebt", "argmax_sigma_numeric", "oracle.argmax_sigma_numeric"),
    ("subdebt", "finite_diff_vega", "oracle.finite_diff_vega"),
    ("subdebt", "load_scenario", "scenario.load_scenario"),
]

MAX_SPANS = 400_000
CLI_COMMANDS = ("price", "thresholds", "sweep-sigma", "sweep-structure", "verify")


class Tracer:
    """Spans (name, start ns, end ns, parent index, op id), kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self.absent: list[str] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site; a name a later version removed is noted as absent."""
        undo = []
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(span, original))
            undo.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    @contextmanager
    def span(self, name, op):
        """Record one op: a root span around everything it calls."""
        self.op = op
        self.recording = True
        index = len(self.spans)
        start = time.perf_counter_ns()
        self.spans.append(None)
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.recording = False
            self.spans[index] = (name, start, time.perf_counter_ns(), -1, op)

    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def write(self, path: Path) -> None:
        with path.open("w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


def layer_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: durations, self times (duration minus the time its
    direct children cover) and, per span, its children's names."""
    children_ns = [0] * len(spans)
    child_names: list = [None] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_ns[parent] += end - start
            if child_names[parent] is None:
                child_names[parent] = []
            child_names[parent].append(name)
    durations: dict = {}
    selfs: dict = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        selfs.setdefault(name, []).append(end - start - children_ns[index])
    by_span = {i: names for i, names in enumerate(child_names) if names}
    return durations, selfs, by_span


def _median(values, scale):
    return statistics.median(values) / scale if values else 0.0


def micro_us(fn, calls=2000, repeats=7) -> float:
    """Median over repeats of the mean time per call, untraced."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter_ns() - start) / calls / 1e3)
    return statistics.median(samples)


def import_probe(repeats=3) -> dict:
    """Interpreter start, and the import chain of `subdebt.cli`, each in a
    fresh process."""
    env = workloads.child_env()
    out = OUT / f"import-probe-{os.getpid()}"
    interpreter = []
    for _ in range(repeats + 2):
        _, _, ns = spawn([sys.executable, "-c", "pass"], out.with_suffix(".out"), out.with_suffix(".err"), env)
        interpreter.append(ns / 1e6)
    splits = []
    for _ in range(repeats):
        spawn([sys.executable, "-X", "importtime", "-c", "import subdebt.cli"], out.with_suffix(".out"), out.with_suffix(".err"), env)
        splits.append(workloads.import_split(out.with_suffix(".err").read_text()))
    out.with_suffix(".out").unlink()
    out.with_suffix(".err").unlink()
    return {
        "import.interpreter_ms": statistics.median(interpreter),
        "import.subdebt_cli_ms": statistics.median(s["subdebt"] for s in splits) / 1e3,
        "import.scipy_ms": statistics.median(s["scipy"] for s in splits) / 1e3,
        "import.numpy_ms": statistics.median(s["numpy"] for s in splits) / 1e3,
        "import.scipy_loaded_by_cli": float(all(s["scipy"] > 0 for s in splits)),
    }


def probe_layers(tracer: Tracer, seed: int) -> dict:
    """Drive every layer a little under the tracer, so that each per-layer
    metric has samples whatever the workload; returns counts and the
    metrics taken outside spans."""
    import subdebt

    rng = random.Random(seed ^ 0x5EED)
    op = -2
    points = [workloads.draw_firm(rng, kind) for kind in ("solvent", "distressed", "payout", "hump-boundary") * 16]
    before = len(tracer.spans)
    for firm, initial_sigma in points:
        with tracer.span("probe.point", op):
            cs = subdebt.CapitalStructure(*firm)
            subdebt.value_all_claims(cs)
            subdebt.junior_debt_vega(cs)
            subdebt.classify_regime(cs, initial_sigma)
            subdebt.chosen_risk(cs, initial_sigma)
        op -= 1
    counts = {}
    for name, *_ in tracer.spans[before:]:
        counts[name] = counts.get(name, 0) + 1
    result = {
        f"black_scholes.{fn}.calls_per_point": counts.get(f"black_scholes.{fn}", 0) / len(points)
        for fn in ("call_price", "put_price", "vega")
    }

    sweep = workloads.Sweep(seed)
    for i in range(4):
        with tracer.span("probe.sweep", op):
            sweep.op(i)
        op -= 1
    grid = subdebt.GridSpec(*workloads.ARGMAX_GRID)
    structures = [(workloads.draw_oracle_firm(rng), rng.getrandbits(63)) for _ in range(3)]
    for firm, mc_seed in structures:
        with tracer.span("probe.oracle", op):
            workloads.verify_structure(firm, mc_seed, grid)
        op -= 1

    main = importlib.import_module("subdebt.cli").main
    cli = workloads.CliCold(seed)
    try:
        for path, *_ in cli.scenarios:
            for _ in range(5):
                with tracer.span("probe.scenario", op):
                    subdebt.load_scenario(path)
                op -= 1
        target = cli.dir / "main.out"
        for command in CLI_COMMANDS:
            index = next(i for i in range(50) if cli.plan(i)[1] == command and cli.plan(i)[0] is None)
            samples = []
            for _ in range(3):
                start = time.perf_counter_ns()
                code = main(cli.argv(index) + ["--out", str(target)])
                samples.append((time.perf_counter_ns() - start) / 1e6)
                if code != 0:
                    raise RuntimeError(f"in-process {command} exited {code}")
            result[f"cli.main.ms.{command}"] = statistics.median(samples)
    finally:
        cli.close()

    firm, _ = points[1]
    option = subdebt.OptionInputs(firm.V, firm.FS, firm.sigma, firm.tau, firm.r)
    result["black_scholes.norm_cdf.us"] = micro_us(lambda: subdebt.norm_cdf(0.3), calls=20000)
    result["black_scholes.call_price.us"] = micro_us(lambda: subdebt.call_price(option))
    result["claims.CapitalStructure.us"] = micro_us(lambda: subdebt.CapitalStructure(*firm))

    cs = subdebt.CapitalStructure(*structures[0][0])
    mc = subdebt.MCConfig(workloads.ORACLE_PATHS, structures[0][1])
    tracemalloc.start()
    subdebt.mc_claim_values(cs, mc)
    result["oracle.mc_claim_values.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    result.update(import_probe())
    return result


def per_layer(tracer: Tracer, probed: dict, overhead_pct: float) -> dict:
    """The per-layer metrics, in BENCHMARK.json's names and units."""
    durations, selfs, children = layer_times(tracer.spans)
    us, ms = 1e3, 1e6
    metrics = dict(probed)
    metrics.update(
        {
            "scenario.load_scenario.us": _median(durations.get("scenario.load_scenario"), us),
            "claims.value_all_claims.us": _median(durations.get("claims.value_all_claims"), us),
            "claims.value_all_claims.self_us": _median(selfs.get("claims.value_all_claims"), us),
            "risk.junior_debt_vega.us": _median(durations.get("risk.junior_debt_vega"), us),
            "risk.classify_regime.us": _median(durations.get("risk.classify_regime"), us),
            "risk.chosen_risk.us": _median(durations.get("risk.chosen_risk"), us),
            "sweeps.sweep_sigma.ms": _median(durations.get("sweeps.sweep_sigma"), ms),
            "sweeps.sweep_sigma.self_ms": _median(selfs.get("sweeps.sweep_sigma"), ms),
            "sweeps.sweep_structure.ms": _median(durations.get("sweeps.sweep_structure"), ms),
            "sweeps.sweep_structure.self_ms": _median(selfs.get("sweeps.sweep_structure"), ms),
            "sweeps.write.ms": _median(durations.get("sweeps.write"), ms),
            "oracle.simulate_terminal_values.ms": _median(durations.get("oracle.simulate_terminal_values"), ms),
            "oracle.mc_claim_values.self_ms": _median(selfs.get("oracle.mc_claim_values"), ms),
            "oracle.argmax_sigma_numeric.ms": _median(durations.get("oracle.argmax_sigma_numeric"), ms),
            "oracle.finite_diff_vega.us": _median(durations.get("oracle.finite_diff_vega"), us),
            "trace.overhead_pct": overhead_pct,
        }
    )
    mc = durations.get("oracle.mc_claim_values")
    metrics["oracle.mc_claim_values.paths_per_s"] = (
        workloads.ORACLE_PATHS / (statistics.median(mc) / 1e9) if mc else 0.0
    )
    argmax_evals = [
        names.count("claims.junior_debt_value")
        for index, names in children.items()
        if tracer.spans[index][0] == "oracle.argmax_sigma_numeric"
    ]
    metrics["oracle.argmax_sigma_numeric.junior_evals"] = (
        statistics.median(argmax_evals) if argmax_evals else 0.0
    )
    return metrics

"""The four benchmark workloads: inputs drawn from a seed, one timed
operation, and the untimed check of that operation's output.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returned and was checked.  Importing
this module imports `subdebt` from the checkout's `src/`, which is part
of the set-up that `setup_s` measures.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))
# One BLAS thread in this process and every child.  The program does no
# BLAS work, but on import numpy and scipy each start a thread pool of
# nproc threads; on a 2-vCPU host those threads contend with the
# interpreter and widened the spread of a cold CLI op's time from about
# 11% to 25% (interquartile range over 70-80 ops).
SINGLE_THREADED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREADED)

import numpy as np  # noqa: E402
import subdebt  # noqa: E402

import checks  # noqa: E402
from checks import Firm  # noqa: E402
from launcher import spawn  # noqa: E402

ARGMAX_GRID = (0.01, 1.5, 1e-6)
ORACLE_PATHS = 1_000_000
CLI_VERIFY_PATHS = 200_000
SIGMA_STEPS = 200
STRUCTURE_STEPS = 201
FIRM_KINDS = ("solvent", "distressed", "hump-boundary", "payout", "zero-vol")
MPMATH_SAMPLE = 24
TRACEBACK = "Traceback (most recent call last)"
UNMAPPED_ERROR = "invalid input not rejected with a documented exit code (ROADMAP item 4)"
SPURIOUS_PEAK = "numeric argmax finds a peak in the saturated low-sigma plateau"
VEGA_RESOLUTION = "finite-difference vega below the rounding resolution of its bump"
MC_REFERENCE_DRAWS = 1 << 18
REFERENCE_FIRMS = [Firm(80.0 + 0.01 * k, 60.0, 20.0, 0.3, 1.0, 0.02) for k in range(400)]
# Nominal time of a bare interpreter start, `python -c pass`, the
# reference for `cli-cold` ops and for set-up (see Workload.reference_ms).
INTERPRETER_START_MS = 40.0


def draw_firm(rng: random.Random, kind: str) -> tuple[Firm, float]:
    """A capital structure of the given kind and its pre-shift volatility."""
    u = rng.uniform
    if kind == "solvent":
        V = u(80.0, 150.0)
        firm = Firm(V, V * u(0.3, 0.6), V * u(0.05, 0.2), u(0.05, 0.5), u(0.25, 5.0), u(0.0, 0.05))
        return firm, firm.sigma
    V = u(40.0, 110.0)
    firm = Firm(V, V * u(0.7, 1.1), V * u(0.05, 0.5), u(0.05, 0.8), u(0.25, 3.0), u(0.0, 0.05))
    if kind == "distressed":
        return firm, firm.sigma
    if kind == "payout":
        return firm._replace(q=u(0.005, 0.05)), firm.sigma
    if kind == "zero-vol":
        return firm._replace(sigma=0.0), u(0.05, 0.5)
    if kind == "hump-boundary":
        firm = firm._replace(q=u(0.0, 0.03))
        gap = rng.choice((-1.0, 1.0)) * 10.0 ** u(-6.0, -3.0)
        return firm._replace(V=checks.hump_threshold(firm) * (1.0 + gap)), firm.sigma
    raise ValueError(kind)


def draw_oracle_firm(rng: random.Random) -> Firm:
    """A structure the `verify` checks can decide: sigma* inside the argmax
    grid or clearly absent, and sigma away from sigma* so that the
    finite-difference vega is not taken at a stationary point."""
    while True:
        firm, _ = draw_firm(rng, rng.choice(("distressed", "payout", "solvent")))
        firm = firm._replace(sigma=rng.uniform(0.05, 0.7))
        best = checks.sigma_star(firm)
        if best is None:
            if firm.V > 1.02 * checks.hump_threshold(firm):
                return firm
        elif 0.03 <= best <= 1.3 and abs(firm.sigma - best) >= 0.03:
            return firm


def screened_seed(rng: random.Random, firms: list[Firm], paths: int) -> int:
    """An MC seed under which the frozen-contract reference passes the
    `verify` rule for every firm; a 3-SE miss happens by chance at about
    0.3% per claim, and such a seed would fail every run that draws it."""
    for _ in range(20):
        seed = rng.getrandbits(63)
        reference = checks.mc_reference(firms, seed, paths)
        if not any(
            checks.check_mc(f, checks.closed_claims(f), est, paths)
            for f, est in zip(firms, reference)
        ):
            return seed
    return seed


def cs_of(firm: Firm):
    return subdebt.CapitalStructure(*firm)


def quantile_points(values, count):
    """`count` evenly spaced indices into a sequence."""
    step = max(len(values) // count, 1)
    return list(range(0, len(values), step))[:count]


class Workload:
    """Inputs of one workload; `op(i)` is timed, `check(i, out)` is not."""

    name = ""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def points(self, i: int) -> int:
        return 1

    def known_defect(self, i: int, out) -> str | None:
        """For a failed op, the known defect of this version it shows, if
        any.  Such failures count as failed but not as wrong answers, so
        that a new wrong answer still makes the run incorrect."""
        return None

    def describe(self, i: int) -> str:
        return f"op {i}"

    def op_count(self, seconds: float) -> int | None:
        """Ops in a run of `seconds`, or None to run until time is up.

        A workload whose ops can fail runs a fixed number of whole input
        cycles at about `ops_per_second`, so that a seed gives the same
        ops, and so the same failures, whatever the host's speed."""
        if self.ops_per_second is None:
            return None
        return self.cycle * max(1, round(seconds * self.ops_per_second / self.cycle))

    ops_per_second: float | None = None
    cycle = 1

    def final_checks(self) -> tuple[list[str], dict]:
        return [], {}

    def mc_key(self, i: int):
        """(seed, paths) of op i's MC draw, or None if it draws none."""
        return None

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def warm_up(self) -> None:
        for i in range(self.warm_up_ops):
            self.op(i)

    warm_up_ops = 3
    # Capacity of a run's latency arrays, preallocated so that the
    # benchmark's own memory, which `peak_rss_mb` counts on in-process
    # workloads, does not grow with the number of ops a faster program
    # completes.  A run stops early if it fills them.
    max_ops = 1 << 16
    # Host speed.  The host this was built on slows the guest by up to
    # about 1.7x in phases of seconds to minutes, in CPU time as well as
    # wall time, so no choice of quantile within a run removes it.  So
    # every `reference_every` ops the run times a fixed reference task
    # that shares no code with `subdebt`, and each op's time is divided by
    # the latest reference and multiplied by the reference's nominal time
    # `reference_ms` (see bench/README.md, "Host speed").
    reference_every = 1
    reference_ms = 2.5
    # Set during a traced run; CliCold then runs its children under
    # `python -X importtime`, the one trace that reaches into them.
    trace_imports = False

    def reference_ns(self) -> int:
        """Wall time of the benchmark's own pure-Python claim values
        (`checks.closed_claims`) for a fixed set of firms."""
        start = time.perf_counter_ns()
        for firm in REFERENCE_FIRMS:
            checks.closed_claims(firm)
        return time.perf_counter_ns() - start

    def close(self) -> None:
        pass


class Screen(Workload):
    """Per-firm screen: claims, junior vega, regime and chosen risk, one
    firm per op, cycling through solvent, distressed, near-hump-boundary,
    q > 0 and sigma = 0 firms."""

    name = "screen"
    warm_up_ops = 500
    reference_every = 100
    max_ops = 1 << 21

    def __init__(self, seed: int, count: int = 4000):
        rng = random.Random(seed)
        self.firms = [draw_firm(rng, FIRM_KINDS[i % len(FIRM_KINDS)]) for i in range(count)]
        self.sample = rng.sample(range(count), MPMATH_SAMPLE)

    def op(self, i):
        firm, initial_sigma = self.firms[i % len(self.firms)]
        cs = subdebt.CapitalStructure(*firm)
        values = subdebt.value_all_claims(cs)
        vega = subdebt.junior_debt_vega(cs) if firm.sigma > 0.0 else None
        profile = subdebt.classify_regime(cs, initial_sigma)
        chosen = subdebt.chosen_risk(cs, initial_sigma)
        return values, vega, profile, chosen

    def check(self, i, out):
        firm, initial_sigma = self.firms[i % len(self.firms)]
        values, vega, profile, chosen = out
        return checks.check_claims(
            firm, values.senior_value, values.junior_value, values.equity_value, vega
        ) + checks.check_profile(
            firm,
            initial_sigma,
            profile.shift_threshold,
            profile.hump_threshold,
            profile.optimal_volatility,
            profile.regime.value == "hump-shaped",
            chosen,
        )

    def describe(self, i):
        firm, initial_sigma = self.firms[i % len(self.firms)]
        return f"firm {firm} initial_sigma={initial_sigma!r}"

    def final_checks(self):
        worst = 0.0
        problems = []
        for i in self.sample:
            values, vega, _, _ = self.op(i)
            firm = self.firms[i][0]
            error = checks.mpmath_error(
                firm, values.senior_value, values.junior_value, values.equity_value, vega
            )
            worst = max(worst, error)
            if error > checks.MPMATH_TOL:
                problems.append(f"{self.describe(i)}: mpmath error {error:.3g} of scale")
        return problems, {"mpmath_points": len(self.sample), "mpmath_max_scaled_error": worst}


def parse_sweep(text: str, fmt: str) -> list[tuple[float | None, dict[str, list]]]:
    """Tables of a written sweep as (junior proportion or None, columns);
    empty cells and nulls become None."""
    if fmt == "json":
        payload = json.loads(text)
        tables = payload["tables"] if "tables" in payload else [payload]
        return [(t.get("junior_proportion"), t["columns"]) for t in tables]
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    by_key: dict = {}
    for row in rows[1:]:
        values = [None if cell == "" else float(cell) for cell in row]
        key = values[0] if header[0] == "junior_proportion" else None
        columns = by_key.setdefault(key, {name: [] for name in header})
        for name, value in zip(header, values):
            columns[name].append(value)
    return list(by_key.items())


class Sweep(Workload):
    """Alternating `sweep_sigma` (200 steps) and `sweep_structure` (3 x 201)
    ops, each written to an in-memory CSV or JSON stream."""

    name = "sweep"
    warm_up_ops = 8

    def __init__(self, seed: int, count: int = 32):
        rng = random.Random(seed)
        self.sigma_inputs = []
        for k in range(count):
            if k % 8 == 0:
                # V = 100, sigma from 0.01: both calls in the spread saturate.
                self.sigma_inputs.append((Firm(100.0, 60.0, 10.0, 0.2, 1.0, 0.01), 0.01, 0.8))
            else:
                firm, _ = draw_firm(rng, rng.choice(("solvent", "distressed", "payout")))
                self.sigma_inputs.append((firm, rng.uniform(0.01, 0.05), rng.uniform(0.6, 1.2)))
        self.structure_inputs = []
        for k in range(count):
            self.structure_inputs.append(
                dict(
                    total_face=rng.uniform(80.0, 120.0),
                    junior_proportions=sorted(rng.uniform(0.05, 0.5) for _ in range(3)),
                    v_lower=rng.uniform(40.0, 60.0),
                    v_upper=rng.uniform(65.0, 95.0),
                    steps=STRUCTURE_STEPS,
                    initial_sigma=rng.uniform(0.05, 0.3),
                    maturity=rng.uniform(0.5, 2.0),
                    rate=rng.uniform(0.0, 0.04),
                    dividend_yield=rng.choice((0.0, rng.uniform(0.0, 0.02))),
                )
            )

    def _input(self, i):
        k = (i // 2) % len(self.sigma_inputs)
        fmt = "csv" if (i // 2) % 2 == 0 else "json"
        if i % 2 == 0:
            return "sigma", self.sigma_inputs[k], fmt
        return "structure", self.structure_inputs[k], fmt

    def op(self, i):
        kind, spec, fmt = self._input(i)
        stream = io.StringIO()
        if kind == "sigma":
            firm, lower, upper = spec
            table = subdebt.sweep_sigma(cs_of(firm), lower, upper, SIGMA_STEPS)
            writer = subdebt.write_sweep_json if fmt == "json" else subdebt.write_sweep_csv
        else:
            table = subdebt.sweep_structure(**spec)
            writer = subdebt.write_structure_json if fmt == "json" else subdebt.write_structure_csv
        writer(table, stream)
        return stream.getvalue()

    def points(self, i):
        return SIGMA_STEPS if i % 2 == 0 else 3 * STRUCTURE_STEPS

    def describe(self, i):
        return "sweep %s %r (%s)" % self._input(i)

    def check(self, i, out):
        kind, spec, fmt = self._input(i)
        tables = parse_sweep(out, fmt)
        if kind == "sigma":
            return self._check_sigma(spec, tables)
        return self._check_structure(spec, tables)

    def _check_sigma(self, spec, tables):
        firm, lower, upper = spec
        (_, columns), = tables
        sigmas = columns["sigma"]
        if len(sigmas) != SIGMA_STEPS or sigmas[0] != lower or sigmas[-1] != upper:
            return [f"sigma grid of {len(sigmas)} points from {sigmas[0]!r} to {sigmas[-1]!r}"]
        if any(a >= b for a, b in zip(sigmas, sigmas[1:])):
            return ["sigma grid not strictly increasing"]
        problems = []
        for row, sigma in enumerate(sigmas):
            problems += checks.check_claims(
                firm._replace(sigma=sigma),
                columns["senior_value"][row],
                columns["junior_value"][row],
                columns["equity_value"][row],
                columns["junior_vega"][row],
            )
        return problems

    def _check_structure(self, spec, tables):
        proportions = [p for p, _ in tables]
        if proportions != spec["junior_proportions"]:
            return [f"proportions {proportions} != {spec['junior_proportions']}"]
        problems = []
        s0 = spec["initial_sigma"]
        for proportion, columns in tables:
            values = columns["asset_value"]
            if len(values) != spec["steps"] or any(a >= b for a, b in zip(values, values[1:])):
                problems.append(f"asset-value grid of {len(values)} points is not increasing")
                continue
            junior_face = proportion * spec["total_face"]
            senior_face = spec["total_face"] - junior_face
            for row, V in enumerate(values):
                firm = Firm(V, senior_face, junior_face, s0, spec["maturity"], spec["rate"], spec["dividend_yield"])
                best = columns["optimal_volatility"][row]
                problems += checks.check_profile(
                    firm,
                    s0,
                    columns["shift_threshold"][row],
                    columns["hump_threshold"][row],
                    best,
                    best is not None,
                    columns["chosen_risk"][row],
                )
        return problems

    def final_checks(self):
        worst = 0.0
        problems = []
        count = 0
        for i in (0, 2, 4):  # the saturated sweep and two drawn ones
            firm, _, _ = self._input(i)[1]
            (_, columns), = parse_sweep(self.op(i), self._input(i)[2])
            for row in quantile_points(columns["sigma"], MPMATH_SAMPLE // 3):
                at = firm._replace(sigma=columns["sigma"][row])
                error = checks.mpmath_error(
                    at,
                    columns["senior_value"][row],
                    columns["junior_value"][row],
                    columns["equity_value"][row],
                    columns["junior_vega"][row],
                )
                count += 1
                worst = max(worst, error)
                if error > checks.MPMATH_TOL:
                    problems.append(f"sweep row {at}: mpmath error {error:.3g} of scale")
        return problems, {"mpmath_points": count, "mpmath_max_scaled_error": worst}


class McOracle(Workload):
    """Each op verifies one structure: MC claim values at one million paths,
    the numeric argmax on the CLI's grid and the finite-difference vega.
    Structures come in groups of eight that share one (seed, paths)."""

    name = "mc-oracle"
    groups = 4
    group_size = 8
    warm_up_ops = 2
    reference_ms = 6.5
    ops_per_second = 14.0
    cycle = groups * group_size

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.groups):
            firms = [draw_oracle_firm(rng) for _ in range(self.group_size)]
            mc_seed = screened_seed(rng, firms, ORACLE_PATHS)
            reference = checks.mc_reference(firms, mc_seed, ORACLE_PATHS)
            self.inputs += [(f, mc_seed, ref) for f, ref in zip(firms, reference)]
        self.grid = subdebt.GridSpec(*ARGMAX_GRID)
        self.reference_rng = np.random.Generator(np.random.Philox(seed))

    def _input(self, i):
        return self.inputs[i % len(self.inputs)]

    def reference_ns(self):
        """Wall time of a small MC draw and reduce in numpy alone: Philox
        normals, exp, a call payoff and its mean.  A pure-Python reference
        does not slow with the host as these memory-bound ops do."""
        start = time.perf_counter_ns()
        z = self.reference_rng.standard_normal(MC_REFERENCE_DRAWS)
        np.maximum(np.exp(z) - 1.0, 0.0).mean()
        return time.perf_counter_ns() - start

    def mc_key(self, i):
        return (self._input(i)[1], ORACLE_PATHS)

    def op(self, i):
        firm, mc_seed, _ = self._input(i)
        return verify_structure(firm, mc_seed, self.grid)

    def check(self, i, out):
        return [problem for problem, _ in self._problems(i, out)]

    def known_defect(self, i, out):
        labels = {label for _, label in self._problems(i, out)}
        return None if None in labels else "; ".join(sorted(labels))

    def _problems(self, i, out) -> list[tuple[str, str | None]]:
        """Each problem with the known defect that explains it, if any."""
        firm, _, reference = self._input(i)
        estimates, best, numeric_vega = out
        cs = cs_of(firm)
        closed = subdebt.value_all_claims(cs)
        closed = (closed.senior_value, closed.junior_value, closed.equity_value)
        pairs = [(e.mean, e.std_error) for e in estimates]
        problems = [(p, None) for p in checks.check_mc(firm, closed, pairs, ORACLE_PATHS)]
        for name, (mean, _), (want, _), bound in zip(
            ("senior", "junior", "equity"), pairs, reference, (firm.FS, firm.FJ, firm.V)
        ):
            if abs(mean - want) > checks.MC_REFERENCE_TOL * bound:
                problems.append((f"MC {name} mean {mean!r} != frozen-contract reference {want!r}", None))
        closed_best = subdebt.optimal_volatility(cs)
        known = SPURIOUS_PEAK if checks.spurious_peak(firm, closed_best, best, ARGMAX_GRID[0]) else None
        problems += [(p, known) for p in checks.check_argmax(closed_best, best)]
        analytic = subdebt.junior_debt_vega(cs)
        known = VEGA_RESOLUTION if checks.vega_below_resolution(firm, analytic, numeric_vega) else None
        problems += [(p, known) for p in checks.check_vega(firm, analytic, numeric_vega)]
        return problems

    def describe(self, i):
        firm, mc_seed, _ = self._input(i)
        return f"firm {firm} seed={mc_seed}"


def verify_structure(firm: Firm, mc_seed: int, grid):
    """The three oracles on one structure, as `subdebt verify` runs them."""
    cs = subdebt.CapitalStructure(*firm)
    estimates = subdebt.mc_claim_values(cs, subdebt.MCConfig(ORACLE_PATHS, mc_seed))
    best = subdebt.argmax_sigma_numeric(cs, grid)
    numeric_vega = subdebt.finite_diff_vega(cs, checks.VEGA_BUMP)
    return estimates, best, numeric_vega


def _scenario_text(name: str, fields: dict, mc_seed: int) -> str:
    lines = ["[scenario]", f"name = {name}"]
    lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
              for key, value in fields.items()]
    lines += ["", "[monte_carlo]", f"paths = {ORACLE_PATHS}", f"seed = {mc_seed}", "antithetic = true", ""]
    return "\n".join(lines)


def _fields(firm: Firm, initial_sigma: float) -> dict:
    return dict(
        asset_value=firm.V,
        senior_face=firm.FS,
        junior_face=firm.FJ,
        sigma=firm.sigma,
        maturity=firm.tau,
        rate=firm.r,
        dividend_yield=firm.q,
        initial_sigma=initial_sigma,
    )


def parse_report(text: str, fmt: str) -> dict:
    """Key/value report of `price` or `thresholds` in any output format."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        pairs = [(key, None if value == "" else value) for key, value in rows]
    else:
        pairs = [tuple(line.split(None, 1)) for line in text.splitlines()]
        pairs = [(key, None if value == "n/a" else value) for key, value in pairs]
    return {key: _scalar(value) for key, value in pairs}


def _scalar(value):
    if value is None or value in ("true", "false"):
        return None if value is None else value == "true"
    try:
        return float(value)
    except ValueError:
        return value


_TEXT_CHECK = re.compile(r"^\[(PASS|FAIL)\] (\w+): (.*)$")


def parse_verification(text: str, fmt: str) -> tuple[bool, dict]:
    """(passed, {check name: (closed_form, estimate)}) from `verify` output."""
    if fmt == "json":
        report = json.loads(text)
        found = {c["name"]: (c.get("closed_form"), c.get("estimate")) for c in report["checks"]}
        return report["passed"], found
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        found = {r["check"]: (_scalar(r["closed_form"] or None), _scalar(r["estimate"] or None)) for r in rows}
        return all(r["passed"] == "true" for r in rows), found
    found = {}
    for line in text.splitlines():
        match = _TEXT_CHECK.match(line)
        if match and "skipped" not in match.group(3):
            parts = dict(part.split("=", 1) for part in match.group(3).split(", ") if "=" in part)
            found[match.group(2)] = (_scalar(_na(parts["closed"])), _scalar(_na(parts["estimate"])))
    return text.rstrip().endswith("result: PASS"), found


def _na(value: str):
    return None if value == "n/a" else value


class CliCold(Workload):
    """Each op is a fresh `python -m subdebt` process.  Valid ops cycle
    through the five subcommands and three output formats; every tenth op
    is an invalid input that must exit with a documented code."""

    name = "cli-cold"
    commands = ("price", "thresholds", "sweep-sigma", "sweep-structure", "verify")
    formats = ("text", "csv", "json")
    # (name, command, documented exit codes); the last three are the inputs
    # ROADMAP item 4 lists as defects.
    error_kinds = (
        ("missing-key", "price", {2}),
        ("negative-sigma", "thresholds", {3}),
        ("infinite-asset-value", "thresholds", {2, 3}),
        ("rate-minus-800", "price", {2, 3}),
        ("out-into-missing-dir", "sweep-sigma", {2, 3}),
    )
    warm_up_ops = 1
    ops_per_second = 100 / 35
    cycle = 10
    # The reference is a bare interpreter start, the part of a cold op
    # that owes nothing to `subdebt`.
    reference_ms = INTERPRETER_START_MS

    def __init__(self, seed: int, count: int = 8):
        rng = random.Random(seed)
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-cold-{seed}-", dir=OUT))
        self.peak_child_kb = 0
        self.scenarios = []
        kinds = ("solvent", "distressed", "payout", "zero-vol")
        for k in range(count):
            kind = kinds[k % len(kinds)]
            if kind == "zero-vol":
                firm, initial_sigma = draw_firm(rng, "zero-vol")
                firm = firm._replace(V=firm.FS + firm.FJ * rng.uniform(1.2, 2.0))
            else:
                firm = draw_oracle_firm(rng)
                initial_sigma = firm.sigma
            mc_seed = screened_seed(rng, [firm], CLI_VERIFY_PATHS)
            path = self.dir / f"s{k}.ini"
            path.write_text(_scenario_text(f"bench-{k}", _fields(firm, initial_sigma), mc_seed))
            proportions = sorted(rng.uniform(0.05, 0.5) for _ in range(3))
            structure = dict(
                total_face=firm.FS + firm.FJ,
                junior_proportions=proportions,
                v_lower=0.6 * firm.V,
                v_upper=1.4 * firm.V,
            )
            self.scenarios.append((path, firm, initial_sigma, mc_seed, structure))
        base, s0 = draw_firm(rng, "distressed")
        fields = _fields(base, s0)
        bad = {
            "missing-key": {k: v for k, v in fields.items() if k != "rate"},
            "negative-sigma": dict(fields, sigma=-0.1),
            "infinite-asset-value": dict(fields, asset_value="inf"),
            "rate-minus-800": dict(fields, rate=-800.0),
            "out-into-missing-dir": fields,
        }
        self.error_files = {}
        for name, f in bad.items():
            path = self.dir / f"{name}.ini"
            path.write_text(_scenario_text(name, f, 1))
            self.error_files[name] = path
        self.picks = [rng.randrange(count) for _ in range(997)]
        self.expected: dict = {}
        self.import_ms: list[float] = []
        self.launcher = Launcher(child_env())

    def plan(self, i):
        """(error kind or None, command, format, scenario index) of op i."""
        if i % 10 == 9:
            name, command, _ = self.error_kinds[(i // 10) % len(self.error_kinds)]
            return name, command, "text", None
        valid = i - i // 10
        command = self.commands[valid % len(self.commands)]
        fmt = self.formats[(valid // len(self.commands)) % len(self.formats)]
        return None, command, fmt, self.picks[valid % len(self.picks)]

    def argv(self, i) -> list[str]:
        error, command, fmt, k = self.plan(i)
        path = self.error_files[error] if error else self.scenarios[k][0]
        args = [command, "--scenario", str(path)]
        if fmt != "text":
            args += ["--format", fmt]
        if command == "verify":
            args += ["--paths", str(CLI_VERIFY_PATHS)]
        if command == "sweep-structure":
            s = self.scenarios[k][4]
            args += [
                "--total-face", repr(s["total_face"]),
                "--proportions", ",".join(repr(p) for p in s["junior_proportions"]),
                "--v-min", repr(s["v_lower"]),
                "--v-max", repr(s["v_upper"]),
            ]
        if error == "out-into-missing-dir":
            args += ["--out", str(self.dir / "no-such-dir" / "out.csv")]
        return args

    def reference_ns(self):
        out = self.dir / "reference"
        return self.launcher.run([sys.executable, "-c", "pass"], out, out)[2]

    def op(self, i):
        flags = ["-X", "importtime"] if self.trace_imports else []
        stdout, stderr = self.dir / "stdout", self.dir / "stderr"
        code, peak_kb, _ = self.launcher.run([sys.executable, *flags, "-m", "subdebt", *self.argv(i)], stdout, stderr)
        self.peak_child_kb = max(self.peak_child_kb, peak_kb)
        return code, stdout.read_text(), stderr.read_text()

    def points(self, i):
        error, command, _, _ = self.plan(i)
        if error:
            return 0
        return {"sweep-sigma": SIGMA_STEPS, "sweep-structure": 3 * STRUCTURE_STEPS}.get(command, 1)

    def mc_key(self, i):
        error, command, _, k = self.plan(i)
        return None if error or command != "verify" else (self.scenarios[k][3], CLI_VERIFY_PATHS)

    def peak_rss_kb(self):
        return self.peak_child_kb

    def known_defect(self, i, out):
        error, command, _, k = self.plan(i)
        if error:
            return UNMAPPED_ERROR
        if command != "verify" or out[0] != 4:
            return None
        firm, want, labels = self.scenarios[k][1], self._library("verify", k), set()
        closed, numeric = want["optimal_volatility"]
        if checks.check_argmax(closed, numeric):
            labels.add(SPURIOUS_PEAK if checks.spurious_peak(firm, closed, numeric, ARGMAX_GRID[0]) else None)
        if "junior_vega" in want and checks.check_vega(firm, *want["junior_vega"]):
            labels.add(VEGA_RESOLUTION if checks.vega_below_resolution(firm, *want["junior_vega"]) else None)
        return None if not labels or None in labels else "; ".join(sorted(labels))

    def describe(self, i):
        return "subdebt " + " ".join(self.argv(i)).replace(f"{ROOT}{os.sep}", "")

    def check(self, i, out):
        code, stdout, stderr = out
        if self.trace_imports:
            self.import_ms.append(import_split(stderr)["subdebt"] / 1e3)
        error, command, fmt, k = self.plan(i)
        if TRACEBACK in stderr:
            last = stderr.strip().splitlines()[-1]
            return [f"exit {code} with a traceback: {last}"]
        if error:
            allowed = dict((name, codes) for name, _, codes in self.error_kinds)[error]
            return [] if code in allowed else [f"{error}: exit {code}, documented {sorted(allowed)}"]
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        try:
            return self._compare(command, fmt, k, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparseable {command} {fmt} output: {exc!r}"]

    def _library(self, command, k):
        """The in-process library result the CLI output must equal."""
        key = (command, k)
        if key not in self.expected:
            path, firm, initial_sigma, mc_seed, structure = self.scenarios[k]
            scenario = subdebt.load_scenario(path)
            cs = scenario.structure
            if command == "price":
                v = subdebt.value_all_claims(cs)
                result = dict(
                    asset_value=cs.asset_value, senior_face=cs.senior_face, junior_face=cs.junior_face,
                    sigma=cs.volatility, maturity=cs.maturity, rate=cs.rate, dividend_yield=cs.dividend_yield,
                    senior_value=v.senior_value, junior_value=v.junior_value, equity_value=v.equity_value,
                    total=v.total, junior_vega=subdebt.junior_debt_vega(cs) if cs.volatility > 0.0 else None,
                )
            elif command == "thresholds":
                p = subdebt.classify_regime(cs, scenario.initial_sigma)
                result = dict(
                    initial_sigma=scenario.initial_sigma, shift_threshold=p.shift_threshold,
                    hump_threshold=p.hump_threshold, optimal_volatility=p.optimal_volatility,
                    regime=p.regime.value, shifts_above_initial=p.shifts_above_initial,
                    chosen_risk=subdebt.chosen_risk(cs, scenario.initial_sigma),
                )
            elif command == "sweep-sigma":
                table = subdebt.sweep_sigma(cs, 0.01, 0.8, SIGMA_STEPS)
                result = {}
                for fmt, writer in (("csv", subdebt.write_sweep_csv), ("json", subdebt.write_sweep_json)):
                    stream = io.StringIO()
                    writer(table, stream)
                    result[fmt] = stream.getvalue()
            elif command == "sweep-structure":
                tables = subdebt.sweep_structure(
                    steps=STRUCTURE_STEPS, initial_sigma=scenario.initial_sigma, maturity=cs.maturity,
                    rate=cs.rate, dividend_yield=cs.dividend_yield, **structure,
                )
                result = {}
                for fmt, writer in (("csv", subdebt.write_structure_csv), ("json", subdebt.write_structure_json)):
                    stream = io.StringIO()
                    writer(tables, stream)
                    result[fmt] = stream.getvalue()
            else:
                v = subdebt.value_all_claims(cs)
                estimates = subdebt.mc_claim_values(cs, subdebt.MCConfig(CLI_VERIFY_PATHS, mc_seed))
                result = {
                    f"mc_{name}": (closed, e.mean)
                    for name, closed, e in zip(
                        ("senior_value", "junior_value", "equity_value"),
                        (v.senior_value, v.junior_value, v.equity_value),
                        estimates,
                    )
                }
                result["optimal_volatility"] = (
                    subdebt.optimal_volatility(cs),
                    subdebt.argmax_sigma_numeric(cs, subdebt.GridSpec(*ARGMAX_GRID)),
                )
                if cs.volatility > checks.VEGA_BUMP:
                    result["junior_vega"] = (
                        subdebt.junior_debt_vega(cs),
                        subdebt.finite_diff_vega(cs, checks.VEGA_BUMP),
                    )
            self.expected[key] = result
        return self.expected[key]

    def _compare(self, command, fmt, k, stdout):
        want = self._library(command, k)
        if command in ("sweep-sigma", "sweep-structure"):
            text = want["json" if fmt == "json" else "csv"]
            return [] if stdout == text else [f"{command} {fmt} output differs from the library's"]
        if command == "verify":
            passed, found = parse_verification(stdout, fmt)
            problems = [] if passed else ["verify reported a failed check"]
            for name, values in want.items():
                if found.get(name) != values:
                    problems.append(f"verify {name}: {found.get(name)} != library {values}")
            return problems
        report = parse_report(stdout, fmt)
        return [
            f"{command} {key}: {report.get(key)!r} != library {value!r}"
            for key, value in want.items()
            if report.get(key) != value
        ]

    def close(self):
        self.launcher.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def child_env() -> dict:
    """The environment of a child that imports `subdebt` from `src/`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class Launcher:
    """A `bench/launcher.py` process that spawns children for this one, so
    that their peak RSS is their own (see that file)."""

    def __init__(self, env: dict):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, int, int]:
        """(exit code, peak RSS in kB, wall time in ns) of one child."""
        self.process.stdin.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.process.wait()}")
        return tuple(json.loads(line))

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def import_split(stderr: str) -> dict[str, float]:
    """Cumulative import time in microseconds of the outermost `subdebt`,
    `scipy` and `numpy` modules in `python -X importtime` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line.split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))
    totals = {"subdebt": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[str] = []
    for level, name, cumulative in reversed(entries):
        del ancestors[level:]
        package = name.split(".")[0]
        if package in totals and package not in ancestors:
            totals[package] += cumulative
        ancestors.append(package)
    return totals


WORKLOADS = {w.name: w for w in (CliCold, Screen, Sweep, McOracle)}


def setup(name: str, seed: int) -> Workload:
    """Generate the inputs of a workload and warm it up."""
    workload = WORKLOADS[name](seed)
    try:
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    return workload

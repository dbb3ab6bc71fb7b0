"""Command-line interface: pricing, thresholds, sweeps, and verification.

One table, ``_COMMANDS``, lists each command's handler and options.
``main`` reads the arguments, loads the scenario and runs the handler,
which computes everything the command reports and returns the exit code
with a writer that takes the output stream (the writer of the module
that computed the report).  Only then does ``main`` open the output,
write it and return the code, so a failed computation neither creates
nor truncates an ``--out`` file.  Each handler imports the modules it
runs, so ``price`` and ``thresholds`` load neither the sweeps nor the
Monte-Carlo engine.  Exit codes: 0 success; 2 usage error, malformed or
unreadable scenario file, or output that cannot be written (an ``--out``
path that cannot be opened, or a failed write or close of the output
stream, stdout and the help text included); 3 parameter validation
error; 4 verification check failure.

``main`` reads argv without argparse where it is the command name and
then ``--flag value`` pairs: each flag named exactly and at most once, no
value starting with ``-``, each value converted and checked as argparse
would, and the required flags all given.  The arguments are then the
ones argparse would give.  Any other argv (help, an unknown, abbreviated
or repeated flag, ``--flag=value``, a value starting with ``-``, a value
that does not convert, a missing flag) goes to the argparse parser that
``_build_parser`` builds from the same table, so help text and usage
errors are argparse's.  argparse, and the ``gettext`` and ``locale``
modules its messages load, are imported only there.

``run`` is the entry point of a ``subdebt`` process (``python -m
subdebt``, the console script, this module run as a script).  It turns
the cyclic garbage collector off while ``main`` runs, so that no
collection walks the objects the imports build; then it freezes the
heap (``gc.freeze``), so that the collections at interpreter exit skip
them too, and turns the collector back on if it was on.  atexit
handlers, the final flush of the standard streams and refcount
deallocation still run.  ``main`` neither switches the collector nor
freezes: tests and library callers run it in process, many times, and
the cyclic collector never frees what a freeze keeps.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Callable
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace

from .errors import ScenarioParseError, ValidationError
from .scenario import MCConfig, Scenario, load_scenario

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_VERIFY_FAILURE = 4


class _OutputError(Exception):
    """The output cannot be written: the ``--out`` file does not open, or a
    write or close of the output stream fails."""


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_flags(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        code, write = _COMMANDS[args.command][1](args, load_scenario(args.scenario))
        with _open_out(args.out) as stream:
            write(stream)
        return code
    except (ScenarioParseError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def run(argv: list[str] | None = None) -> int:
    """``main(argv)`` for a process about to exit: the cyclic collector off
    while it runs, the heap frozen after, the collector as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _read_flags(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse would give for a well-formed ``argv``, None
    for any other: the command name, then ``--flag value`` pairs of its
    options, each flag named exactly and at most once, no value starting
    with ``-``, each value converted and in its ``choices``, and every
    required flag given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *pairs = argv
    options = _COMMANDS[command][2]
    if len(pairs) % 2:
        return None
    given = {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        option = options.get(flag)
        if option is None or flag in given or text.startswith("-"):
            return None
        try:
            value = option.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        given[flag] = value
    values = {}
    for flag, option in options.items():
        if flag not in given and option.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, option.get("default"))
    return SimpleNamespace(command=command, **values)


def _build_parser():
    """The argparse parser for every argv: help, usage errors and whatever
    ``_read_flags`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse, but help is written to stdout through ``_open_out``:
        argparse's own writer ignores a failed write, and the exit would be 0.
        argparse's help action passes no file."""

        def print_help(self) -> None:
            with _open_out(None) as stream:
                stream.write(self.format_help())

    parser = _Parser(
        prog="subdebt",
        description=(
            "Two-tranche structural credit model: claim values, junior-debt "
            "risk sensitivity, risk-shifting thresholds, sweeps, and "
            "Monte-Carlo verification."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _COMMANDS.items():
        subparser = subparsers.add_parser(command, help=summary)
        for flag, option in options.items():
            subparser.add_argument(flag, **option)
    return parser


def _cmd_price(args: SimpleNamespace, scenario: Scenario) -> tuple[int, Callable]:
    from .claims import junior_debt_vega, value_all_claims
    from .output import write_report

    cs = scenario.structure
    values = value_all_claims(cs)
    report = _input_echo(scenario)
    report.update(
        senior_value=values.senior_value,
        junior_value=values.junior_value,
        equity_value=values.equity_value,
        total=values.total,
        junior_vega=junior_debt_vega(cs),
    )
    return EXIT_OK, lambda stream: write_report(report, args.format, stream)


def _cmd_thresholds(args: SimpleNamespace, scenario: Scenario) -> tuple[int, Callable]:
    from .output import write_report
    from .risk import classify_regime

    profile = classify_regime(scenario.structure, scenario.initial_sigma)
    report = _input_echo(scenario)
    report.update(
        initial_sigma=scenario.initial_sigma,
        shift_threshold=profile.shift_threshold,
        hump_threshold=profile.hump_threshold,
        optimal_volatility=profile.optimal_volatility,
        regime=profile.regime.value,
        shifts_above_initial=profile.shifts_above_initial,
        chosen_risk=profile.chosen_risk,
    )
    return EXIT_OK, lambda stream: write_report(report, args.format, stream)


def _cmd_sweep_sigma(args: SimpleNamespace, scenario: Scenario) -> tuple[int, Callable]:
    from .sweeps import sweep_sigma, write_sweep_csv, write_sweep_json

    table = sweep_sigma(scenario.structure, args.sigma_min, args.sigma_max, args.steps)
    write = write_sweep_json if args.format == "json" else write_sweep_csv
    return EXIT_OK, lambda stream: write(table, stream)


def _cmd_sweep_structure(args: SimpleNamespace, scenario: Scenario) -> tuple[int, Callable]:
    from .sweeps import sweep_structure, write_structure_csv, write_structure_json

    try:
        proportions = [float(part) for part in args.proportions.split(",") if part]
    except ValueError:
        raise ValidationError(f"cannot parse proportions: {args.proportions!r}") from None
    cs = scenario.structure
    tables = sweep_structure(
        total_face=args.total_face,
        junior_proportions=proportions,
        v_lower=args.v_min,
        v_upper=args.v_max,
        steps=args.steps,
        initial_sigma=scenario.initial_sigma,
        maturity=cs.maturity,
        rate=cs.rate,
        dividend_yield=cs.dividend_yield,
    )
    write = write_structure_json if args.format == "json" else write_structure_csv
    return EXIT_OK, lambda stream: write(tables, stream)


def _cmd_verify(args: SimpleNamespace, scenario: Scenario) -> tuple[int, Callable]:
    from .verify import run_verification, write_report

    mc = MCConfig(
        path_count=args.paths if args.paths is not None else scenario.mc.path_count,
        seed=args.seed if args.seed is not None else scenario.mc.seed,
    )
    report = {"scenario": scenario.name, **run_verification(scenario.structure, mc)}
    code = EXIT_OK if report["passed"] else EXIT_VERIFY_FAILURE
    return code, lambda stream: write_report(report, args.format, stream)


def _input_echo(scenario: Scenario) -> dict:
    cs = scenario.structure
    return {
        "scenario": scenario.name,
        "asset_value": cs.asset_value,
        "senior_face": cs.senior_face,
        "junior_face": cs.junior_face,
        "sigma": cs.volatility,
        "maturity": cs.maturity,
        "rate": cs.rate,
        "dividend_yield": cs.dividend_yield,
    }


# Each command's help line, handler and options, the common ones first:
# flag -> ``add_argument`` keywords.  ``_build_parser`` and ``_read_flags``
# both read this table.
_COMMON = {
    "--scenario": dict(required=True, metavar="PATH", help="scenario file (INI format)"),
    "--format": dict(
        choices=("csv", "json"),
        help="machine-readable output format (default: text for reports, csv for sweeps)",
    ),
    "--out": dict(metavar="PATH", help="write output to PATH instead of stdout"),
}
_COMMANDS = {
    "price": ("value the three claims and the junior-debt vega", _cmd_price, _COMMON),
    "thresholds": ("risk-shifting thresholds, regime, and chosen risk", _cmd_thresholds, _COMMON),
    "sweep-sigma": (
        "claim values over a volatility grid",
        _cmd_sweep_sigma,
        {
            **_COMMON,
            "--sigma-min": dict(type=float, default=0.01),
            "--sigma-max": dict(type=float, default=0.8),
            "--steps": dict(type=int, default=200),
        },
    ),
    "sweep-structure": (
        "chosen risk over asset value for several junior-debt proportions",
        _cmd_sweep_structure,
        {
            **_COMMON,
            "--total-face": dict(type=float, required=True),
            "--proportions": dict(
                required=True,
                help="comma-separated junior proportions of total debt, e.g. 0.1,0.2,0.3",
            ),
            "--v-min": dict(type=float, required=True),
            "--v-max": dict(type=float, required=True),
            "--steps": dict(type=int, default=201),
        },
    ),
    "verify": (
        "check closed forms against Monte-Carlo, numeric argmax, and finite differences",
        _cmd_verify,
        {
            **_COMMON,
            "--seed": dict(type=int, help="override the Monte-Carlo seed"),
            "--paths": dict(type=int, help="override the Monte-Carlo path count"),
        },
    ),
}


@contextmanager
def _open_out(out: str | None):
    """The output stream, stdout or the file ``out``, flushed or closed on
    exit; ``_OutputError`` where it cannot be opened, written or closed."""
    target = "stdout" if out is None else out
    try:
        if out is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with Path(out).open("w") as stream:
                yield stream
    except OSError as exc:
        if out is None:
            _discard_stdout()
        raise _OutputError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _discard_stdout() -> None:
    """Point file descriptor 1 at the null device after a failed write, so
    that the interpreter's final flush of stdout does not fail again."""
    with suppress(OSError, ValueError):  # no descriptor: nothing to redirect
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(run())

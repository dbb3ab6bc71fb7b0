"""Command-line interface: pricing, thresholds, sweeps, and verification.

It parses arguments, loads the scenario, runs the library and opens the
output stream; the module that computes each report writes it.  Each
command imports the modules it runs inside its handler, so ``price`` and
``thresholds`` load neither the sweeps nor the Monte-Carlo engine.  Exit
codes: 0 success; 2 usage error, malformed or unreadable scenario file,
or output that cannot be written (an ``--out`` path that cannot be
opened, or a failed write or close of the output stream, stdout and the
help text included); 3 parameter validation error; 4 verification check
failure.

``run`` is the entry point of a ``subdebt`` process (``python -m
subdebt``, the console script, this module run as a script).  It returns
``main``'s exit code and then freezes the garbage collector's heap
(``gc.freeze``), so that the collections at interpreter exit skip the
objects the imports built; atexit handlers, the final flush of the
standard streams and refcount deallocation still run.  ``main`` does
not freeze: tests and library callers run it in process, many times,
and the cyclic collector never frees what a freeze keeps.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import DegenerateVolatilityError, ScenarioParseError, ValidationError
from .scenario import MCConfig, Scenario, load_scenario

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_VERIFY_FAILURE = 4


class _OutputError(Exception):
    """The output cannot be written: the ``--out`` file does not open, or a
    write or close of the output stream fails."""


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, load_scenario(args.scenario))
    except (ScenarioParseError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValidationError, DegenerateVolatilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def run(argv: list[str] | None = None) -> int:
    """``main(argv)`` for a process about to exit, its heap frozen after."""
    try:
        return main(argv)
    finally:
        gc.freeze()


class _Parser(argparse.ArgumentParser):
    """argparse, but help for stdout is written through ``_open_out``:
    argparse's own writer ignores a failed write, and the exit would be 0."""

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        with _open_out(None) as stream:
            stream.write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", required=True, metavar="PATH", help="scenario file (INI format)"
    )
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        help="machine-readable output format (default: text for reports, csv for sweeps)",
    )
    common.add_argument(
        "--out", metavar="PATH", help="write output to PATH instead of stdout"
    )

    parser = _Parser(
        prog="subdebt",
        description=(
            "Two-tranche structural credit model: claim values, junior-debt "
            "risk sensitivity, risk-shifting thresholds, sweeps, and "
            "Monte-Carlo verification."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    price = subparsers.add_parser(
        "price", parents=[common], help="value the three claims and the junior-debt vega"
    )
    price.set_defaults(handler=_cmd_price)

    thresholds = subparsers.add_parser(
        "thresholds",
        parents=[common],
        help="risk-shifting thresholds, regime, and chosen risk",
    )
    thresholds.set_defaults(handler=_cmd_thresholds)

    sweep_s = subparsers.add_parser(
        "sweep-sigma", parents=[common], help="claim values over a volatility grid"
    )
    sweep_s.add_argument("--sigma-min", type=float, default=0.01)
    sweep_s.add_argument("--sigma-max", type=float, default=0.8)
    sweep_s.add_argument("--steps", type=int, default=200)
    sweep_s.set_defaults(handler=_cmd_sweep_sigma)

    sweep_f = subparsers.add_parser(
        "sweep-structure",
        parents=[common],
        help="chosen risk over asset value for several junior-debt proportions",
    )
    sweep_f.add_argument("--total-face", type=float, required=True)
    sweep_f.add_argument(
        "--proportions",
        required=True,
        help="comma-separated junior proportions of total debt, e.g. 0.1,0.2,0.3",
    )
    sweep_f.add_argument("--v-min", type=float, required=True)
    sweep_f.add_argument("--v-max", type=float, required=True)
    sweep_f.add_argument("--steps", type=int, default=201)
    sweep_f.set_defaults(handler=_cmd_sweep_structure)

    verify = subparsers.add_parser(
        "verify",
        parents=[common],
        help="check closed forms against Monte-Carlo, numeric argmax, and finite differences",
    )
    verify.add_argument("--seed", type=int, help="override the Monte-Carlo seed")
    verify.add_argument("--paths", type=int, help="override the Monte-Carlo path count")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_price(args: argparse.Namespace, scenario: Scenario) -> int:
    from .claims import junior_debt_vega, value_all_claims
    from .output import write_report

    cs = scenario.structure
    values = value_all_claims(cs)
    vega = None
    with suppress(DegenerateVolatilityError):
        vega = junior_debt_vega(cs)
    report = _input_echo(scenario)
    report.update(
        senior_value=values.senior_value,
        junior_value=values.junior_value,
        equity_value=values.equity_value,
        total=values.total,
        junior_vega=vega,
    )
    with _open_out(args.out) as stream:
        write_report(report, args.format, stream)
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace, scenario: Scenario) -> int:
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
    with _open_out(args.out) as stream:
        write_report(report, args.format, stream)
    return EXIT_OK


def _cmd_sweep_sigma(args: argparse.Namespace, scenario: Scenario) -> int:
    from .sweeps import sweep_sigma, write_sweep_csv, write_sweep_json

    table = sweep_sigma(scenario.structure, args.sigma_min, args.sigma_max, args.steps)
    write = write_sweep_json if args.format == "json" else write_sweep_csv
    with _open_out(args.out) as stream:
        write(table, stream)
    return EXIT_OK


def _cmd_sweep_structure(args: argparse.Namespace, scenario: Scenario) -> int:
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
    with _open_out(args.out) as stream:
        write(tables, stream)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, scenario: Scenario) -> int:
    from .verify import run_verification, write_report

    mc = MCConfig(
        path_count=args.paths if args.paths is not None else scenario.mc.path_count,
        seed=args.seed if args.seed is not None else scenario.mc.seed,
    )
    report = {"scenario": scenario.name, **run_verification(scenario.structure, mc)}
    with _open_out(args.out) as stream:
        write_report(report, args.format, stream)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILURE


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

"""Command-line interface: pricing, thresholds, sweeps, and verification.

Exit codes: 0 success; 2 usage error, malformed scenario file or an
``--out`` path that cannot be opened; 3 parameter validation error; 4
verification check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .claims import value_all_claims
from .errors import DegenerateVolatilityError, ScenarioParseError, ValidationError
from .oracle import GridSpec, MCConfig, argmax_sigma_numeric, finite_diff_vega, mc_claim_values
from .risk import chosen_risk, classify_regime, junior_debt_vega, optimal_volatility
from .scenario import Scenario, load_scenario
from .sweeps import (
    sweep_sigma,
    sweep_structure,
    write_structure_csv,
    write_structure_json,
    write_sweep_csv,
    write_sweep_json,
)

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_VERIFY_FAILURE = 4

# Verification tolerances: claim prices must sit within this many standard
# errors of their Monte-Carlo estimates (plus a tiny absolute slack for
# exactly degenerate runs); the numeric and closed-form maximizers must
# agree to ARGMAX_TOL; the analytic vega must match a central finite
# difference to VEGA_RELTOL, except at a stationary point, where the
# finite difference itself must vanish at scale STATIONARY_SCALE * V.
SE_MULTIPLE = 3.0
SE_SLACK = 1e-9
ARGMAX_TOL = 1e-4
VEGA_BUMP = 1e-5
VEGA_RELTOL = 1e-6
STATIONARY_SCALE = 1e-6
VEGA_NEAR_ZERO_SCALE = 1e-8
ARGMAX_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)

# When a claim's payoff sample is (almost) constant -- e.g. a senior bond
# whose default probability is far below 1/paths -- the sample standard
# error says nothing about the unsampled tail, so the 3-SE test is
# vacuous.  In that regime the check instead allows the rule-of-three
# bound on an unobserved event: probability <= RULE_OF_THREE / paths at
# ~99.9% confidence, times an upper bound on the claim's value.
DEGENERATE_SE_SCALE = 1e-12
RULE_OF_THREE = 7.0


class _OutputError(Exception):
    """The ``--out`` file cannot be opened for writing."""


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioParseError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValidationError, DegenerateVolatilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


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
    common.add_argument("--seed", type=int, help="override the Monte-Carlo seed")
    common.add_argument(
        "--paths", type=int, help="override the Monte-Carlo path count"
    )

    parser = argparse.ArgumentParser(
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
    sweep_f.add_argument(
        "--initial-sigma",
        type=float,
        help="override the scenario's pre-shift volatility",
    )
    sweep_f.set_defaults(handler=_cmd_sweep_structure)

    verify = subparsers.add_parser(
        "verify",
        parents=[common],
        help="check closed forms against Monte-Carlo, numeric argmax, and finite differences",
    )
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_price(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    cs = scenario.structure
    values = value_all_claims(cs)
    vega = junior_debt_vega(cs) if cs.volatility > 0.0 else None
    report = _input_echo(scenario)
    report.update(
        senior_value=values.senior_value,
        junior_value=values.junior_value,
        equity_value=values.equity_value,
        total=values.total,
        junior_vega=vega,
    )
    _emit_report(report, args.format, args.out)
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    cs = scenario.structure
    profile = classify_regime(cs, scenario.initial_sigma)
    report = _input_echo(scenario)
    report.update(
        initial_sigma=scenario.initial_sigma,
        shift_threshold=profile.shift_threshold,
        hump_threshold=profile.hump_threshold,
        optimal_volatility=profile.optimal_volatility,
        regime=profile.regime.value,
        shifts_above_initial=profile.shifts_above_initial,
        chosen_risk=chosen_risk(cs, scenario.initial_sigma),
    )
    _emit_report(report, args.format, args.out)
    return EXIT_OK


def _cmd_sweep_sigma(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    table = sweep_sigma(scenario.structure, args.sigma_min, args.sigma_max, args.steps)
    with _open_out(args.out) as stream:
        if args.format == "json":
            write_sweep_json(table, stream)
        else:
            write_sweep_csv(table, stream)
    return EXIT_OK


def _cmd_sweep_structure(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        proportions = [float(part) for part in args.proportions.split(",") if part]
    except ValueError:
        raise ValidationError(f"cannot parse proportions: {args.proportions!r}") from None
    initial_sigma = (
        args.initial_sigma if args.initial_sigma is not None else scenario.initial_sigma
    )
    cs = scenario.structure
    tables = sweep_structure(
        total_face=args.total_face,
        junior_proportions=proportions,
        v_lower=args.v_min,
        v_upper=args.v_max,
        steps=args.steps,
        initial_sigma=initial_sigma,
        maturity=cs.maturity,
        rate=cs.rate,
        dividend_yield=cs.dividend_yield,
    )
    with _open_out(args.out) as stream:
        if args.format == "json":
            write_structure_json(tables, stream)
        else:
            write_structure_csv(tables, stream)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    mc = _mc_with_overrides(scenario, args)
    report = run_verification(scenario, mc, ARGMAX_GRID)
    _emit_verification(report, args.format, args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILURE


def run_verification(scenario: Scenario, mc: MCConfig, grid: GridSpec) -> dict:
    """Run all verification checks and collect a structured report."""
    cs = scenario.structure
    checks = []

    closed = value_all_claims(cs)
    estimates = mc_claim_values(cs, mc)
    discount = math.exp(-cs.rate * cs.maturity)
    value_bounds = (
        cs.senior_face * discount,
        cs.junior_face * discount,
        cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity),
    )
    for name, closed_value, estimate, bound in zip(
        ("senior_value", "junior_value", "equity_value"),
        (closed.senior_value, closed.junior_value, closed.equity_value),
        estimates,
        value_bounds,
    ):
        diff = abs(closed_value - estimate.mean)
        multiples = diff / estimate.std_error if estimate.std_error > 0 else 0.0
        passed = diff <= SE_MULTIPLE * estimate.std_error + SE_SLACK
        degenerate = estimate.std_error < DEGENERATE_SE_SCALE * bound
        if not passed and degenerate:
            passed = diff <= RULE_OF_THREE * bound / mc.path_count
        checks.append(
            {
                "name": f"mc_{name}",
                "closed_form": closed_value,
                "estimate": estimate.mean,
                "std_error": estimate.std_error,
                "se_multiples": multiples,
                "degenerate_sample": degenerate,
                "passed": passed,
            }
        )

    best_closed = optimal_volatility(cs)
    best_numeric = argmax_sigma_numeric(cs, grid)
    if best_closed is None or best_numeric is None:
        argmax_passed = best_closed is None and best_numeric is None
        argmax_error = None
    else:
        argmax_error = abs(best_closed - best_numeric)
        argmax_passed = argmax_error < ARGMAX_TOL
    checks.append(
        {
            "name": "optimal_volatility",
            "closed_form": best_closed,
            "estimate": best_numeric,
            "error": argmax_error,
            "passed": argmax_passed,
        }
    )

    if cs.volatility > VEGA_BUMP:
        analytic = junior_debt_vega(cs)
        numeric = finite_diff_vega(cs, VEGA_BUMP)
        if abs(analytic) < VEGA_NEAR_ZERO_SCALE * cs.asset_value:
            # At a stationary point the relative error is meaningless; the
            # finite difference itself must vanish at the asset scale.
            vega_passed = abs(numeric) < STATIONARY_SCALE * cs.asset_value
            rel_error = None
        else:
            rel_error = abs(numeric - analytic) / abs(analytic)
            vega_passed = rel_error < VEGA_RELTOL
        checks.append(
            {
                "name": "junior_vega",
                "closed_form": analytic,
                "estimate": numeric,
                "relative_error": rel_error,
                "passed": vega_passed,
            }
        )
    else:
        checks.append(
            {
                "name": "junior_vega",
                "skipped": f"sigma = {cs.volatility} is too small to difference",
                "passed": True,
            }
        )

    return {
        "scenario": scenario.name,
        "paths": mc.path_count,
        "seed": mc.seed,
        "antithetic": mc.antithetic,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }


def _mc_with_overrides(scenario: Scenario, args: argparse.Namespace) -> MCConfig:
    return MCConfig(
        path_count=args.paths if args.paths is not None else scenario.mc.path_count,
        seed=args.seed if args.seed is not None else scenario.mc.seed,
        antithetic=scenario.mc.antithetic,
    )


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
    if out is None:
        yield sys.stdout
    else:
        try:
            stream = Path(out).open("w")
        except OSError as exc:
            raise _OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc
        with stream:
            yield stream


def _emit_report(report: dict, fmt: str | None, out: str | None) -> None:
    with _open_out(out) as stream:
        if fmt == "json":
            json.dump(report, stream, indent=2)
            stream.write("\n")
        elif fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(("key", "value"))
            for key, value in report.items():
                writer.writerow((key, _format_value(value, "")))
        else:
            width = max(len(key) for key in report)
            for key, value in report.items():
                stream.write(f"{key:<{width}}  {_format_value(value, 'n/a')}\n")


def _emit_verification(report: dict, fmt: str | None, out: str | None) -> None:
    with _open_out(out) as stream:
        if fmt == "json":
            json.dump(report, stream, indent=2)
            stream.write("\n")
        elif fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(("check", "closed_form", "estimate", "detail", "passed"))
            for check in report["checks"]:
                detail = check.get("skipped") or _first_detail(check)
                writer.writerow(
                    (
                        check["name"],
                        _format_value(check.get("closed_form"), ""),
                        _format_value(check.get("estimate"), ""),
                        _format_value(detail, ""),
                        _format_value(check["passed"], ""),
                    )
                )
        else:
            antithetic = _format_value(report["antithetic"], "n/a")
            stream.write(
                f"scenario {report['scenario']}: {report['paths']} paths, "
                f"seed {report['seed']}, antithetic {antithetic}\n"
            )
            for check in report["checks"]:
                status = "PASS" if check["passed"] else "FAIL"
                if "skipped" in check:
                    stream.write(f"[{status}] {check['name']}: skipped ({check['skipped']})\n")
                    continue
                parts = [
                    f"closed={_format_value(check.get('closed_form'), 'n/a')}",
                    f"estimate={_format_value(check.get('estimate'), 'n/a')}",
                ]
                for key in ("std_error", "se_multiples", "error", "relative_error"):
                    if check.get(key) is not None:
                        parts.append(f"{key}={_format_value(check[key], 'n/a')}")
                if check.get("degenerate_sample"):
                    parts.append("degenerate sample (rule-of-three bound)")
                stream.write(f"[{status}] {check['name']}: {', '.join(parts)}\n")
            stream.write("result: " + ("PASS" if report["passed"] else "FAIL") + "\n")


def _first_detail(check: dict) -> float | None:
    for key in ("se_multiples", "error", "relative_error"):
        if check.get(key) is not None:
            return check[key]
    return None


def _format_value(value, missing: str) -> str:
    """Render a report value; None and NaN become ``missing``."""
    if value is None:
        return missing
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return missing
        return repr(value)
    return str(value)


if __name__ == "__main__":
    sys.exit(main())

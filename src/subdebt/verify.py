"""Checks of the closed forms against the oracles in ``oracle``, and their report.

The tolerances live here.  Each check is one function that returns its
report entries and decides with one comparison against one tolerance:
``_claim_checks``, ``_argmax_check`` and ``_vega_check``.  A new check is
one function plus one entry in ``run_verification``'s list, and
``write_report`` shows it in every format: text shows each detail (a key
beyond ``_entry``'s own) that is a number or None, in the entry's order,
and CSV's ``detail`` column is the skip reason, or else the last of them.
"""

import math
from collections.abc import Iterator
from typing import IO

from .claims import CapitalStructure, junior_debt_vega, value_all_claims
from .oracle import GridSpec, MCConfig, argmax_sigma_numeric, finite_diff_vega, mc_claim_values
from .output import cell, write_csv, write_json
from .risk import optimal_volatility

# Verification tolerances; the docstring of each check states its rule.
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
# vacuous.  In that regime the tolerance is raised to the rule-of-three
# bound on an unobserved event: probability <= RULE_OF_THREE / paths at
# ~99.9% confidence, times an upper bound on the claim's value.
DEGENERATE_SE_SCALE = 1e-12
RULE_OF_THREE = 7.0


def run_verification(cs: CapitalStructure, mc: MCConfig) -> dict:
    """Run all verification checks and collect a structured report."""
    checks = [*_claim_checks(cs, mc), _argmax_check(cs), _vega_check(cs)]
    return {
        "paths": mc.path_count,
        "seed": mc.seed,
        "antithetic": True,  # the only scheme; kept so existing report readers still parse
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }


def write_report(report: dict, fmt: str | None, stream: IO[str]) -> None:
    """The report of ``run_verification``, ``scenario`` first, as JSON, as
    one CSV row per check, or as text (the default)."""
    if fmt == "json":
        write_json(report, stream)
    elif fmt == "csv":
        rows = []
        for check in report["checks"]:
            detail = check.get("skipped", next(reversed(_details(check).values()), None))
            closed, estimate = check.get("closed_form"), check.get("estimate")
            rows.append((check["name"], closed, estimate, detail, check["passed"]))
        write_csv(("check", "closed_form", "estimate", "detail", "passed"), rows, stream)
    else:
        stream.write(
            f"scenario {report['scenario']}: {report['paths']} paths, "
            f"seed {report['seed']}, antithetic {cell(report['antithetic'], 'n/a')}\n"
        )
        for check in report["checks"]:
            if "skipped" in check:
                parts = [f"skipped ({check['skipped']})"]
            else:
                shown = {"closed": check.get("closed_form"), "estimate": check.get("estimate")}
                shown.update(_details(check))
                parts = [f"{key}={cell(value, 'n/a')}" for key, value in shown.items()]
                if check.get("degenerate_sample"):
                    parts.append("degenerate sample (rule-of-three bound)")
            status = "PASS" if check["passed"] else "FAIL"
            stream.write(f"[{status}] {check['name']}: {', '.join(parts)}\n")
        stream.write("result: " + ("PASS" if report["passed"] else "FAIL") + "\n")


def _entry(name: str, closed_form, estimate, passed: bool, **detail) -> dict:
    """One check's report entry, with the keys every check shares in their order."""
    return {
        "name": name, "closed_form": closed_form, "estimate": estimate, **detail, "passed": passed
    }


def _details(check: dict) -> dict:
    """The entry's other keys whose value is a number or None, in its order."""
    shared = ("name", "closed_form", "estimate", "passed")
    return {
        key: value
        for key, value in check.items()
        if key not in shared
        and (value is None or isinstance(value, (int, float)) and not isinstance(value, bool))
    }


def _claim_checks(cs: CapitalStructure, mc: MCConfig) -> Iterator[dict]:
    """Each claim's closed form within SE_MULTIPLE standard errors of its
    Monte-Carlo estimate, plus SE_SLACK, or within the rule-of-three bound
    where the sample is degenerate."""
    closed = value_all_claims(cs)
    discount = math.exp(-cs.rate * cs.maturity)
    payout = math.exp(-cs.dividend_yield * cs.maturity)
    claims = (  # name, closed form, upper bound on the value
        ("senior_value", closed.senior_value, cs.senior_face * discount),
        ("junior_value", closed.junior_value, cs.junior_face * discount),
        ("equity_value", closed.equity_value, cs.asset_value * payout),
    )
    for (name, closed_value, bound), estimate in zip(claims, mc_claim_values(cs, mc)):
        diff = abs(closed_value - estimate.mean)
        tolerance = SE_MULTIPLE * estimate.std_error + SE_SLACK
        degenerate = estimate.std_error < DEGENERATE_SE_SCALE * bound
        if degenerate:
            tolerance = max(tolerance, RULE_OF_THREE * bound / mc.path_count)
        # A (near-)constant sample's standard error is rounding noise, so no
        # multiple of it means anything.
        no_multiple = degenerate or estimate.std_error == 0.0
        yield _entry(
            f"mc_{name}",
            closed_value,
            estimate.mean,
            diff <= tolerance,
            std_error=estimate.std_error,
            se_multiples=None if no_multiple else diff / estimate.std_error,
            degenerate_sample=degenerate,
        )


def _argmax_check(cs: CapitalStructure) -> dict:
    """The closed-form and numeric maximizers within ARGMAX_TOL, or both absent."""
    best_closed = optimal_volatility(cs)
    best_numeric = argmax_sigma_numeric(cs, ARGMAX_GRID)
    if best_closed is None or best_numeric is None:
        error = None
        passed = best_closed is None and best_numeric is None
    else:
        error = abs(best_closed - best_numeric)
        passed = error < ARGMAX_TOL
    return _entry("optimal_volatility", best_closed, best_numeric, passed, error=error)


def _vega_check(cs: CapitalStructure) -> dict:
    """The analytic junior vega within VEGA_RELTOL of a central finite
    difference.  At a stationary point, where the relative error means
    nothing, the difference itself must vanish at scale STATIONARY_SCALE * V."""
    if cs.volatility <= VEGA_BUMP:
        reason = f"sigma = {cs.volatility} is too small to difference"
        return {"name": "junior_vega", "skipped": reason, "passed": True}
    analytic = junior_debt_vega(cs)
    numeric = finite_diff_vega(cs, VEGA_BUMP)
    if abs(analytic) < VEGA_NEAR_ZERO_SCALE * cs.asset_value:
        relative_error = None
        passed = abs(numeric) < STATIONARY_SCALE * cs.asset_value
    else:
        relative_error = abs(numeric - analytic) / abs(analytic)
        passed = relative_error < VEGA_RELTOL
    return _entry("junior_vega", analytic, numeric, passed, relative_error=relative_error)

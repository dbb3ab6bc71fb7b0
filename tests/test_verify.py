"""Library-level tests of each branch of ``subdebt.verify.run_verification``."""

import math

import pytest

import subdebt.verify as verify
from subdebt import (
    CapitalStructure,
    ClaimValues,
    MCConfig,
    MCEstimate,
    optimal_volatility,
    value_all_claims,
)
from subdebt.verify import RULE_OF_THREE, SE_MULTIPLE, SE_SLACK, run_verification

CHECK_NAMES = [
    "mc_senior_value",
    "mc_junior_value",
    "mc_equity_value",
    "optimal_volatility",
    "junior_vega",
]


def _structure(asset_value, sigma):
    return CapitalStructure(asset_value, 60.0, 10.0, sigma, 1.0, 0.01)


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


def test_report_lists_five_checks_in_order():
    mc = MCConfig(path_count=2000, seed=3)
    report = run_verification(_structure(62.0, 0.10), mc)
    assert list(report) == ["paths", "seed", "antithetic", "checks", "passed"]
    assert (report["paths"], report["seed"], report["antithetic"]) == (2000, 3, True)
    assert [check["name"] for check in report["checks"]] == CHECK_NAMES
    assert report["passed"] is True


def test_senior_check_passes_through_the_rule_of_three_fallback():
    # The solvent senior bond almost never defaults, so its payoff sample is
    # constant to rounding and the 3-SE test fails on a 1.3e-7 difference.
    cs = _structure(100.0, 0.10)
    mc = MCConfig(path_count=100_000, seed=1)
    senior = _checks(run_verification(cs, mc))["mc_senior_value"]
    diff = abs(senior["closed_form"] - senior["estimate"])
    assert senior["degenerate_sample"] is True
    assert diff == pytest.approx(1.3e-7, rel=0.05)
    assert diff > SE_MULTIPLE * senior["std_error"] + SE_SLACK
    assert diff <= RULE_OF_THREE * 60.0 * math.exp(-0.01) / mc.path_count
    assert senior["se_multiples"] is None
    assert senior["passed"] is True


def test_constant_sample_reports_no_se_multiple():
    # sigma sqrt(tau) underflows to 0, so every path is the same: the
    # standard errors are 0 while the junior estimate is 7e-15 off.
    cs = CapitalStructure(62.0, 60.0, 10.0, 5e-324, 0.25, 0.01)
    checks = _checks(run_verification(cs, MCConfig(2000, 1)))
    junior = checks["mc_junior_value"]
    assert junior["std_error"] == 0.0
    assert junior["closed_form"] != junior["estimate"]
    for name in CHECK_NAMES[:3]:
        assert checks[name]["degenerate_sample"] is True
        assert checks[name]["se_multiples"] is None
        assert checks[name]["passed"] is True


def test_vega_at_the_stationary_point_has_no_relative_error():
    sigma_star = optimal_volatility(_structure(62.0, 0.10))
    report = run_verification(_structure(62.0, sigma_star), MCConfig(2000, 1))
    vega = _checks(report)["junior_vega"]
    assert vega["relative_error"] is None
    assert vega["passed"] is True
    assert report["passed"] is True


def test_vega_is_skipped_below_the_bump():
    report = run_verification(_structure(62.0, 1e-6), MCConfig(2000, 1))
    vega = _checks(report)["junior_vega"]
    assert vega == {
        "name": "junior_vega",
        "skipped": "sigma = 1e-06 is too small to difference",
        "passed": True,
    }
    assert report["passed"] is True


def test_closed_form_off_by_many_standard_errors_fails(monkeypatch):
    honest = verify.value_all_claims

    def shifted(cs):
        values = honest(cs)
        return ClaimValues(
            values.senior_value,
            values.junior_value + 1.0,
            values.equity_value,
            values.total + 1.0,
        )

    monkeypatch.setattr(verify, "value_all_claims", shifted)
    report = run_verification(_structure(62.0, 0.10), MCConfig(2000, 1))
    checks = _checks(report)
    assert checks["mc_junior_value"]["passed"] is False
    assert checks["mc_junior_value"]["se_multiples"] > 10.0
    assert checks["mc_senior_value"]["passed"] is True
    assert checks["mc_equity_value"]["passed"] is True
    assert report["passed"] is False


# A junior face of 1e-6 bounds the junior claim by 1e-6 e^{-0.01}, so over
# 2000 paths its rule-of-three bound (3.5e-9) exceeds the SE tolerance of a
# constant sample (SE_SLACK, 1e-9); over 2**32 paths it falls below it.
@pytest.mark.parametrize(
    "std_error, offset, paths, degenerate, above_se, above_rule, passed",
    [
        (1e-10, 2e-9, 2000, False, True, False, False),
        (0.0, 2e-9, 2000, True, True, False, True),
        (0.0, 1e-8, 2000, True, True, True, False),
        (0.0, 5e-10, 2**32, True, False, True, True),
    ],
    ids=[
        "sampled-between-the-tolerances",
        "degenerate-within-the-rule-of-three",
        "degenerate-above-both",
        "degenerate-within-the-se-tolerance-only",
    ],
)
def test_claim_check_holds_each_sample_to_its_one_tolerance(
    monkeypatch, std_error, offset, paths, degenerate, above_se, above_rule, passed
):
    cs = CapitalStructure(62.0, 60.0, 1e-6, 0.10, 1.0, 0.01)
    closed = value_all_claims(cs)

    def estimates(cs, mc):
        return (
            MCEstimate(closed.senior_value, 1.0, paths),
            MCEstimate(closed.junior_value + offset, std_error, paths),
            MCEstimate(closed.equity_value, 1.0, paths),
        )

    monkeypatch.setattr(verify, "mc_claim_values", estimates)
    junior = _checks(run_verification(cs, MCConfig(paths, 1)))["mc_junior_value"]
    diff = abs(junior["closed_form"] - junior["estimate"])
    se_tolerance = SE_MULTIPLE * std_error + SE_SLACK
    rule_of_three = RULE_OF_THREE * 1e-6 * math.exp(-0.01) / paths
    assert junior["degenerate_sample"] is degenerate
    assert (diff > se_tolerance, diff > rule_of_three) == (above_se, above_rule)
    assert junior["passed"] is passed

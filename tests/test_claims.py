"""Tests for the three-claim valuation layer."""

import math
from dataclasses import replace

import pytest
from hypothesis import given

from conftest import capital_structures, distressed_structures, finite_floats
from subdebt import (
    CapitalStructure,
    MCConfig,
    ValidationError,
    call_price,
    equity_value,
    junior_debt_value,
    mc_claim_values,
    payoffs_at_maturity,
    senior_debt_value,
    value_all_claims,
)


class TestMaturityPayoffs:
    def test_solvent_firm(self):
        p = payoffs_at_maturity(100.0, 60.0, 10.0)
        assert (p.senior_payoff, p.junior_payoff, p.equity_payoff) == (60.0, 10.0, 30.0)

    def test_junior_residual_claimant(self):
        p = payoffs_at_maturity(65.0, 60.0, 10.0)
        assert (p.senior_payoff, p.junior_payoff, p.equity_payoff) == (60.0, 5.0, 0.0)

    def test_senior_absorbs_everything(self):
        p = payoffs_at_maturity(40.0, 60.0, 10.0)
        assert (p.senior_payoff, p.junior_payoff, p.equity_payoff) == (40.0, 0.0, 0.0)

    @given(
        finite_floats(0.0, 1000.0), finite_floats(0.01, 500.0), finite_floats(0.01, 500.0)
    )
    def test_junior_payoff_forms_agree(self, terminal, senior_face, junior_face):
        clamp = payoffs_at_maturity(terminal, senior_face, junior_face).junior_payoff
        max_of_min = max(min(terminal - senior_face, junior_face), 0.0)
        difference = max(terminal - senior_face, 0.0) - max(
            terminal - (senior_face + junior_face), 0.0
        )
        assert clamp == max_of_min
        tolerance = 4.0 * math.ulp(max(terminal, senior_face + junior_face))
        assert abs(clamp - difference) <= tolerance

    @given(
        finite_floats(0.0, 1000.0), finite_floats(0.01, 500.0), finite_floats(0.01, 500.0)
    )
    def test_payoffs_sum_to_terminal_value(self, terminal, senior_face, junior_face):
        p = payoffs_at_maturity(terminal, senior_face, junior_face)
        total = p.senior_payoff + p.junior_payoff + p.equity_payoff
        assert abs(total - terminal) <= math.ulp(max(terminal, senior_face + junior_face))

    def test_rejects_negative_terminal_value(self):
        with pytest.raises(ValidationError):
            payoffs_at_maturity(-1.0, 60.0, 10.0)


def _cs(v, fs=60.0, fj=10.0, sigma=0.10, tau=1.0, r=0.01, q=0.0):
    return CapitalStructure(v, fs, fj, sigma, tau, r, q)


class TestZeroVolatilityLimits:
    def test_senior_default_free(self):
        assert senior_debt_value(_cs(100.0, sigma=0.0)) == pytest.approx(
            60.0 * math.exp(-0.01), rel=1e-15
        )

    def test_senior_certain_default_gets_assets(self):
        assert senior_debt_value(_cs(40.0, sigma=0.0)) == pytest.approx(40.0, rel=1e-15)

    def test_junior_default_free(self):
        assert junior_debt_value(_cs(100.0, sigma=0.0)) == pytest.approx(
            10.0 * math.exp(-0.01), rel=1e-14
        )

    def test_junior_deterministic_residual(self):
        # At sigma = 0 assets grow at the risk-free rate, so the residual
        # above the senior tranche is V e^{r tau} - F_S, worth
        # V - F_S e^{-r tau} today.
        assert junior_debt_value(_cs(65.0, sigma=0.0)) == pytest.approx(
            65.0 - 60.0 * math.exp(-0.01), rel=1e-14
        )

    def test_equity_deterministic(self):
        assert equity_value(_cs(100.0, sigma=0.0)) == pytest.approx(
            100.0 - 70.0 * math.exp(-0.01), rel=1e-15
        )
        assert equity_value(_cs(62.0, sigma=0.0)) == 0.0


class TestClaimBoundsAndIdentities:
    @given(capital_structures(min_sigma=0.0))
    def test_values_sum_to_asset_value(self, cs):
        values = value_all_claims(cs)
        assert abs(values.total - cs.asset_value) <= 1e-10 * cs.asset_value

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    def test_values_sum_to_discounted_asset_value(self, cs):
        values = value_all_claims(cs)
        expected = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
        assert abs(values.total - expected) <= 1e-10 * cs.asset_value

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    def test_components_within_asset_value(self, cs):
        values = value_all_claims(cs)
        for component in (values.senior_value, values.junior_value, values.equity_value):
            assert -1e-12 * cs.asset_value <= component <= cs.asset_value * (1 + 1e-12)

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    def test_debt_values_bounded_by_discounted_faces(self, cs):
        discount = math.exp(-cs.rate * cs.maturity)
        slack = 1.0 + 1e-12
        assert 0.0 <= senior_debt_value(cs) <= cs.senior_face * discount * slack
        assert 0.0 <= junior_debt_value(cs) <= cs.junior_face * discount * slack

    def test_value_all_claims_matches_components(self):
        cs = _cs(62.0, sigma=0.262)
        values = value_all_claims(cs)
        assert values.senior_value == senior_debt_value(cs)
        assert values.junior_value == junior_debt_value(cs)
        assert values.equity_value == equity_value(cs)
        assert values.total == pytest.approx(
            values.senior_value + values.junior_value + values.equity_value, rel=1e-15
        )


def _weakly_above(a, b):
    # Plateaus (capped or saturated claims) leave only rounding noise
    # between algebraically equal values, so compare with ulp-scale slack.
    assert a >= b - 1e-12 * (1.0 + abs(b))


class TestMonotonicity:
    @given(capital_structures(min_sigma=0.0), finite_floats(1.0, 500.0))
    def test_junior_nondecreasing_in_asset_value(self, cs, other_value):
        lo, hi = sorted((cs.asset_value, other_value))
        _weakly_above(
            junior_debt_value(replace(cs, asset_value=hi)),
            junior_debt_value(replace(cs, asset_value=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.5, 300.0))
    def test_junior_nondecreasing_in_junior_face(self, cs, other_face):
        lo, hi = sorted((cs.junior_face, other_face))
        _weakly_above(
            junior_debt_value(replace(cs, junior_face=hi)),
            junior_debt_value(replace(cs, junior_face=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(1.0, 500.0))
    def test_senior_nondecreasing_in_asset_value(self, cs, other_value):
        lo, hi = sorted((cs.asset_value, other_value))
        _weakly_above(
            senior_debt_value(replace(cs, asset_value=hi)),
            senior_debt_value(replace(cs, asset_value=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_senior_nonincreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            senior_debt_value(replace(cs, volatility=lo)),
            senior_debt_value(replace(cs, volatility=hi)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_equity_nondecreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            equity_value(replace(cs, volatility=hi)),
            equity_value(replace(cs, volatility=lo)),
        )


class TestLimits:
    @given(distressed_structures())
    def test_junior_approaches_senior_strike_call_for_huge_junior_face(self, cs):
        huge = replace(cs, junior_face=1e9)
        call = call_price(huge.option_inputs(huge.senior_face))
        assert junior_debt_value(huge) == pytest.approx(call, abs=1e-9)

    @given(distressed_structures())
    def test_junior_vanishes_at_extreme_volatility(self, cs):
        assert junior_debt_value(replace(cs, volatility=30.0)) <= 1e-9


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("sigma", [0.10, 0.262, 0.50])
    def test_each_claim_within_three_standard_errors(self, sigma):
        cs = _cs(62.0, sigma=sigma)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(200_000, seed=11))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert abs(closed_value - estimate.mean) <= 3.0 * estimate.std_error

    def test_agreement_with_dividend_yield(self):
        cs = _cs(62.0, sigma=0.3, q=0.02)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(200_000, seed=11))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert abs(closed_value - estimate.mean) <= 3.0 * estimate.std_error


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"asset_value": 0.0},
            {"senior_face": 0.0},
            {"senior_face": -1.0},
            {"junior_face": 0.0},
            {"volatility": -0.2},
            {"maturity": 0.0},
            {"rate": math.inf},
            {"dividend_yield": -0.01},
            {"asset_value": math.inf},
            {"asset_value": -math.inf},
            {"senior_face": math.inf},
            {"junior_face": math.inf},
            {"volatility": math.inf},
            {"maturity": math.inf},
            {"dividend_yield": math.inf},
        ],
    )
    def test_rejects_bad_structures(self, kwargs):
        base = dict(
            asset_value=62.0,
            senior_face=60.0,
            junior_face=10.0,
            volatility=0.1,
            maturity=1.0,
            rate=0.01,
        )
        base.update(kwargs)
        with pytest.raises(ValidationError):
            CapitalStructure(**base)

"""Tests for the three-claim valuation layer."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import capital_structures, distressed_structures, finite_floats
from subdebt import (
    CapitalStructure,
    ClaimValues,
    DegenerateVolatilityError,
    MCConfig,
    OptionInputs,
    ValidationError,
    call_price,
    junior_debt_value,
    junior_debt_vega,
    mc_claim_values,
    put_price,
    value_all_claims,
    vega,
)
from subdebt.oracle import claim_payoffs


class TestMaturityPayoffs:
    def test_solvent_firm(self):
        assert claim_payoffs(100.0, 60.0, 10.0) == (60.0, 10.0, 30.0)

    def test_junior_residual_claimant(self):
        assert claim_payoffs(65.0, 60.0, 10.0) == (60.0, 5.0, 0.0)

    def test_senior_absorbs_everything(self):
        assert claim_payoffs(40.0, 60.0, 10.0) == (40.0, 0.0, 0.0)

    @given(
        finite_floats(0.0, 1000.0), finite_floats(0.01, 500.0), finite_floats(0.01, 500.0)
    )
    def test_junior_payoff_forms_agree(self, terminal, senior_face, junior_face):
        clamp = claim_payoffs(terminal, senior_face, junior_face)[1]
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
        senior, junior, equity = claim_payoffs(terminal, senior_face, junior_face)
        total = senior + junior + equity
        assert abs(total - terminal) <= math.ulp(max(terminal, senior_face + junior_face))


def _cs(v, fs=60.0, fj=10.0, sigma=0.10, tau=1.0, r=0.01, q=0.0):
    return CapitalStructure(v, fs, fj, sigma, tau, r, q)


def _option(cs, strike):
    return OptionInputs(
        cs.asset_value, strike, cs.volatility, cs.maturity, cs.rate, cs.dividend_yield
    )


def _senior_value(cs):
    return value_all_claims(cs).senior_value


def _equity_value(cs):
    return value_all_claims(cs).equity_value


def _reference_claims(cs):
    """(senior, junior, equity, total, vega or None) composed from the
    single-option functions: a riskless bond less a put at F_S, a call
    spread between F_S and F_S + F_J, and a call at F_S + F_J."""
    senior_option, total_option = _option(cs, cs.senior_face), _option(cs, cs.total_face)
    senior = cs.senior_face * math.exp(-cs.rate * cs.maturity) - put_price(senior_option)
    junior = call_price(senior_option) - call_price(total_option)
    equity = call_price(total_option)
    if cs.volatility * math.sqrt(cs.maturity) == 0.0:
        junior_vega = None
    else:
        junior_vega = vega(senior_option) - vega(total_option)
    return senior, junior, equity, senior + junior + equity, junior_vega


class TestZeroVolatilityLimits:
    def test_senior_default_free(self):
        assert _senior_value(_cs(100.0, sigma=0.0)) == pytest.approx(
            60.0 * math.exp(-0.01), rel=1e-15
        )

    def test_senior_certain_default_gets_assets(self):
        assert _senior_value(_cs(40.0, sigma=0.0)) == pytest.approx(40.0, rel=1e-15)

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
        assert _equity_value(_cs(100.0, sigma=0.0)) == pytest.approx(
            100.0 - 70.0 * math.exp(-0.01), rel=1e-15
        )
        assert _equity_value(_cs(62.0, sigma=0.0)) == 0.0

    def test_overflowing_discounted_total_face_keeps_finite_limits(self):
        # (F_S + F_J) e^{-r tau} overflows, but every deterministic limit is finite.
        values = value_all_claims(_cs(62.0, fs=1.0, fj=1.5e308, sigma=0.0, r=-0.5))
        assert values.senior_value == math.exp(0.5)
        assert values.junior_value == 62.0 - math.exp(0.5)
        assert values.equity_value == 0.0


class TestOutOfFloatRange:
    @pytest.mark.parametrize(
        "cs",
        [
            _cs(1e-200, fs=1e200),  # V / F_S underflows to 0
            _cs(62.0, fs=1e300, r=-100.0),  # F_S e^{-r tau} overflows
            _cs(62.0, fs=1.0, fj=1e300, r=-100.0),  # only F_T e^{-r tau} does
        ],
        ids=["tiny-ratio", "huge-senior-face", "huge-total-face"],
    )
    def test_undefined_claims_raise_validation_error(self, cs):
        with pytest.raises(ValidationError):
            value_all_claims(cs)


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
        assert 0.0 <= _senior_value(cs) <= cs.senior_face * discount * slack
        assert 0.0 <= junior_debt_value(cs) <= cs.junior_face * discount * slack

    def test_value_all_claims_matches_components(self):
        cs = _cs(62.0, sigma=0.262)
        values = value_all_claims(cs)
        senior, junior, equity, _, _ = _reference_claims(cs)
        assert values.senior_value == senior
        assert values.junior_value == junior_debt_value(cs) == junior
        assert values.equity_value == equity
        assert values.total == pytest.approx(
            values.senior_value + values.junior_value + values.equity_value, rel=1e-15
        )


# sigma = 0 (forward limits), the saturated low-sigma range of the solvent
# sweep in test_03, and the general range.
_KERNEL_SIGMAS = st.one_of(
    st.just(0.0), finite_floats(0.005, 0.06), finite_floats(0.0, 1.5)
)


class TestKernelMatchesSingleOptionFunctions:
    @given(capital_structures(min_sigma=0.0, with_yield=True), _KERNEL_SIGMAS)
    @example(_cs(100.0), 0.01)
    @example(_cs(100.0), 0.0)
    @example(_cs(62.0, q=0.02), 0.262)
    def test_claims_and_vega_bit_identical(self, cs, sigma):
        # repr is exact for floats and tells -0.0 from 0.0.
        cs = replace(cs, volatility=sigma)
        senior, junior, equity, total, junior_vega = _reference_claims(cs)
        values = value_all_claims(cs)
        assert repr(values) == repr(ClaimValues(senior, junior, equity, total))
        assert repr(junior_debt_value(cs)) == repr(junior)
        if junior_vega is None:
            with pytest.raises(DegenerateVolatilityError):
                junior_debt_vega(cs)
        else:
            assert repr(junior_debt_vega(cs)) == repr(junior_vega)


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
            _senior_value(replace(cs, asset_value=hi)),
            _senior_value(replace(cs, asset_value=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_senior_nonincreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            _senior_value(replace(cs, volatility=lo)),
            _senior_value(replace(cs, volatility=hi)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_equity_nondecreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            _equity_value(replace(cs, volatility=hi)),
            _equity_value(replace(cs, volatility=lo)),
        )


class TestLimits:
    @given(distressed_structures())
    def test_junior_approaches_senior_strike_call_for_huge_junior_face(self, cs):
        huge = replace(cs, junior_face=1e9)
        call = call_price(_option(huge, huge.senior_face))
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
            {"senior_face": 1e308, "junior_face": 1e308},
            {"junior_face": -10.0},
            {"rate": math.nan},
            {"dividend_yield": math.nan},
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

"""Tests for the European option primitives."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from conftest import finite_floats, option_inputs
from subdebt import (
    CapitalStructure,
    DegenerateVolatilityError,
    MCConfig,
    OptionInputs,
    ValidationError,
    call_price,
    norm_cdf,
    norm_pdf,
    put_price,
    simulate_terminal_values,
    vega,
)
from subdebt.black_scholes import d1, d2


def _inputs(v, k, sigma, tau=1.0, r=0.01, q=0.0):
    return OptionInputs(v, k, sigma, tau, r, q)


class TestD1:
    def test_at_the_money_no_carry(self):
        inputs = _inputs(100.0, 100.0, 0.2, tau=1.0, r=0.0)
        assert d1(inputs) == pytest.approx(0.1, abs=1e-15)
        assert d2(inputs) == pytest.approx(-0.1, abs=1e-15)

    def test_matches_direct_arithmetic(self):
        inputs = _inputs(62.0, 60.0, 0.262)
        expected = (math.log(62.0 / 60.0) + 0.01 + 0.262**2 / 2.0) / 0.262
        assert d1(inputs) == pytest.approx(expected, rel=1e-14)
        assert d2(inputs) == pytest.approx(expected - 0.262, rel=1e-14)

    def test_out_of_the_money_is_negative(self):
        assert d1(_inputs(62.0, 70.0, 0.262)) < 0.0

    def test_zero_volatility_refused(self):
        inputs = _inputs(100.0, 90.0, 0.0)
        with pytest.raises(DegenerateVolatilityError):
            d1(inputs)
        with pytest.raises(DegenerateVolatilityError):
            d2(inputs)
        with pytest.raises(DegenerateVolatilityError):
            vega(inputs)

    def test_delta_consistent_with_mc_indicator(self):
        # Pathwise call delta: e^{-r tau} E[1{V_T > K} V_T / V_0] = e^{-q tau} N(d1).
        cs = CapitalStructure(62.0, 60.0, 10.0, 0.262, 1.0, 0.01)
        terminal = simulate_terminal_values(cs, MCConfig(400_000, seed=17))
        samples = math.exp(-0.01) * (terminal > 60.0) * terminal / 62.0
        units = 0.5 * (samples[0::2] + samples[1::2])
        std_error = units.std(ddof=1) / math.sqrt(units.size)
        expected = norm_cdf(d1(_inputs(62.0, 60.0, 0.262)))
        assert abs(units.mean() - expected) <= 3.0 * std_error


class TestPrices:
    def test_call_zero_vol_in_the_money(self):
        assert call_price(_inputs(100.0, 60.0, 0.0)) == pytest.approx(
            100.0 - 60.0 * math.exp(-0.01), rel=1e-15
        )

    def test_call_zero_vol_out_of_the_money(self):
        assert call_price(_inputs(50.0, 60.0, 0.0)) == 0.0

    def test_put_zero_vol_limits(self):
        assert put_price(_inputs(100.0, 60.0, 0.0)) == 0.0
        assert put_price(_inputs(50.0, 60.0, 0.0)) == pytest.approx(
            60.0 * math.exp(-0.01) - 50.0, rel=1e-15
        )

    def test_call_matches_monte_carlo(self):
        cs = CapitalStructure(62.0, 60.0, 10.0, 0.10, 1.0, 0.01)
        terminal = simulate_terminal_values(cs, MCConfig(1_000_000, seed=42))
        payoff = math.exp(-0.01) * np.maximum(terminal - 60.0, 0.0)
        units = 0.5 * (payoff[0::2] + payoff[1::2])
        std_error = units.std(ddof=1) / math.sqrt(units.size)
        closed = call_price(_inputs(62.0, 60.0, 0.10))
        assert abs(units.mean() - closed) <= 3.0 * std_error

    def test_put_matches_monte_carlo(self):
        cs = CapitalStructure(62.0, 60.0, 10.0, 0.262, 1.0, 0.01)
        terminal = simulate_terminal_values(cs, MCConfig(1_000_000, seed=42))
        payoff = math.exp(-0.01) * np.maximum(60.0 - terminal, 0.0)
        units = 0.5 * (payoff[0::2] + payoff[1::2])
        std_error = units.std(ddof=1) / math.sqrt(units.size)
        closed = put_price(_inputs(62.0, 60.0, 0.262))
        assert abs(units.mean() - closed) <= 3.0 * std_error

    @given(option_inputs(min_sigma=0.0, with_yield=True))
    def test_put_call_parity(self, inputs):
        forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
        discounted = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
        assert call_price(inputs) - put_price(inputs) == pytest.approx(
            forward - discounted, abs=1e-12
        )

    @given(option_inputs(min_sigma=0.0), finite_floats(1.0, 500.0))
    def test_call_nonincreasing_in_strike(self, inputs, other_strike):
        lo, hi = sorted((inputs.strike, other_strike))
        low_strike = call_price(replace(inputs, strike=lo))
        high_strike = call_price(replace(inputs, strike=hi))
        # Ulp-scale slack: nearly equal strikes differ only by rounding.
        assert low_strike >= high_strike - 1e-12 * (1.0 + abs(high_strike))

    @given(option_inputs(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_call_nondecreasing_in_volatility(self, inputs, other_sigma):
        lo, hi = sorted((inputs.volatility, other_sigma))
        high_vol = call_price(replace(inputs, volatility=hi))
        low_vol = call_price(replace(inputs, volatility=lo))
        assert high_vol >= low_vol - 1e-12 * (1.0 + abs(low_vol))

    @given(option_inputs(min_sigma=0.0, with_yield=True))
    def test_call_bounds(self, inputs):
        forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
        discounted = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
        price = call_price(inputs)
        assert price >= max(forward - discounted, 0.0) - 1e-12
        assert price <= forward * (1.0 + 1e-14)

    @given(option_inputs(with_yield=True))
    def test_put_bounded_by_discounted_strike(self, inputs):
        discounted = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
        assert 0.0 <= put_price(inputs) <= discounted * (1.0 + 1e-14)


class TestVega:
    def test_value_at_zero_d1(self):
        # V chosen so that d1 = 0, where phi(0) = 1/sqrt(2 pi).
        sigma, tau, r, q = 0.3, 2.0, 0.02, 0.005
        strike = 80.0
        v = strike * math.exp(-(r - q + 0.5 * sigma * sigma) * tau)
        inputs = OptionInputs(v, strike, sigma, tau, r, q)
        expected = v * math.exp(-q * tau) * math.sqrt(tau) / math.sqrt(2.0 * math.pi)
        assert vega(inputs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "inputs",
        [
            _inputs(62.0, 60.0, 0.262),
            _inputs(62.0, 70.0, 0.10),
            _inputs(100.0, 60.0, 0.30, tau=2.0, r=0.02),
            _inputs(80.0, 90.0, 0.45, tau=0.5, r=0.0),
            OptionInputs(55.0, 65.0, 0.25, 1.5, 0.03, 0.02),
        ],
    )
    def test_matches_finite_difference_of_call(self, inputs):
        h = 1e-5
        numeric = (
            call_price(replace(inputs, volatility=inputs.volatility + h))
            - call_price(replace(inputs, volatility=inputs.volatility - h))
        ) / (2.0 * h)
        assert numeric == pytest.approx(vega(inputs), rel=1e-6)

    @given(option_inputs(min_sigma=0.05, max_sigma=1.0, with_yield=True))
    def test_finite_difference_agreement_at_scale(self, inputs):
        h = 1e-5
        numeric = (
            call_price(replace(inputs, volatility=inputs.volatility + h))
            - call_price(replace(inputs, volatility=inputs.volatility - h))
        ) / (2.0 * h)
        analytic = vega(inputs)
        assert abs(numeric - analytic) <= max(1e-6 * analytic, 1e-7 * inputs.asset_value)

    def test_deep_out_of_the_money_vanishes(self):
        assert vega(_inputs(1.0, 1000.0, 0.1)) < 1e-10

    @given(option_inputs(with_yield=True))
    def test_nonnegative(self, inputs):
        assert vega(inputs) >= 0.0

    def test_decays_at_extreme_volatility_and_moneyness(self):
        assert vega(_inputs(100.0, 90.0, 30.0)) < 1e-12
        assert vega(_inputs(100.0, 90.0 * math.exp(40.0), 0.2)) < 1e-12
        assert vega(_inputs(100.0, 90.0 * math.exp(-40.0), 0.2)) < 1e-12


class TestNormal:
    def test_cdf_symmetry_on_grid(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-15

    def test_cdf_against_scipy(self):
        from scipy.special import ndtr

        xs = np.linspace(-8.0, 8.0, 401)
        ours = np.array([norm_cdf(x) for x in xs])
        assert np.max(np.abs(ours - ndtr(xs))) <= 1e-15

    def test_pdf_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"asset_value": 0.0},
            {"asset_value": -1.0},
            {"strike": 0.0},
            {"volatility": -0.1},
            {"maturity": 0.0},
            {"maturity": -1.0},
            {"rate": math.nan},
            {"dividend_yield": -0.01},
            {"asset_value": math.inf},
            {"asset_value": -math.inf},
            {"strike": math.inf},
            {"volatility": math.inf},
            {"maturity": math.inf},
            {"dividend_yield": math.inf},
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        base = dict(
            asset_value=100.0, strike=90.0, volatility=0.2, maturity=1.0, rate=0.01
        )
        base.update(kwargs)
        with pytest.raises(ValidationError):
            OptionInputs(**base)

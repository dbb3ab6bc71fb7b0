"""Tests for the European call, a view of the claims kernel, and the
standard normal CDF."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import finite_floats, option_inputs, single_option, whole_domain_option_inputs
from subdebt import (
    CapitalStructure,
    MCConfig,
    OptionInputs,
    ValidationError,
    call_price,
    mc_claim_values,
    norm_cdf,
)


def _inputs(v, k, sigma, tau=1.0, r=0.01, q=0.0):
    return OptionInputs(v, k, sigma, tau, r, q)


class TestPrices:
    def test_call_zero_vol_in_the_money(self):
        assert call_price(_inputs(100.0, 60.0, 0.0)) == pytest.approx(
            100.0 - 60.0 * math.exp(-0.01), rel=1e-15
        )

    def test_call_zero_vol_out_of_the_money(self):
        assert call_price(_inputs(50.0, 60.0, 0.0)) == 0.0

    def test_call_matches_monte_carlo(self):
        # Equity is the call struck at the total face, 50 + 10 = 60.
        cs = CapitalStructure(62.0, 50.0, 10.0, 0.10, 1.0, 0.01)
        equity = mc_claim_values(cs, MCConfig(1_000_000, seed=42))[2]
        closed = call_price(_inputs(62.0, 60.0, 0.10))
        assert abs(equity.mean - closed) <= 3.0 * equity.std_error

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


class TestOneRoute:
    @given(option_inputs(min_sigma=0.0, with_yield=True))
    def test_call_is_the_textbook_call_bit_for_bit(self, inputs):
        # The kernel prices the call at a total face equal to the strike.
        expected = single_option(inputs, inputs.strike)[0]
        assert call_price(inputs).hex() == expected.hex()

    @settings(derandomize=True, max_examples=300)
    @given(whole_domain_option_inputs())
    @example(_inputs(1.0, 1.0, 0.2, 1000.0, -1.0))  # e^{-r tau} overflows
    @example(_inputs(1e-300, 1e300, 0.2, 1.0, 0.0))  # V / K underflows to 0
    @example(  # d1 = inf / inf: sigma sqrt(tau) and sigma^2 tau both overflow
        _inputs(
            2.3260963367062973e254,
            1.0169860234730986e-101,
            5.308476504290578e245,
            6.53172230457307e272,
            0.0,
            2.239262164254733e71,
        )
    )
    @example(_inputs(1.0, 1.0, 1e200, 1e10, 0.0))  # sigma^2 / 2 * tau overflows
    def test_call_finite_and_nonnegative_or_refused(self, inputs):
        # Aim 3's contract: a finite value, or ValidationError.
        try:
            price = call_price(inputs)
        except ValidationError:
            return
        assert math.isfinite(price) and price >= 0.0

    def test_call_refused_where_sigma_squared_tau_overflows(self):
        # The call tends to V e^{-q tau} = 1 as sigma grows, not to the
        # sigma = 0 limit, 0, that d1 = d2 = +inf would price.
        with pytest.raises(ValidationError, match="overflows"):
            call_price(_inputs(1.0, 1.0, 1e200, 1e10, 0.0))

    def test_call_refused_where_d1_is_nan(self):
        # V / K overflows and q tau does, while K e^{-r tau} is finite (0.0).
        inputs = OptionInputs(
            7.436075013255355e31,
            7.1225e-320,
            5.260106338950775e-86,
            1.633550695842439e222,
            1.170124109879985e16,
            1.491036651246873e295,
        )
        with pytest.raises(ValidationError, match=r"^d1 is undefined: ln\(asset_value / face\)"):
            call_price(inputs)

    def test_strike_too_small_to_split_is_refused(self):
        # No two positive floats sum to the least subnormal.
        with pytest.raises(ValidationError, match="senior_face"):
            _inputs(100.0, 5e-324, 0.2)


class TestNormal:
    def test_cdf_symmetry_on_grid(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-15

    def test_cdf_against_scipy(self):
        from scipy.special import ndtr

        xs = np.linspace(-8.0, 8.0, 401)
        ours = np.array([norm_cdf(x) for x in xs])
        assert np.max(np.abs(ours - ndtr(xs))) <= 1e-15


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

"""European option primitives on a lognormal asset.

All rates and yields are continuously compounded annual rates and all
times are year fractions.  The standard normal CDF and density,
``norm_cdf`` and ``norm_pdf``, live in ``claims`` next to the fused
kernel, and are imported from there.

These single-option functions are the independent reference that the
tests compare the fused claims kernel in ``claims`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .claims import norm_cdf, norm_pdf
from .errors import DegenerateVolatilityError, check


@dataclass(frozen=True)
class OptionInputs:
    """Inputs for a European option on the firm's assets.

    Attributes:
        asset_value: Current asset value, currency units (> 0).
        strike: Strike price, currency units (> 0).
        volatility: Annualized volatility, per sqrt(year) (>= 0).
        maturity: Time to maturity in years (> 0).
        rate: Continuously compounded annual risk-free rate.
        dividend_yield: Continuously compounded annual payout yield (>= 0).

    Every field must be finite.
    """

    asset_value: float
    strike: float
    volatility: float
    maturity: float
    rate: float
    dividend_yield: float = 0.0

    def __post_init__(self) -> None:
        check("asset_value", self.asset_value, "finite and > 0")
        check("strike", self.strike, "finite and > 0")
        check("volatility", self.volatility, "finite and >= 0")
        check("maturity", self.maturity, "finite and > 0")
        check("rate", self.rate, "finite")
        check("dividend_yield", self.dividend_yield, "finite and >= 0")


def _sigma_sqrt_t(inputs: OptionInputs) -> float:
    """sigma sqrt(tau); exactly 0.0 marks the deterministic degenerate case
    (sigma = 0, or small enough that the product underflows)."""
    return inputs.volatility * math.sqrt(inputs.maturity)


def d1(inputs: OptionInputs) -> float:
    """d1 = [ln(V/K) + (r - q + sigma^2/2) tau] / (sigma sqrt(tau)).

    Raises:
        DegenerateVolatilityError: If volatility is zero (or so small
            that sigma sqrt(tau) underflows).  Pricing operations handle
            that case via the deterministic forward limit; d1 itself is
            undefined there.
    """
    sigma_sqrt_t = _sigma_sqrt_t(inputs)
    if sigma_sqrt_t == 0.0:
        raise DegenerateVolatilityError("d1 is undefined at sigma = 0")
    drift = (
        inputs.rate - inputs.dividend_yield + 0.5 * inputs.volatility * inputs.volatility
    ) * inputs.maturity
    return (math.log(inputs.asset_value / inputs.strike) + drift) / sigma_sqrt_t


def d2(inputs: OptionInputs) -> float:
    """d2 = d1 - sigma sqrt(tau)."""
    return d1(inputs) - inputs.volatility * math.sqrt(inputs.maturity)


def call_price(inputs: OptionInputs) -> float:
    """European call value, V e^{-q tau} N(d1) - K e^{-r tau} N(d2).

    At sigma = 0 returns the deterministic forward limit
    max(V e^{-q tau} - K e^{-r tau}, 0).
    """
    forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
    discounted_strike = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
    sigma_sqrt_t = _sigma_sqrt_t(inputs)
    if sigma_sqrt_t == 0.0:
        return max(forward - discounted_strike, 0.0)
    x1 = d1(inputs)
    x2 = x1 - sigma_sqrt_t
    value = forward * norm_cdf(x1) - discounted_strike * norm_cdf(x2)
    return max(value, 0.0)


def put_price(inputs: OptionInputs) -> float:
    """European put value, K e^{-r tau} N(-d2) - V e^{-q tau} N(-d1).

    Satisfies put-call parity against ``call_price``:
    call - put = V e^{-q tau} - K e^{-r tau}.  At sigma = 0 returns
    max(K e^{-r tau} - V e^{-q tau}, 0).
    """
    forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
    discounted_strike = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
    sigma_sqrt_t = _sigma_sqrt_t(inputs)
    if sigma_sqrt_t == 0.0:
        return max(discounted_strike - forward, 0.0)
    x1 = d1(inputs)
    x2 = x1 - sigma_sqrt_t
    value = discounted_strike * norm_cdf(-x2) - forward * norm_cdf(-x1)
    return max(value, 0.0)


def vega(inputs: OptionInputs) -> float:
    """dCall/dsigma = V e^{-q tau} sqrt(tau) phi(d1); always >= 0.

    Raises:
        DegenerateVolatilityError: If volatility is zero (or so small
            that sigma sqrt(tau) underflows).
    """
    if _sigma_sqrt_t(inputs) == 0.0:
        raise DegenerateVolatilityError("vega is undefined at sigma = 0")
    forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
    return forward * math.sqrt(inputs.maturity) * norm_pdf(d1(inputs))

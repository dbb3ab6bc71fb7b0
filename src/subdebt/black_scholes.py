"""One European call on a lognormal asset.

All rates and yields are continuously compounded annual rates and all
times are year fractions.  The standard normal CDF, ``norm_cdf``, lives
in ``claims`` next to the fused kernel, and is imported from there.

No command calls this module: every claim value and the junior vega
come from the kernel in ``claims``.  ``OptionInputs`` and ``call_price``
remain public because the benchmark's traced run times them as its
single-option layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .claims import norm_cdf
from .errors import check


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


def call_price(inputs: OptionInputs) -> float:
    """European call value, V e^{-q tau} N(d1) - K e^{-r tau} N(d2), with
    d1 = [ln(V/K) + (r - q + sigma^2/2) tau] / (sigma sqrt(tau)) and
    d2 = d1 - sigma sqrt(tau).

    At sigma = 0, or where sigma sqrt(tau) underflows to 0, returns the
    deterministic forward limit max(V e^{-q tau} - K e^{-r tau}, 0).
    """
    forward = inputs.asset_value * math.exp(-inputs.dividend_yield * inputs.maturity)
    discounted_strike = inputs.strike * math.exp(-inputs.rate * inputs.maturity)
    sigma_sqrt_t = inputs.volatility * math.sqrt(inputs.maturity)
    if sigma_sqrt_t == 0.0:
        return max(forward - discounted_strike, 0.0)
    drift = (
        inputs.rate - inputs.dividend_yield + 0.5 * inputs.volatility * inputs.volatility
    ) * inputs.maturity
    x1 = (math.log(inputs.asset_value / inputs.strike) + drift) / sigma_sqrt_t
    x2 = x1 - sigma_sqrt_t
    value = forward * norm_cdf(x1) - discounted_strike * norm_cdf(x2)
    return max(value, 0.0)

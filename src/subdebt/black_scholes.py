"""One European call on a lognormal asset, as a view of the claims kernel.

A call struck at K is the equity of a firm whose debt totals K (Black and
Cox, 1976), so ``call_price`` is the equity ``claims._claims`` prices for
a ``CapitalStructure`` with faces K - ulp(K) and ulp(K), which sum to K
exactly; this module has no arithmetic of its own.  That structure checks
every field but the strike, so an error names its quantities, and its
total face is the strike.  The strike 5e-324 is refused as a senior face.

No command calls this module; the benchmark's traced run times it as its
single-option layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .claims import CapitalStructure, _claims
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
        check("strike", self.strike, "finite and > 0")
        _structure(self)


def call_price(inputs: OptionInputs) -> float:
    """European call value, V e^{-q tau} N(d1) - K e^{-r tau} N(d2), or
    max(V e^{-q tau} - K e^{-r tau}, 0) where sigma sqrt(tau) is 0.

    Raises:
        ValidationError: Where ``claims._claims`` refuses the structure.
    """
    return _claims(_structure(inputs), inputs.volatility)[2]


def _structure(inputs: OptionInputs) -> CapitalStructure:
    """The firm whose equity is the call: faces K - ulp(K) and ulp(K)."""
    unit = math.ulp(inputs.strike)
    return CapitalStructure(
        inputs.asset_value,
        inputs.strike - unit,
        unit,
        inputs.volatility,
        inputs.maturity,
        inputs.rate,
        inputs.dividend_yield,
    )

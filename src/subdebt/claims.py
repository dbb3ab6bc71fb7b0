"""Claim valuation for a firm funded by senior debt, junior debt, and equity.

Both debt tranches are zero-coupon claims maturing on the same date, with
absolute priority: the senior tranche is repaid first, the junior tranche
is repaid from whatever is left, and equity takes the residual.  Prior to
maturity each claim is a portfolio of European options on the firm's
assets:

* senior debt  = riskless bond at the senior face minus a put struck there,
* junior debt  = bull call spread between the senior face and the total face,
* equity       = call struck at the total face.

With a payout yield q the three values sum to V e^{-q tau}; at q = 0 they
sum to the asset value itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .black_scholes import OptionInputs, call_price, put_price
from .errors import ValidationError


@dataclass(frozen=True)
class CapitalStructure:
    """Firm state: asset value, the two debt faces, and market parameters.

    Attributes:
        asset_value: Current asset value (> 0), currency units.
        senior_face: Face value of the senior tranche (> 0).
        junior_face: Face value of the junior tranche (> 0).
        volatility: Annualized asset volatility (>= 0).
        maturity: Time to debt maturity in years (> 0).
        rate: Continuously compounded annual risk-free rate.
        dividend_yield: Continuously compounded annual payout yield (>= 0).

    Every field must be finite.
    """

    asset_value: float
    senior_face: float
    junior_face: float
    volatility: float
    maturity: float
    rate: float
    dividend_yield: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.asset_value < math.inf:
            raise ValidationError(
                f"asset_value must be finite and > 0, got {self.asset_value}"
            )
        if not 0.0 < self.senior_face < math.inf:
            raise ValidationError(
                f"senior_face must be finite and > 0, got {self.senior_face}"
            )
        if not 0.0 < self.junior_face < math.inf:
            raise ValidationError(
                f"junior_face must be finite and > 0, got {self.junior_face}"
            )
        if not 0.0 <= self.volatility < math.inf:
            raise ValidationError(
                f"volatility must be finite and >= 0, got {self.volatility}"
            )
        if not 0.0 < self.maturity < math.inf:
            raise ValidationError(
                f"maturity must be finite and > 0, got {self.maturity}"
            )
        if not math.isfinite(self.rate):
            raise ValidationError(f"rate must be finite, got {self.rate}")
        if not 0.0 <= self.dividend_yield < math.inf:
            raise ValidationError(
                f"dividend_yield must be finite and >= 0, got {self.dividend_yield}"
            )

    @property
    def total_face(self) -> float:
        return self.senior_face + self.junior_face

    def option_inputs(self, strike: float) -> OptionInputs:
        """Option inputs on the firm's assets at the given strike."""
        return OptionInputs(
            asset_value=self.asset_value,
            strike=strike,
            volatility=self.volatility,
            maturity=self.maturity,
            rate=self.rate,
            dividend_yield=self.dividend_yield,
        )


@dataclass(frozen=True)
class ClaimValues:
    """Present values of the three claims and their sum."""

    senior_value: float
    junior_value: float
    equity_value: float
    total: float


@dataclass(frozen=True)
class MaturityPayoffs:
    """Payoffs of the three claims at debt maturity."""

    senior_payoff: float
    junior_payoff: float
    equity_payoff: float


def payoffs_at_maturity(
    terminal_value: float, senior_face: float, junior_face: float
) -> MaturityPayoffs:
    """Split a terminal asset value across the three claims.

    senior = min(V_T, F_S); junior = clamp(V_T - F_S, 0, F_J);
    equity = max(V_T - F_S - F_J, 0).  The single-branch clamp form of
    the junior payoff equals both rearrangements
    max(min(V_T - F_S, F_J), 0) and
    max(V_T - F_S, 0) - max(V_T - F_S - F_J, 0).
    """
    if not terminal_value >= 0.0:
        raise ValidationError(f"terminal_value must be >= 0, got {terminal_value}")
    if not senior_face > 0.0:
        raise ValidationError(f"senior_face must be > 0, got {senior_face}")
    if not junior_face > 0.0:
        raise ValidationError(f"junior_face must be > 0, got {junior_face}")
    senior = min(terminal_value, senior_face)
    junior = min(max(terminal_value - senior_face, 0.0), junior_face)
    equity = max(terminal_value - senior_face - junior_face, 0.0)
    return MaturityPayoffs(senior, junior, equity)


def senior_debt_value(cs: CapitalStructure) -> float:
    """Senior bond value: F_S e^{-r tau} minus a put struck at F_S.

    Bounded in [0, F_S e^{-r tau}].
    """
    discounted_face = cs.senior_face * math.exp(-cs.rate * cs.maturity)
    return discounted_face - put_price(cs.option_inputs(cs.senior_face))


def junior_debt_value(cs: CapitalStructure) -> float:
    """Junior bond value: call at F_S minus call at F_S + F_J.

    A bull call spread, bounded in [0, F_J e^{-r tau}]; equals the
    discounted expected junior payoff under the risk-neutral measure.
    """
    return call_price(cs.option_inputs(cs.senior_face)) - call_price(
        cs.option_inputs(cs.total_face)
    )


def equity_value(cs: CapitalStructure) -> float:
    """Equity value: a call struck at the total face F_S + F_J."""
    return call_price(cs.option_inputs(cs.total_face))


def value_all_claims(cs: CapitalStructure) -> ClaimValues:
    """Value all three claims and their sum."""
    senior = senior_debt_value(cs)
    junior = junior_debt_value(cs)
    equity = equity_value(cs)
    return ClaimValues(senior, junior, equity, senior + junior + equity)

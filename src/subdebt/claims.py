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

Every claim value and the junior vega come from one kernel, ``_claims``,
which prices both strikes together: each discount factor once, and d1
and d2 once per strike.  Its arithmetic is that of the single-option
functions in ``black_scholes``, operation for operation, so the results
are bit-identical to composing them.

The standard normal CDF and density live here, next to the kernel, and
``black_scholes`` imports them.  The CDF is computed as
N(x) = erfc(-x / sqrt(2)) / 2 with the C library's double-precision
complementary error function (``math.erfc``), which keeps the absolute
error below 1e-15 over the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check, checked_exp

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard normal CDF, N(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density, phi(x) = exp(-x^2 / 2) / sqrt(2 pi)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


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

    Every field, and the total face, must be finite.
    """

    asset_value: float
    senior_face: float
    junior_face: float
    volatility: float
    maturity: float
    rate: float
    dividend_yield: float = 0.0

    def __post_init__(self) -> None:
        check("asset_value", self.asset_value, "finite and > 0")
        check("senior_face", self.senior_face, "finite and > 0")
        check("junior_face", self.junior_face, "finite and > 0")
        check("volatility", self.volatility, "finite and >= 0")
        check("maturity", self.maturity, "finite and > 0")
        check("rate", self.rate, "finite")
        check("dividend_yield", self.dividend_yield, "finite and >= 0")
        check("total_face", self.total_face, "finite")

    @property
    def total_face(self) -> float:
        return self.senior_face + self.junior_face


@dataclass(frozen=True)
class ClaimValues:
    """Present values of the three claims and their sum."""

    senior_value: float
    junior_value: float
    equity_value: float
    total: float


def junior_debt_value(cs: CapitalStructure) -> float:
    """Junior bond value: call at F_S minus call at F_S + F_J.

    A bull call spread, bounded in [0, F_J e^{-r tau}]; equals the
    discounted expected junior payoff under the risk-neutral measure.
    """
    return _claims(cs, cs.volatility)[1]


def value_all_claims(cs: CapitalStructure) -> ClaimValues:
    """Value all three claims and their sum.

    Senior debt is F_S e^{-r tau} minus a put struck at F_S, bounded in
    [0, F_S e^{-r tau}]; equity is a call struck at F_S + F_J.
    """
    senior, junior, equity, _ = _claims(cs, cs.volatility)
    return ClaimValues(senior, junior, equity, senior + junior + equity)


def _claims(
    cs: CapitalStructure, sigma: float
) -> tuple[float, float, float, float | None]:
    """(senior, junior, equity, junior vega) of ``cs`` at volatility ``sigma``.

    Suffix _s marks a quantity at the senior face F_S, _t one at the total
    face F_S + F_J; pv is a face discounted at the risk-free rate.  The
    vega is None where sigma sqrt(tau) is exactly 0.0 (sigma = 0, or small
    enough that the product underflows); the claims then take the
    deterministic forward limits.

    Raises:
        ValidationError: If the discount factor e^{-r tau} overflows, if a
            claim is undefined because the discounted total face does, or if
            V / (F_S + F_J) underflows to 0.
    """
    tau, rate, dividend_yield = cs.maturity, cs.rate, cs.dividend_yield
    forward = cs.asset_value * math.exp(-dividend_yield * tau)
    discount = checked_exp(-rate * tau, "discount factor")
    pv_s = cs.senior_face * discount
    pv_t = cs.total_face * discount
    sqrt_t = math.sqrt(tau)
    sigma_sqrt_t = sigma * sqrt_t
    if sigma_sqrt_t == 0.0:
        put_s = max(pv_s - forward, 0.0)
        call_s = max(forward - pv_s, 0.0)
        call_t = max(forward - pv_t, 0.0)
        vega = None
    else:
        drift = (rate - dividend_yield + 0.5 * sigma * sigma) * tau
        try:
            d1_s = (math.log(cs.asset_value / cs.senior_face) + drift) / sigma_sqrt_t
            d1_t = (math.log(cs.asset_value / cs.total_face) + drift) / sigma_sqrt_t
        except ValueError:  # log(0); V / (F_S + F_J) <= V / F_S underflowed
            raise ValidationError(
                f"asset_value / total_face = {cs.asset_value} / {cs.total_face} "
                "underflows to 0"
            ) from None
        d2_s = d1_s - sigma_sqrt_t
        d2_t = d1_t - sigma_sqrt_t
        put_s = max(pv_s * norm_cdf(-d2_s) - forward * norm_cdf(-d1_s), 0.0)
        call_s = max(forward * norm_cdf(d1_s) - pv_s * norm_cdf(d2_s), 0.0)
        call_t = max(forward * norm_cdf(d1_t) - pv_t * norm_cdf(d2_t), 0.0)
        # Two call vegas, V e^{-q tau} sqrt(tau) phi(d1) each, subtracted
        # unfactored: factoring out V e^{-q tau} sqrt(tau) rounds differently.
        vega = forward * sqrt_t * norm_pdf(d1_s) - forward * sqrt_t * norm_pdf(d1_t)
    senior = pv_s - put_s
    # A claim is NaN only where the discounted total face overflowed.
    if senior != senior or call_t != call_t:
        raise ValidationError(
            f"discounted total face {cs.total_face} * {discount} overflows"
        )
    return senior, call_s - call_t, call_t, vega

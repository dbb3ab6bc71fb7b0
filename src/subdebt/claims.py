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
and d2 once per strike.  Its arithmetic is that of a single-option
Black-Scholes call, put and vega, operation for operation, so the
results are bit-identical to composing them; the tests keep such a
reference of their own and compare the kernel against it.

A structure is priced at most once at its own volatility.  The first of
``value_all_claims``, ``junior_debt_value`` and ``junior_debt_vega`` on
a structure stores the kernel's tuple in the structure's one private
slot, and later calls read it back.  The structure is immutable, so the
stored tuple is what the kernel would compute again.  A kernel call that
raises stores nothing, so it raises again on the next call.  The slot is
not a field: equality, hash, repr, pickling and copying never see it.
Prices at a sigma other than the structure's own come from ``_claims``
directly, as the sweeps and the sigma-search oracles take them.

The standard normal CDF lives here, next to the kernel, and
``black_scholes`` imports it.  It is computed as
N(x) = erfc(-x / sqrt(2)) / 2 with the C library's double-precision
complementary error function (``math.erfc``), which keeps the absolute
error below 1e-15 over the whole real line.  The kernel evaluates N
inline, with the expression of ``norm_cdf``, and the density as
phi(x) = exp(-x^2 / 2) / sqrt(2 pi), to save a Python call per
evaluation.
"""

from __future__ import annotations

import math

from .errors import DegenerateVolatilityError, ValidationError, _domain_error, checked_exp
from .record import Record, slot_setters

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INF = math.inf


def norm_cdf(x: float) -> float:
    """Standard normal CDF, N(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(-x / _SQRT2)


class _Priced(Record):
    """A record with one slot that is not a field.

    ``_priced`` holds ``_claims`` of the structure at its own volatility,
    or None until ``_own_claims`` first fills it.  A subclass names its
    fields in its own ``__slots__``, which ``Record`` reads.
    """

    __slots__ = ("_priced",)


(_set_priced,) = slot_setters(_Priced)


class CapitalStructure(_Priced):
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

    __slots__ = (
        "asset_value",
        "senior_face",
        "junior_face",
        "volatility",
        "maturity",
        "rate",
        "dividend_yield",
    )

    def __init__(
        self,
        asset_value: float,
        senior_face: float,
        junior_face: float,
        volatility: float,
        maturity: float,
        rate: float,
        dividend_yield: float = 0.0,
    ) -> None:
        # The domains of errors.check, compared inline; NaN fails each one.
        if not 0.0 < asset_value < _INF:
            raise _domain_error("asset_value", asset_value, "finite and > 0")
        if not 0.0 < senior_face < _INF:
            raise _domain_error("senior_face", senior_face, "finite and > 0")
        if not 0.0 < junior_face < _INF:
            raise _domain_error("junior_face", junior_face, "finite and > 0")
        if not 0.0 <= volatility < _INF:
            raise _domain_error("volatility", volatility, "finite and >= 0")
        if not 0.0 < maturity < _INF:
            raise _domain_error("maturity", maturity, "finite and > 0")
        if not math.isfinite(rate):
            raise _domain_error("rate", rate, "finite")
        if not 0.0 <= dividend_yield < _INF:
            raise _domain_error("dividend_yield", dividend_yield, "finite and >= 0")
        if not math.isfinite(senior_face + junior_face):
            raise _domain_error("total_face", senior_face + junior_face, "finite")
        _set_asset_value(self, asset_value)
        _set_senior_face(self, senior_face)
        _set_junior_face(self, junior_face)
        _set_volatility(self, volatility)
        _set_maturity(self, maturity)
        _set_rate(self, rate)
        _set_dividend_yield(self, dividend_yield)
        _set_priced(self, None)

    @property
    def total_face(self) -> float:
        return self.senior_face + self.junior_face


(
    _set_asset_value,
    _set_senior_face,
    _set_junior_face,
    _set_volatility,
    _set_maturity,
    _set_rate,
    _set_dividend_yield,
) = slot_setters(CapitalStructure)


class ClaimValues(Record):
    """Present values of the three claims and their sum."""

    __slots__ = ("senior_value", "junior_value", "equity_value", "total")

    def __init__(
        self, senior_value: float, junior_value: float, equity_value: float, total: float
    ) -> None:
        _set_senior_value(self, senior_value)
        _set_junior_value(self, junior_value)
        _set_equity_value(self, equity_value)
        _set_total(self, total)


_set_senior_value, _set_junior_value, _set_equity_value, _set_total = slot_setters(ClaimValues)


def junior_debt_value(cs: CapitalStructure) -> float:
    """Junior bond value: call at F_S minus call at F_S + F_J.

    A bull call spread, bounded in [0, F_J e^{-r tau}]; equals the
    discounted expected junior payoff under the risk-neutral measure.
    """
    return _own_claims(cs)[1]


def value_all_claims(cs: CapitalStructure) -> ClaimValues:
    """Value all three claims and their sum.

    Senior debt is F_S e^{-r tau} minus a put struck at F_S, bounded in
    [0, F_S e^{-r tau}]; equity is a call struck at F_S + F_J.
    """
    senior, junior, equity, _ = _own_claims(cs)
    return ClaimValues(senior, junior, equity, senior + junior + equity)


def junior_debt_vega(cs: CapitalStructure) -> float:
    """d(junior value)/d(sigma): call vega at F_S minus call vega at F_S + F_J.

    Positive below ``risk.risk_shift_threshold`` at the structure's volatility,
    negative above it, and zero at the interior maximizer.

    Raises:
        DegenerateVolatilityError: If sigma sqrt(tau) is 0 (sigma = 0 or underflow).
    """
    vega = _own_claims(cs)[3]
    if vega is None:
        raise DegenerateVolatilityError("vega is undefined where sigma sqrt(tau) is 0")
    return vega


def _own_claims(cs: CapitalStructure) -> tuple[float, float, float, float | None]:
    """``_claims(cs, cs.volatility)``, run on the first call for ``cs`` only.

    Threads that race on one structure each store an equal tuple.
    """
    priced = cs._priced
    if priced is None:
        priced = _claims(cs, cs.volatility)
        _set_priced(cs, priced)
    return priced


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
        ValidationError: If the discount factor e^{-r tau} overflows, if
            sigma^2 / 2 * tau does in float arithmetic, if a claim is
            undefined because the discounted total face overflows, or if
            V / (F_S + F_J) underflows to 0.
    """
    erfc, exp = math.erfc, math.exp
    tau, rate, dividend_yield = cs.maturity, cs.rate, cs.dividend_yield
    forward = cs.asset_value * exp(-dividend_yield * tau)
    discount = checked_exp(-rate * tau, "discount factor")
    pv_s = cs.senior_face * discount
    total_face = cs.senior_face + cs.junior_face  # cs.total_face, without the property call
    pv_t = total_face * discount
    sqrt_t = math.sqrt(tau)
    sigma_sqrt_t = sigma * sqrt_t
    # ``0.0 if x < 0.0 else x`` is max(x, 0.0) without the call: it keeps
    # NaN and -0.0 as max does.
    if sigma_sqrt_t == 0.0:
        put_s = pv_s - forward
        put_s = 0.0 if put_s < 0.0 else put_s
        call_s = forward - pv_s
        call_s = 0.0 if call_s < 0.0 else call_s
        call_t = forward - pv_t
        call_t = 0.0 if call_t < 0.0 else call_t
        vega = None
    else:
        half_variance = 0.5 * sigma * sigma
        if half_variance * tau == _INF:
            # d1 and d2 would both be +inf, which prices the sigma = 0 limit.
            raise ValidationError(
                f"sigma^2 / 2 * tau overflows in float arithmetic at volatility {sigma} "
                f"and maturity {tau}"
            )
        drift = (rate - dividend_yield + half_variance) * tau
        try:
            d1_s = (math.log(cs.asset_value / cs.senior_face) + drift) / sigma_sqrt_t
            d1_t = (math.log(cs.asset_value / total_face) + drift) / sigma_sqrt_t
        except ValueError:  # log(0); V / (F_S + F_J) <= V / F_S underflowed
            raise ValidationError(
                f"asset_value / total_face = {cs.asset_value} / {total_face} "
                "underflows to 0"
            ) from None
        d2_s = d1_s - sigma_sqrt_t
        d2_t = d1_t - sigma_sqrt_t
        # N(x) as norm_cdf computes it, and phi(x) = exp(-x^2 / 2) / sqrt(2 pi).
        # N(-x) = erfc(x / sqrt(2)) / 2, since -(-x) / c == x / c exactly.
        put_s = pv_s * (0.5 * erfc(d2_s / _SQRT2)) - forward * (0.5 * erfc(d1_s / _SQRT2))
        put_s = 0.0 if put_s < 0.0 else put_s
        call_s = forward * (0.5 * erfc(-d1_s / _SQRT2)) - pv_s * (0.5 * erfc(-d2_s / _SQRT2))
        call_s = 0.0 if call_s < 0.0 else call_s
        call_t = forward * (0.5 * erfc(-d1_t / _SQRT2)) - pv_t * (0.5 * erfc(-d2_t / _SQRT2))
        call_t = 0.0 if call_t < 0.0 else call_t
        # Two call vegas, V e^{-q tau} sqrt(tau) phi(d1) each, subtracted
        # unfactored: factoring out V e^{-q tau} sqrt(tau) rounds differently.
        phi_s = _INV_SQRT_2PI * exp(-0.5 * d1_s * d1_s)
        phi_t = _INV_SQRT_2PI * exp(-0.5 * d1_t * d1_t)
        vega = forward * sqrt_t * phi_s - forward * sqrt_t * phi_t
    senior = pv_s - put_s
    # A claim is NaN only where the discounted total face overflowed.
    if senior != senior or call_t != call_t:
        raise ValidationError(
            f"discounted total face {total_face} * {discount} overflows"
        )
    # Where both calls are subnormal, rounding can put call_s below call_t: at
    # V = 1, F_S = 72.5, F_J = 1, sigma = 0.5, tau = 0.05 the spread is -3e-323.
    junior = call_s - call_t
    junior = 0.0 if junior < 0.0 else junior
    return senior, junior, call_t, vega

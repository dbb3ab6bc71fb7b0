"""Junior-debt risk sensitivity, risk-shifting thresholds, and regimes.

The junior bond is a bull call spread, so its sensitivity to asset
volatility is the difference of two call vegas.  That derivative is
positive exactly when the asset value sits below a threshold equal to the
discounted geometric mean of the senior face and the total face
(``risk_shift_threshold``).  Below a second, sigma-free boundary
(``hump_threshold``) the junior value is hump-shaped in volatility, with
the interior maximizer available in closed form (``optimal_volatility``):

    sigma* = sqrt( ln(F_S (F_S + F_J) / V^2) / tau - 2 r + 2 q )

Above the boundary the value is decreasing in volatility and no interior
maximizer exists.  Every function takes a validated ``CapitalStructure``;
only a separately passed volatility is checked here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .claims import CapitalStructure, _claims
from .errors import DegenerateVolatilityError, ValidationError, check, checked_exp

# Radicands this close to zero are treated as the boundary case where the
# interior maximizer degenerates to sigma = 0.
_RADICAND_TOL = 1e-12


class Regime(enum.Enum):
    """Shape of the junior-bond value as a function of asset volatility."""

    DECREASING_IN_RISK = "decreasing-in-risk"
    HUMP_SHAPED = "hump-shaped"


@dataclass(frozen=True)
class RiskProfile:
    """Risk-shifting diagnostics for one capital structure.

    ``shift_threshold`` is evaluated at ``initial_sigma``.  The regime is
    HUMP_SHAPED exactly when ``optimal_volatility`` is present.
    ``chosen_risk`` is the value of the function of that name.
    """

    optimal_volatility: float | None
    shift_threshold: float
    hump_threshold: float
    regime: Regime
    shifts_above_initial: bool
    initial_sigma: float
    chosen_risk: float


def junior_debt_vega(cs: CapitalStructure) -> float:
    """d(junior value)/d(sigma): call vega at F_S minus call vega at F_S + F_J.

    Positive below ``risk_shift_threshold`` at the structure's volatility,
    negative above it, and zero at the interior maximizer.

    Raises:
        DegenerateVolatilityError: If sigma sqrt(tau) is 0 (sigma = 0 or underflow).
    """
    vega = _claims(cs, cs.volatility)[3]
    if vega is None:
        raise DegenerateVolatilityError("vega is undefined where sigma sqrt(tau) is 0")
    return vega


def risk_shift_threshold(cs: CapitalStructure, sigma: float) -> float:
    """Asset value below which junior-bond value rises with volatility.

    e^{-(r - q + sigma^2/2) tau} sqrt(F_S (F_S + F_J)): the discounted
    geometric mean of the senior and total face values.  The junior vega
    at volatility ``sigma`` changes sign from positive to negative as the
    asset value crosses this threshold.  The structure's asset value and
    volatility are ignored.  Raises ValidationError where the threshold
    overflows.
    """
    check("sigma", sigma, "finite and >= 0")
    return _threshold(cs, sigma)


def hump_threshold(cs: CapitalStructure) -> float:
    """Asset value below which an interior junior-value maximizer exists.

    e^{-(r - q) tau} sqrt(F_S (F_S + F_J)).  Equals
    ``risk_shift_threshold`` evaluated at sigma = 0 and strictly exceeds
    it for any sigma > 0.  The structure's asset value and volatility
    are ignored.
    """
    return _threshold(cs, 0.0)


def _threshold(cs: CapitalStructure, sigma: float) -> float:
    """``risk_shift_threshold`` for a validated ``sigma``."""
    exponent = (cs.rate - cs.dividend_yield + 0.5 * sigma * sigma) * cs.maturity
    growth = checked_exp(-exponent, "threshold discount factor")
    threshold = growth * math.sqrt(cs.senior_face * cs.total_face)
    if not threshold < math.inf:  # also 0 * inf = NaN where growth underflows
        raise ValidationError(
            f"threshold {growth} * sqrt({cs.senior_face} * {cs.total_face}) overflows"
        )
    return threshold


def optimal_volatility(cs: CapitalStructure) -> float | None:
    """Volatility at which the junior-bond value peaks, when one exists.

    sqrt( ln(F_S (F_S + F_J) / V^2) / tau - 2 r + 2 q ) for asset values
    below ``hump_threshold``; None above it, where the junior value is
    decreasing in volatility.  Radicands within 1e-12 of zero map to the
    boundary value 0.0 rather than to a rounding-noise root.  The
    structure's own volatility field is ignored.  Raises ValidationError
    where the radicand leaves the float range.
    """
    return _optimal_volatility(cs, cs.asset_value)


def _optimal_volatility(cs: CapitalStructure, asset_value: float) -> float | None:
    """``optimal_volatility`` of ``cs`` with its asset value replaced."""
    try:
        radicand = (
            math.log(cs.senior_face * cs.total_face / (asset_value * asset_value))
            / cs.maturity
            - 2.0 * cs.rate
            + 2.0 * cs.dividend_yield
        )
    except (ValueError, ZeroDivisionError):  # V^2 or the ratio underflowed to 0
        radicand = math.inf
    if radicand > _RADICAND_TOL:
        if radicand == math.inf:
            raise ValidationError(
                f"sigma*^2 = ln(F_S (F_S + F_J) / V^2) / tau - 2 r + 2 q at "
                f"V = {asset_value} leaves the float range"
            )
        return math.sqrt(radicand)
    if radicand >= -_RADICAND_TOL:
        return 0.0
    return None


def classify_regime(cs: CapitalStructure, initial_sigma: float) -> RiskProfile:
    """Classify how the junior-bond value responds to asset volatility.

    The regime is HUMP_SHAPED exactly when an interior maximizer exists,
    DECREASING_IN_RISK otherwise.  ``shifts_above_initial`` records
    whether that maximizer lies above ``initial_sigma``, which holds if
    and only if the asset value is below ``risk_shift_threshold``
    evaluated at ``initial_sigma``.
    """
    check("initial_sigma", initial_sigma, "finite and > 0")
    best = optimal_volatility(cs)
    shift_at_initial = _threshold(cs, initial_sigma)
    regime = Regime.DECREASING_IN_RISK if best is None else Regime.HUMP_SHAPED
    shifts_up = cs.asset_value < shift_at_initial
    return RiskProfile(
        optimal_volatility=best,
        shift_threshold=shift_at_initial,
        hump_threshold=hump_threshold(cs),
        regime=regime,
        shifts_above_initial=shifts_up,
        initial_sigma=initial_sigma,
        chosen_risk=_chosen_risk(best, shifts_up, initial_sigma),
    )


def chosen_risk(cs: CapitalStructure, initial_sigma: float) -> float:
    """Volatility chosen by a junior creditor who controls risk.

    The junior-value maximizer when shifting upward pays (asset value
    below the shift threshold), otherwise the initial volatility: risk
    shifting is limited to the level that maximizes the junior bond.
    """
    return classify_regime(cs, initial_sigma).chosen_risk


def _chosen_risk(best: float | None, shifts_up: bool, initial_sigma: float) -> float:
    return best if shifts_up and best is not None else initial_sigma


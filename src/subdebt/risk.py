"""Risk-shifting thresholds, the junior-value maximizer, and regimes.

The junior bond is a bull call spread, so its vega
(``claims.junior_debt_vega``) is the difference of two call vegas, and
is positive exactly when the asset value sits below a threshold equal to
the discounted geometric mean of the senior face and the total face
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

from .claims import CapitalStructure
from .errors import ValidationError, _domain_error, check
from .record import Record, set_field

# Radicands this close to zero are treated as the boundary case where the
# interior maximizer degenerates to sigma = 0.
_RADICAND_TOL = 1e-12
# sys.float_info.min, the least normal float: below it a product or ratio
# is subnormal or 0 and has lost digits.
_NORMAL_MIN = 2.2250738585072014e-308
_INF = math.inf


class Regime(enum.Enum):
    """Shape of the junior-bond value as a function of asset volatility."""

    DECREASING_IN_RISK = "decreasing-in-risk"
    HUMP_SHAPED = "hump-shaped"


# Members bound once: attribute access on an Enum class is a descriptor call.
_DECREASING, _HUMP = Regime.DECREASING_IN_RISK, Regime.HUMP_SHAPED


class RiskProfile(Record):
    """Risk-shifting diagnostics for one capital structure.

    ``shift_threshold`` is evaluated at ``initial_sigma``.  The regime is
    HUMP_SHAPED exactly when ``optimal_volatility`` is present.
    ``chosen_risk`` is the value of the function of that name.
    """

    __slots__ = (
        "optimal_volatility",
        "shift_threshold",
        "hump_threshold",
        "regime",
        "shifts_above_initial",
        "initial_sigma",
        "chosen_risk",
    )

    def __init__(
        self,
        optimal_volatility: float | None,
        shift_threshold: float,
        hump_threshold: float,
        regime: Regime,
        shifts_above_initial: bool,
        initial_sigma: float,
        chosen_risk: float,
    ) -> None:
        set_field(self, "optimal_volatility", optimal_volatility)
        set_field(self, "shift_threshold", shift_threshold)
        set_field(self, "hump_threshold", hump_threshold)
        set_field(self, "regime", regime)
        set_field(self, "shifts_above_initial", shifts_above_initial)
        set_field(self, "initial_sigma", initial_sigma)
        set_field(self, "chosen_risk", chosen_risk)


def risk_shift_threshold(cs: CapitalStructure, sigma: float) -> float:
    """Asset value below which junior-bond value rises with volatility.

    e^{-(r - q + sigma^2/2) tau} sqrt(F_S (F_S + F_J)): the discounted
    geometric mean of the senior and total face values.  The junior vega
    at volatility ``sigma`` changes sign from positive to negative as the
    asset value crosses this threshold.  The structure's asset value and
    volatility are ignored.  Where F_S (F_S + F_J) is not a normal float,
    the root is taken as sqrt(F_S) sqrt(F_S + F_J); where the growth
    factor e^{-(r - q + sigma^2/2) tau} is not, the threshold is taken as
    exp(ln F_S / 2 + ln(F_S + F_J) / 2 - (r - q + sigma^2/2) tau).  Raises
    ValidationError only where the threshold itself overflows.
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
    senior_face = cs.senior_face
    total_face = senior_face + cs.junior_face  # cs.total_face, without the property call
    try:
        growth = math.exp(-exponent)
    except OverflowError:
        growth = _INF
    if _NORMAL_MIN <= growth < _INF:
        face_product = senior_face * total_face
        if _NORMAL_MIN <= face_product < _INF:
            threshold = growth * math.sqrt(face_product)
        else:
            threshold = growth * (math.sqrt(senior_face) * math.sqrt(total_face))
        if threshold < _INF:
            return threshold
        raise ValidationError(
            f"threshold {growth} * sqrt({senior_face} * {total_face}) overflows"
        )
    # The growth factor over- or underflows, or is subnormal: add the logs.
    try:
        threshold = math.exp(0.5 * math.log(senior_face) + 0.5 * math.log(total_face) - exponent)
    except OverflowError:
        threshold = _INF
    if threshold < _INF:  # also NaN where the exponent is
        return threshold
    raise ValidationError(f"threshold discount factor e^{-exponent} overflows")


def optimal_volatility(cs: CapitalStructure) -> float | None:
    """Volatility at which the junior-bond value peaks, when one exists.

    sqrt( ln(F_S (F_S + F_J) / V^2) / tau - 2 r + 2 q ) for asset values
    below ``hump_threshold``; None above it, where the junior value is
    decreasing in volatility.  Radicands within 1e-12 of zero map to the
    boundary value 0.0 rather than to a rounding-noise root.  Where
    F_S (F_S + F_J), V^2 or their ratio is not a normal float, the log is
    taken as ln(F_S / V) + ln((F_S + F_J) / V), and where those ratios are
    not normal either, as ln F_S + ln(F_S + F_J) - 2 ln V.  The
    structure's own volatility field is ignored.  Raises ValidationError
    where the radicand itself leaves the float range.
    """
    return _optimal_volatility(cs, cs.asset_value)


def _optimal_volatility(cs: CapitalStructure, asset_value: float) -> float | None:
    """``optimal_volatility`` of ``cs`` with its asset value replaced."""
    senior_face, total_face = cs.senior_face, cs.total_face
    face_product = senior_face * total_face
    v_squared = asset_value * asset_value
    # An infinite product or V^2 makes the ratio inf, 0 or NaN.
    if (
        face_product >= _NORMAL_MIN
        and v_squared >= _NORMAL_MIN
        and _NORMAL_MIN <= (ratio := face_product / v_squared) < _INF
    ):
        log_ratio = math.log(ratio)
    else:
        senior_ratio, total_ratio = senior_face / asset_value, total_face / asset_value
        if _NORMAL_MIN <= senior_ratio < _INF and _NORMAL_MIN <= total_ratio < _INF:
            log_ratio = math.log(senior_ratio) + math.log(total_ratio)
        else:
            log_ratio = math.log(senior_face) + math.log(total_face) - 2.0 * math.log(asset_value)
    radicand = log_ratio / cs.maturity - 2.0 * cs.rate + 2.0 * cs.dividend_yield
    if radicand < -_RADICAND_TOL:
        return None
    if radicand <= _RADICAND_TOL:
        return 0.0
    if radicand < _INF:
        return math.sqrt(radicand)
    # +inf, or NaN from inf - inf: no float holds sigma*^2.
    raise ValidationError(
        f"sigma*^2 = ln(F_S (F_S + F_J) / V^2) / tau - 2 r + 2 q at "
        f"V = {asset_value} leaves the float range"
    )


def classify_regime(cs: CapitalStructure, initial_sigma: float) -> RiskProfile:
    """Classify how the junior-bond value responds to asset volatility.

    The regime is HUMP_SHAPED exactly when an interior maximizer exists,
    DECREASING_IN_RISK otherwise.  ``shifts_above_initial`` records
    whether that maximizer lies above ``initial_sigma``, which holds if
    and only if the asset value is below ``risk_shift_threshold``
    evaluated at ``initial_sigma``.
    """
    if not 0.0 < initial_sigma < _INF:
        raise _domain_error("initial_sigma", initial_sigma, "finite and > 0")
    best = _optimal_volatility(cs, cs.asset_value)
    shift_at_initial = _threshold(cs, initial_sigma)
    shifts_up = cs.asset_value < shift_at_initial
    return RiskProfile(
        best,
        shift_at_initial,
        _threshold(cs, 0.0),
        _DECREASING if best is None else _HUMP,
        shifts_up,
        initial_sigma,
        _chosen_risk(best, shifts_up, initial_sigma),
    )


def chosen_risk(cs: CapitalStructure, initial_sigma: float) -> float:
    """Volatility chosen by a junior creditor who controls risk.

    The junior-value maximizer when shifting upward pays (asset value
    below the shift threshold), otherwise the initial volatility: risk
    shifting is limited to the level that maximizes the junior bond.

    Equal to ``classify_regime(cs, initial_sigma).chosen_risk``, with the
    same checks in the same order, but it does not build a profile: it
    forms sigma* and the shift threshold only, so it also returns where
    just the hump threshold overflows.
    """
    if not 0.0 < initial_sigma < _INF:
        raise _domain_error("initial_sigma", initial_sigma, "finite and > 0")
    return _chosen_risk(
        _optimal_volatility(cs, cs.asset_value),
        cs.asset_value < _threshold(cs, initial_sigma),
        initial_sigma,
    )


def _chosen_risk(best: float | None, shifts_up: bool, initial_sigma: float) -> float:
    return best if shifts_up and best is not None else initial_sigma

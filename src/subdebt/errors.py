"""Exception types and the input checks shared across the package.

A model call raises only ``ValidationError``; it returns None for "no value"."""

import math


class ValidationError(ValueError):
    """A model input is outside its documented domain, or a result leaves the float range."""


class ScenarioParseError(ValueError):
    """A scenario file is unreadable, malformed, or missing required keys."""


# Every domain rejects NaN and +-inf: NaN fails each comparison.
_DOMAINS = {
    "finite": math.isfinite,
    "finite and > 0": lambda x: 0.0 < x < math.inf,
    "finite and >= 0": lambda x: 0.0 <= x < math.inf,
    "strictly in (0, 1)": lambda x: 0.0 < x < 1.0,
}


def check(name: str, value: float, domain: str) -> None:
    """Raise ValidationError unless ``value`` lies in ``domain``."""
    if not _DOMAINS[domain](value):
        raise _domain_error(name, value, domain)


def _domain_error(name: str, value: float, domain: str) -> ValidationError:
    """The error ``check`` raises; hot paths compare inline and raise this."""
    return ValidationError(f"{name} must be {domain}, got {value}")


def check_range(name: str, lower: float, upper: float) -> None:
    """Raise ValidationError unless lower < upper, both finite."""
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ValidationError(
            f"{name} must be finite with lower < upper, got [{lower}, {upper}]"
        )


def checked_exp(exponent: float, name: str) -> float:
    """math.exp, raising ValidationError where the result overflows."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise ValidationError(f"{name} e^{exponent} overflows") from None

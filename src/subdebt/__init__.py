"""Two-tranche structural credit model.

Closed-form values for senior debt, junior debt, and equity as option
portfolios on the firm's assets; the junior bond's sensitivity to asset
volatility; the thresholds and closed-form maximizer governing
risk-shifting incentives; and independent Monte-Carlo, numeric-argmax,
and finite-difference verification engines.

Every public name loads its module on first use (PEP 562): ``import
subdebt`` loads no submodule, and ``subdebt.X`` or ``from subdebt import
X`` imports only the module that defines X.  The value is then stored in
the package namespace, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, grouped by the module that defines it.
_NAMES = {
    "black_scholes": ("OptionInputs", "call_price", "put_price", "vega"),
    "claims": (
        "CapitalStructure",
        "ClaimValues",
        "junior_debt_value",
        "norm_cdf",
        "norm_pdf",
        "value_all_claims",
    ),
    "errors": ("DegenerateVolatilityError", "ScenarioParseError", "ValidationError"),
    "oracle": (
        "GridSpec",
        "MCEstimate",
        "argmax_sigma_numeric",
        "finite_diff_vega",
        "golden_section_max",
        "mc_claim_values",
        "simulate_terminal_values",
    ),
    "risk": (
        "Regime",
        "RiskProfile",
        "chosen_risk",
        "classify_regime",
        "hump_threshold",
        "junior_debt_vega",
        "optimal_volatility",
        "risk_shift_threshold",
    ),
    "scenario": ("MCConfig", "Scenario", "load_scenario"),
    "sweeps": (
        "sweep_sigma",
        "sweep_structure",
        "write_structure_csv",
        "write_structure_json",
        "write_sweep_csv",
        "write_sweep_json",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Two-tranche structural credit model.

Closed-form values for senior debt, junior debt, and equity as option
portfolios on the firm's assets; the junior bond's sensitivity to asset
volatility; the thresholds and closed-form maximizer governing
risk-shifting incentives; and independent Monte-Carlo, numeric-argmax,
and finite-difference verification engines.
"""

from .black_scholes import (
    OptionInputs,
    call_price,
    norm_cdf,
    norm_pdf,
    put_price,
    vega,
)
from .claims import (
    CapitalStructure,
    ClaimValues,
    junior_debt_value,
    value_all_claims,
)
from .errors import DegenerateVolatilityError, ScenarioParseError, ValidationError
from .oracle import (
    GridSpec,
    MCConfig,
    MCEstimate,
    argmax_sigma_numeric,
    finite_diff_vega,
    golden_section_max,
    mc_claim_values,
    simulate_terminal_values,
)
from .risk import (
    Regime,
    RiskProfile,
    chosen_risk,
    classify_regime,
    hump_threshold,
    junior_debt_vega,
    optimal_volatility,
    risk_shift_threshold,
)
from .scenario import Scenario, load_scenario
from .sweeps import (
    SweepTable,
    sweep_sigma,
    sweep_structure,
    write_structure_csv,
    write_structure_json,
    write_sweep_csv,
    write_sweep_json,
)

__version__ = "0.1.0"

__all__ = [
    "CapitalStructure",
    "ClaimValues",
    "DegenerateVolatilityError",
    "GridSpec",
    "MCConfig",
    "MCEstimate",
    "OptionInputs",
    "Regime",
    "RiskProfile",
    "Scenario",
    "ScenarioParseError",
    "SweepTable",
    "ValidationError",
    "argmax_sigma_numeric",
    "call_price",
    "chosen_risk",
    "classify_regime",
    "finite_diff_vega",
    "golden_section_max",
    "hump_threshold",
    "junior_debt_value",
    "junior_debt_vega",
    "load_scenario",
    "mc_claim_values",
    "norm_cdf",
    "norm_pdf",
    "optimal_volatility",
    "put_price",
    "risk_shift_threshold",
    "simulate_terminal_values",
    "sweep_sigma",
    "sweep_structure",
    "value_all_claims",
    "vega",
    "write_structure_csv",
    "write_structure_json",
    "write_sweep_csv",
    "write_sweep_json",
]

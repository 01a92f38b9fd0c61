"""Deterministic OLG economy with inequality-driven consumption envy.

Dynasties split disposable income between consumption and bequests under
log utility with a "keeping up with the Joneses" term whose weight is an
increasing function of wealth inequality.  The package solves the
per-period equilibrium exactly, iterates policy paths, constructs
egalitarian and polarised steady states, classifies long-run regimes,
and plans two-stage tax reforms that deliver equality without an output
cost.
"""

from .core import (
    EconomyParams,
    FactorPrices,
    NuForGamma,
    TaxRates,
    factor_prices,
    gamma_hat,
    gamma_star,
    nu_for_gamma,
    savings_rate,
    steady_capital,
    tax_rates,
    validate_params,
)
from .envy import (
    EnvySpec,
    as_distribution,
    gamma_uniform_top,
    gini,
    validate_envy,
)
from .equilibrium import (
    ConvergenceReport,
    Regime,
    SteadyState,
    TemporaryEquilibrium,
    Trajectory,
    classify,
    detect_convergence,
    egalitarian_steady,
    polarised_steady,
    simulate,
    solve_temporary,
)
from .policy import (
    BudgetReport,
    FiscalSchedule,
    ReformPlan,
    budget_check,
    build_schedule,
    compose_reform_schedule,
    constant_schedule,
    plan_reform,
)
from .scenario import Scenario, load_scenario, parse_scenario, scenario_to_obj
from .sweep import SweepGrid, load_grid, locate_regime_flip, parse_grid, run_sweep

__all__ = [
    "EconomyParams",
    "FactorPrices",
    "TaxRates",
    "NuForGamma",
    "validate_params",
    "factor_prices",
    "tax_rates",
    "savings_rate",
    "steady_capital",
    "gamma_star",
    "gamma_hat",
    "nu_for_gamma",
    "EnvySpec",
    "as_distribution",
    "gini",
    "gamma_uniform_top",
    "validate_envy",
    "TemporaryEquilibrium",
    "Trajectory",
    "SteadyState",
    "Regime",
    "ConvergenceReport",
    "solve_temporary",
    "simulate",
    "egalitarian_steady",
    "polarised_steady",
    "classify",
    "detect_convergence",
    "FiscalSchedule",
    "ReformPlan",
    "BudgetReport",
    "build_schedule",
    "constant_schedule",
    "budget_check",
    "plan_reform",
    "compose_reform_schedule",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_to_obj",
    "SweepGrid",
    "load_grid",
    "parse_grid",
    "run_sweep",
    "locate_regime_flip",
]

__version__ = "0.1.0"

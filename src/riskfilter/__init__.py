"""Risk-sensitive safety filters for uncertain discrete-time multi-agent systems."""

__version__ = "0.5.0"

from .config import ExperimentConfig, config_with, parse_config, serialize_config
from .dynamics import MasModel, make_model
from .errors import (
    ConfigError,
    ContractViolationError,
    GuaranteeDomainError,
    MissingModelError,
    RiskFilterError,
)
from .experiments import run_experiment
from .filters import (
    Branch,
    FilterConfig,
    FilterOutcome,
    centralized_filter,
    check_condition,
    draw_risk_samples,
    pessimistic_filter,
    proximity_filter,
    switching_filter,
)
from .guarantees import GuaranteeReport, certify_grid, compute_delta
from .persist import load_value_model, save_value_model
from .policies import Policy, eval_policy, make_proportional
from .risk import entropic_risk, risk_lower
from .simulate import (
    CentralizedController,
    Metrics,
    PolicyController,
    RolloutRecord,
    SweepRow,
    SwitchingController,
    compute_metrics,
    rollout,
    sweep,
)
from .value import (
    ApproxConfig,
    Barrier,
    ValueDataset,
    ValueModel,
    collect_dataset,
    fit_value,
    mc_cost_to_go,
)

__all__ = [
    "__version__",
    "ApproxConfig",
    "Barrier",
    "Branch",
    "CentralizedController",
    "ConfigError",
    "ContractViolationError",
    "ExperimentConfig",
    "FilterConfig",
    "FilterOutcome",
    "GuaranteeDomainError",
    "GuaranteeReport",
    "MasModel",
    "Metrics",
    "MissingModelError",
    "Policy",
    "PolicyController",
    "RiskFilterError",
    "RolloutRecord",
    "SweepRow",
    "SwitchingController",
    "ValueDataset",
    "ValueModel",
    "centralized_filter",
    "certify_grid",
    "check_condition",
    "collect_dataset",
    "compute_delta",
    "compute_metrics",
    "config_with",
    "draw_risk_samples",
    "entropic_risk",
    "eval_policy",
    "fit_value",
    "load_value_model",
    "make_model",
    "make_proportional",
    "mc_cost_to_go",
    "parse_config",
    "pessimistic_filter",
    "proximity_filter",
    "risk_lower",
    "rollout",
    "run_experiment",
    "save_value_model",
    "serialize_config",
    "sweep",
    "switching_filter",
]

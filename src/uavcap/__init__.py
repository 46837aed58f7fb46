"""uavcap: sensing capacity of a base station surveilling a UAV swarm.

Closed-form link-budget, detection, and capacity math for a monostatic
sensing system that splits its symbol budget across uniformly distributed
aerial targets, plus deterministic Monte Carlo machinery that validates
every closed form against an independent stochastic oracle.
"""

from .capacity import (
    CapacityQuery,
    CapacityResult,
    capacity_under_pd_bisect,
    capacity_under_pd_scan,
    capacity_under_snr,
)
from .config import DEFAULT_SEED, ConfigError, ScenarioConfig, parse_config
from .detection import (
    DetectionSpec,
    SurrogateDomainError,
    joint_pd,
    log_joint_pd_surrogate,
    log_pd_single,
    lrt_threshold,
    pd_single,
    q,
    q_exp_approx,
    q_inv,
)
from .geometry import (
    Position,
    SensingRegion,
    expected_inverse_quartic_range,
    position_pdf,
    sample_positions,
)
from .link import (
    RadarLinkParams,
    mean_multi_uav_snr,
    mean_single_uav_snr,
    path_loss_db,
    pathloss_constant,
    per_uav_snr,
)
from .montecarlo import (
    EmpiricalEstimate,
    TrialPlan,
    mc_detection_rates,
    mc_integration_energy,
    mc_mean_snr,
)
from .sweeps import render_sweep_csv, run_sweep
from .validation import CheckResult, render_validation_csv, run_validation

__version__ = "0.1.0"

__all__ = [
    "CapacityQuery",
    "CapacityResult",
    "CheckResult",
    "ConfigError",
    "DEFAULT_SEED",
    "DetectionSpec",
    "EmpiricalEstimate",
    "Position",
    "RadarLinkParams",
    "ScenarioConfig",
    "SensingRegion",
    "SurrogateDomainError",
    "TrialPlan",
    "capacity_under_pd_bisect",
    "capacity_under_pd_scan",
    "capacity_under_snr",
    "expected_inverse_quartic_range",
    "joint_pd",
    "log_joint_pd_surrogate",
    "log_pd_single",
    "lrt_threshold",
    "mc_detection_rates",
    "mc_integration_energy",
    "mc_mean_snr",
    "mean_multi_uav_snr",
    "mean_single_uav_snr",
    "parse_config",
    "path_loss_db",
    "pathloss_constant",
    "pd_single",
    "per_uav_snr",
    "position_pdf",
    "q",
    "q_exp_approx",
    "q_inv",
    "render_sweep_csv",
    "render_validation_csv",
    "run_sweep",
    "run_validation",
    "sample_positions",
    "__version__",
]

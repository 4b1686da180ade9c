"""Branching populations competing for a shared resource.

Individuals reproduce, children claim a share of a common resource pool
under a service policy, and only the served children survive.  The package
simulates these populations reproducibly, classifies survival versus
extinction from the law triple alone, and checks the structural theory
(envelope bounds, policy dominance, counterexamples) by Monte Carlo.
"""

from .criteria import (
    CRITICAL_BAND,
    Classification,
    ConvergenceError,
    CriticalReport,
    DomainError,
    UnboundedClaimError,
    UnsupportedKindError,
    beta_asymptotic_critical_resource,
    classify,
    critical_curve,
    critical_report,
    critical_resource_mean,
    effective_mean_sf,
    effective_mean_wf,
    moment_shortcut,
    solve_sf_threshold,
    solve_wf_threshold,
)
from .distributions import (
    Constant,
    Exponential,
    LawTriple,
    OffspringLaw,
    RegularityReport,
    ScaledBeta,
    Uniform,
    validate_regularity,
)
from .engine import (
    EngineError,
    Outcome,
    ProcessSpec,
    Trajectory,
    simulate,
    simulate_coupled_replicates,
    simulate_replicates,
    step,
    step_replicates,
    trajectory_to_csv,
    trajectory_to_json,
)
from .montecarlo import (
    COUNTEREXAMPLE_TRIPLE,
    CounterexampleSearchResult,
    ExtinctionEstimate,
    GrowthEstimate,
    InsufficientSurvivors,
    McConfig,
    SafeHavenReport,
    SuperadditivityReport,
    counterexample_search,
    dominance_check,
    envelope_check,
    estimate_extinction,
    safe_haven_check,
    sf_monotonicity_probe,
    superadditivity_check,
    wilson_interval,
)
from .policies import (
    CoinFlipPolicy,
    CustomPolicy,
    FcfsPolicy,
    POLICY_TOKENS,
    PriorityPolicy,
    StrongestFirstPolicy,
    ThirdLargestFirstPolicy,
    WeakestFirstPolicy,
    count_sf,
    policy_from_token,
)
from .universe import INDEX_CAP, Seed, Universe

__version__ = "0.1.0"

__all__ = [
    "Seed", "Universe", "INDEX_CAP",
    "OffspringLaw", "Uniform", "ScaledBeta", "Exponential", "Constant",
    "LawTriple", "RegularityReport", "validate_regularity",
    "PriorityPolicy", "FcfsPolicy", "WeakestFirstPolicy", "StrongestFirstPolicy",
    "CoinFlipPolicy", "ThirdLargestFirstPolicy", "CustomPolicy", "count_sf",
    "POLICY_TOKENS", "policy_from_token",
    "ProcessSpec", "Outcome", "Trajectory", "EngineError",
    "step", "simulate", "trajectory_to_csv", "trajectory_to_json",
    "step_replicates", "simulate_replicates", "simulate_coupled_replicates",
    "Classification", "CriticalReport", "CRITICAL_BAND",
    "DomainError", "UnboundedClaimError", "UnsupportedKindError",
    "solve_wf_threshold", "solve_sf_threshold", "effective_mean_wf", "effective_mean_sf",
    "classify", "moment_shortcut", "critical_resource_mean",
    "beta_asymptotic_critical_resource",
    "critical_curve", "critical_report",
    "ConvergenceError",
    "McConfig", "ExtinctionEstimate", "GrowthEstimate", "SafeHavenReport",
    "SuperadditivityReport", "CounterexampleSearchResult", "InsufficientSurvivors",
    "wilson_interval", "estimate_extinction", "safe_haven_check", "dominance_check",
    "envelope_check", "superadditivity_check", "counterexample_search",
    "COUNTEREXAMPLE_TRIPLE",
    "sf_monotonicity_probe",
]

"""Branching populations competing for a shared resource.

Individuals reproduce, children claim a share of a common resource pool
under a service policy, and only the served children survive.  The package
simulates these populations reproducibly, classifies survival versus
extinction from the law triple alone, and checks the structural theory
(envelope bounds, policy dominance, counterexamples) by Monte Carlo.
"""

from .criteria import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .universe import *  # noqa: F401,F403

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

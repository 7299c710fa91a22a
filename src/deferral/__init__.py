"""Entropy-maximizing message deferral.

Profiles of online activity over cyclic time slots, optimal store/forward
schedules that maximize the entropy of the externally observed profile,
analytic characterization of the resulting buffer (capacity and delay), a
seeded Monte Carlo simulator that validates the analysis, and a population
experiment harness.
"""

from .profiles import (
    ActivityProfile,
    SlotScheme,
    TimestampRecord,
    critical_rate,
    entropy,
    entropy_rows,
    kl_divergence,
    total_variation,
    uniform_pmf,
)
from .strategies import (
    DeferralStrategy,
    PrivacyCurvePoint,
    privacy_deferral_curve,
    relative_privacy_gain,
    solve_grid_oracle,
    solve_numerical_oracle,
    solve_optimal,
    waterfill,
)
from .buffer import (
    DelayDistribution,
    SteadyStatePattern,
    analyze_buffer,
    capacity,
    delay_distribution,
    find_starting_index,
    steady_state,
)
from .simulate import (
    ComparisonRecord,
    SimConfig,
    SimReport,
    empirical_vs_analytic,
    run_simulation,
)
from .population import PopulationStudy, ingest, study, synth_population

__version__ = "0.1.0"

__all__ = [
    "ActivityProfile",
    "ComparisonRecord",
    "DeferralStrategy",
    "DelayDistribution",
    "PopulationStudy",
    "PrivacyCurvePoint",
    "SimConfig",
    "SimReport",
    "SlotScheme",
    "SteadyStatePattern",
    "TimestampRecord",
    "analyze_buffer",
    "capacity",
    "critical_rate",
    "delay_distribution",
    "empirical_vs_analytic",
    "entropy",
    "entropy_rows",
    "find_starting_index",
    "ingest",
    "kl_divergence",
    "privacy_deferral_curve",
    "relative_privacy_gain",
    "run_simulation",
    "solve_grid_oracle",
    "solve_numerical_oracle",
    "solve_optimal",
    "steady_state",
    "study",
    "synth_population",
    "total_variation",
    "uniform_pmf",
    "waterfill",
]

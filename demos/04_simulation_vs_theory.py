#!/usr/bin/env python3
"""Monte Carlo validation of the closed-form delay and capacity analysis.

We run the seeded discrete-event simulator (multinomial arrivals, per-slot
storage decisions, uniformly-random extraction) against the analytic
predictions for a random 24-slot profile, then show how the empirical
delay histogram lines up with the exact distribution.
"""

import numpy as np

from deferral import (
    ActivityProfile,
    SimConfig,
    SlotScheme,
    critical_rate,
    empirical_vs_analytic,
    solve_optimal,
)

rng = np.random.default_rng(11)
profile = ActivityProfile(SlotScheme.day(), rng.dirichlet(np.ones(24)), count=2000)
phi = 0.1
strategy = solve_optimal(profile, phi)

cfg = SimConfig(
    profile=profile,
    strategy=strategy,
    alpha=10_000,
    cycles=200,
    warmup_cycles=2,
    discipline="uniform_random",
    seed=404,
)
rec = empirical_vs_analytic(cfg)
rep = rec.report

print(f"profile critical rate {critical_rate(profile):.4f}; simulating at phi={phi}")
print(f"{rep.total_count} messages over {rep.measured_cycles} measured cycles "
      f"(seed {rep.seed_echo}, {rep.rng_algorithm})\n")

print(f"{'quantity':34} {'analytic':>10} {'simulated':>10}")
print(f"{'delayed fraction':34} {strategy.phi:10.4f} {rep.delayed_fraction:10.4f}"
      f"   (SE {rec.delayed_fraction_se:.1e})")
print(f"{'conditional mean delay [slots]':34} {rec.analytic_conditional_delay:10.4f}"
      f" {rep.mean_conditional_delay:10.4f}   (SE {rec.conditional_delay_se:.1e})")
print(f"{'capacity / steady peak [msgs]':34} {rec.analytic_capacity:10.1f}"
      f" {rec.empirical_pattern_peak:10.1f}")
print(f"{'single-run extreme peak [msgs]':34} {'':>10} {rep.peak_occupancy:10d}")
print(f"\ndisagreements beyond 3 SE: {rec.flags or 'none'}\n")

print("delay  analytic   simulated  (conditional pmf)")
cond_analytic = rec.analytic_pmf / strategy.phi
cond_sim = rep.delay_histogram / max(rep.delayed_count, 1)
for d in range(24):
    if cond_analytic[d] > 1e-6 or cond_sim[d] > 0:
        print(f"{d + 1:5d}  {cond_analytic[d]:9.4f} {cond_sim[d]:10.4f}")

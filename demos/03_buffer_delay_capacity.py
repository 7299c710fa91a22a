#!/usr/bin/env python3
"""What deferral costs: buffer occupancy, capacity, and message delay.

The storing/forwarding schedule is cyclic, so the buffer settles into a
repeating occupancy pattern.  Starting the cycle where the buffer empties,
we read off the peak occupancy (the capacity a real buffer would need) and
the exact distribution of how long a delayed message waits under
uniformly-random extraction.  Shown first on a tiny hand-checkable case,
then on a realistic 24-slot profile.
"""

import numpy as np

from deferral import (
    ActivityProfile,
    DeferralStrategy,
    SlotScheme,
    analyze_buffer,
    critical_rate,
    solve_optimal,
    uniform_pmf,
)

print("--- tiny case: store 10% in slot 2, release it in slot 1 ---")
# a uniform profile has critical rate 0, so this hand-built strategy is above
# it; the analysis still holds exactly
prof4 = ActivityProfile(SlotScheme(4, 86400.0), uniform_pmf(4), count=1000)
strat = DeferralStrategy(s=[0, 0.1, 0, 0], r=[0.1, 0, 0, 0], phi=0.1, q_ref=prof4)
pattern, cap, dist = analyze_buffer(strat, alpha=1000)
print(f"cycle starts at slot {pattern.start_index}; occupancy per reordered slot:")
print(f"  b  = {pattern.b.tolist()}")
print(f"  s' = {pattern.s_prime.tolist()}")
print(f"  r' = {pattern.r_prime.tolist()}")
print(f"capacity = {cap:.0f} messages per 1000/day")
print(f"delay pmf over 1..4 slots = {dist.pmf.tolist()}")
print(f"every delayed message waits exactly {dist.expected_conditional:.0f} slots\n")

print("--- realistic case: 24 hourly slots, half the critical rate ---")
rng = np.random.default_rng(5)
prof = ActivityProfile(SlotScheme.day(), rng.dirichlet(np.ones(24) * 0.7), count=1879)
phi = 0.5 * critical_rate(prof)
pattern, cap, dist = analyze_buffer(solve_optimal(prof, phi))

print(f"deferral rate phi = {phi:.4f} (critical rate {critical_rate(prof):.4f})")
print(f"buffer capacity   = {cap:.1f} messages ({100 * cap / prof.count:.1f}% of daily traffic)")
print(f"mean delay        = {dist.expected_unconditional:.3f} slots over all messages")
print(f"                  = {dist.expected_conditional:.3f} slots for delayed ones"
      f" ({dist.conditional_hours:.2f} h)")
print("\ndelay  probability (delayed messages)")
cond = dist.pmf / dist.phi
for d, mass in enumerate(cond, start=1):
    if mass > 1e-12:
        print(f"{d:5d}  {mass:7.4f}  {'#' * int(round(mass * 120))}")

#!/usr/bin/env python3
"""Build an activity profile from raw timestamps and measure its exposure.

A night-owl user posts mostly between 20:00 and 02:00.  We bin their
messages into 24 hourly slots, look at the resulting histogram, and compute
the quantities everything else builds on: the profile entropy (how
anonymous the timing pattern already is), its distance from uniform, and
the critical deferral rate (the fraction of messages that would have to be
delayed for the observed pattern to become completely flat).
"""

import numpy as np

from deferral import (
    ActivityProfile,
    SlotScheme,
    critical_rate,
    entropy,
    kl_divergence,
    total_variation,
    uniform_pmf,
)

rng = np.random.default_rng(1)
scheme = SlotScheme.day(24)

# evening-heavy posting times: a mixture of an evening peak and some
# daytime background, over 60 days
ts = []
for _ in range(1500):
    day = rng.integers(0, 60)
    if rng.random() < 0.7:
        hour = (20 + rng.exponential(2.0)) % 24  # evening burst
    else:
        hour = rng.uniform(8, 24)  # daytime background
    ts.append(day * 86400 + hour * 3600)

# the profile is the per-hour count over the message count
counts = np.bincount(scheme.slot_of(ts) - 1, minlength=scheme.n)
profile = ActivityProfile(scheme, counts / len(ts), count=float(len(ts)))

print("hour  share of messages")
for i, share in enumerate(profile.q):
    bar = "#" * int(round(share * 200))
    print(f"{i:4d}  {share:6.3f}  {bar}")

u = uniform_pmf(24)
print()
print(f"messages used:            {profile.count:.0f}")
print(f"profile entropy:          {entropy(profile.q):.4f} bits (max {np.log2(24):.4f})")
print(f"divergence from uniform:  {kl_divergence(profile.q, u):.4f} bits")
print(f"total variation to u:     {total_variation(profile.q, u):.4f}")
print(f"critical deferral rate:   {critical_rate(profile):.4f}")
print()
print("Delaying that fraction of messages (optimally scheduled) makes the")
print("externally observed histogram exactly flat; less buys partial cover.")

#!/usr/bin/env python3
"""A population-wide view: critical rates, privacy gains, and traffic smoothing.

144 synthetic users apply a common deferral rate (each clamped at their own
critical rate).  We look at the spread of critical rates across the cohort,
the percentile curves of relative privacy gain, the per-user delay/capacity
price of full flatness, and how the aggregate traffic profile flattens as
the common rate grows.  The same tables are written as CSV files.
"""

import tempfile
from pathlib import Path

import numpy as np

from deferral import study, synth_population
from deferral.population import nearest_rank_percentile

users = synth_population(144, concentration=1.0, mean_messages=1879.42, seed=7)
result = study(users, phi_grid=[0.05, 0.1, 0.2, 0.3, 0.5, 0.7])

pc = result.phi_crit
print(f"{result.n_users} users, critical rates: min {pc.min():.3f}, "
      f"median {np.median(pc):.3f}, max {pc.max():.3f}\n")

print("relative privacy gain percentiles (%):")
print("  phi     p10     p50     p90")
for k, phi in enumerate(result.phi_grid):
    print(f" {phi:5.2f} {result.gain_percentiles[10][k]:7.2f}"
          f" {result.gain_percentiles[50][k]:7.2f}"
          f" {result.gain_percentiles[90][k]:7.2f}")

print("\nprice of full flatness (each user at their own critical rate):")
print(f"  mean delay of delayed messages: {result.delay_conditional_hours.mean():.2f} h "
      f"(median {nearest_rank_percentile(result.delay_conditional_hours, 50):.2f} h)")
print(f"  buffer capacity:                {result.capacity_relative_pct.mean():.1f}% "
      f"of a user's daily messages on average")

print("\naggregate traffic profile flattens with the common rate:")
print("  phi    slot variance of p'   max/min slot share")
before = result.aggregate_before
print(f"  none   {before.var():.3e}        {before.max() / before.min():8.2f}")
for k, phi in enumerate(result.phi_grid):
    after = result.aggregate_after[k]
    print(f" {phi:5.2f}   {after.var():.3e}        {after.max() / after.min():8.2f}")

with tempfile.TemporaryDirectory(prefix="deferral_study_") as out_dir:
    written = result.write_csvs(Path(out_dir))
    print("\nCSV tables written (and removed on exit):")
    for path in written:
        print(f"  {path.name}: {path.stat().st_size} bytes")

"""Metamorphic tests: symmetries of the model that hold at any n, checked
without a reference implementation.

Each tolerance is the band measured on the code it was written against; a
relation that leaves its band is a defect to report, not a band to widen.
"""

import csv
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferral import (
    ActivityProfile,
    SlotScheme,
    analyze_buffer,
    critical_rate,
    ingest,
    solve_optimal,
    study,
)
from deferral.population import synth_population

#: Largest difference of a delay-PMF entry under rotation: 1.1e-14 measured
#: over 300 cases (n from 3 to 1440), 5.6e-17 over 648 more; twice the former.
DELAY_PMF_ATOL = 2.2e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 8, 24, 168, 1440]),
    concentration=st.sampled_from([0.05, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 1439),
    fraction=st.floats(0.0, 0.95),
)
@example(n=3, concentration=1.0, seed=0, k=1, fraction=0.0)
@example(n=1440, concentration=0.05, seed=1, k=719, fraction=1e-12)
@example(n=168, concentration=50.0, seed=2, k=167, fraction=0.95)
def test_rotating_the_profile_rotates_the_strategy(n, concentration, seed, k, fraction):
    # The levels come from the sorted profile, which a rotation leaves as it
    # is, and s, r are elementwise in q: so they rotate bit for bit.  Rates
    # stay below the critical rate, whose sum a rotation may reorder.
    k %= n
    q = np.random.default_rng(seed).dirichlet(np.full(n, concentration))
    scheme = SlotScheme(n, 86400.0)
    prof = ActivityProfile(scheme, q, count=1000.0)
    turned = ActivityProfile(scheme, np.roll(q, k), count=1000.0)
    phi = fraction * critical_rate(prof)
    strat, twin = solve_optimal(prof, phi), solve_optimal(turned, phi)
    assert np.array_equal(np.roll(strat.s, k), twin.s) and np.array_equal(np.roll(strat.r, k), twin.r)
    assert (strat.phi, strat.theta_lo, strat.theta_hi) == (twin.phi, twin.theta_lo, twin.theta_hi)
    _, capacity, delay = analyze_buffer(strat)
    _, twin_capacity, twin_delay = analyze_buffer(twin)
    assert capacity == twin_capacity
    assert delay.pmf.shape == twin_delay.pmf.shape
    assert np.max(np.abs(delay.pmf - twin_delay.pmf), initial=0.0) <= DELAY_PMF_ATOL


#: Largest change of an entropy under a slot permutation, which only
#: reorders its sum: 3.6e-15 bits, 2 ulps at log2(1440) (measured over 2,250
#: cases, n from 3 to 1440; 1.8e-15 over the 120 drawn here).
ENTROPY_ATOL = 3.6e-15

#: The same for the critical rate: 3.4e-16 (3.3e-16 over the same 2,250
#: cases; 2.2e-16 over the 120 drawn here).
CRITICAL_RATE_ATOL = 3.4e-16


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 8, 24, 168, 1440]),
    concentration=st.sampled_from([0.05, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 0.95),
)
def test_permuting_the_slots_permutes_the_strategy(n, concentration, seed, fraction):
    # Any order of the slots sorts to the same profile, so the levels are
    # the same and s, r permute bit for bit; sums over the slots may only
    # be reordered.
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.full(n, concentration))
    perm = rng.permutation(n)
    scheme = SlotScheme(n, 86400.0)
    prof = ActivityProfile(scheme, q, count=1000.0)
    shuffled = ActivityProfile(scheme, q[perm], count=1000.0)
    phi = fraction * critical_rate(prof)
    strat, twin = solve_optimal(prof, phi), solve_optimal(shuffled, phi)
    assert np.array_equal(strat.s[perm], twin.s) and np.array_equal(strat.r[perm], twin.r)
    assert (strat.phi, strat.theta_lo, strat.theta_hi) == (twin.phi, twin.theta_lo, twin.theta_hi)
    assert abs(strat.entropy_bits() - twin.entropy_bits()) <= ENTROPY_ATOL
    assert abs(critical_rate(prof) - critical_rate(shuffled)) <= CRITICAL_RATE_ATOL


def _write_log(path, rows):
    # whole seconds as digits (ingest's bulk path), the rest as decimals
    lines = (f"{user},{int(t) if t.is_integer() else repr(t)}\n" for user, t in rows)
    path.write_text("user_id,timestamp_utc\n" + "".join(lines), encoding="utf-8")
    return path


def _same_profiles(got, want, k=0):
    assert list(got) == list(want)
    for user, prof in want.items():
        assert np.array_equal(got[user].q, np.roll(prof.q, k)) and got[user].count == prof.count


def _drawn_log(scheme, seed):
    """Users and timestamps: multiples of 1/1024 s below 2**32 over three
    periods, some in whole seconds, a tenth of them on slot edges."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    users = rng.choice(["a", "b", "c", "d"], size).tolist()
    ticks = rng.integers(0, int(3 * scheme.period_seconds) * 1024, size)
    ticks[rng.random(size) < 0.3] &= ~1023  # whole seconds
    times = (1_700_000_000 + ticks / 1024).tolist()
    times[: size // 10] = [1_700_006_400 + scheme.slot_duration * j for j in range(size // 10)]
    return users, times


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([24, 48, 168]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 167),
    tz_offset=st.integers(-14 * 3600 * 4, 14 * 3600 * 4).map(lambda x: x / 4),
)
def test_shifting_the_timestamps_rotates_every_profile(tmp_path_factory, n, seed, k, tz_offset):
    # Timestamps are multiples of 1/1024 s below 2**32 and slots last whole
    # seconds, so every shift is exact in floating point: each relation
    # holds exactly, as measured on 40 logs.
    k %= n
    scheme = SlotScheme.week(n) if n == 168 else SlotScheme.day(n)
    slot, period = scheme.slot_duration, scheme.period_seconds
    users, times = _drawn_log(scheme, seed)
    log = tmp_path_factory.mktemp("log")

    def ingested(name, shift=0.0, **kwargs):
        rows = [(user, t + shift) for user, t in zip(users, times)]
        return ingest(_write_log(log / name, rows), scheme=scheme, **kwargs)

    base = ingested("base.csv")
    _same_profiles(ingested("slots.csv", k * slot), base, k)
    _same_profiles(ingested("base.csv", tz_offset=tz_offset), ingested("tz.csv", tz_offset))
    _same_profiles(ingested("period.csv", period), base)


USERS = synth_population(30, seed=23)
GRID = np.linspace(0.05, 0.7, 14)  # the grid of `--phi-grid 0.05:0.7:14`


@settings(max_examples=20, deadline=None, derandomize=True)
@given(names=st.lists(st.text(min_size=1, max_size=12), min_size=30, max_size=30, unique=True))
def test_renaming_the_users_leaves_every_table_as_it_was(tmp_path_factory, names):
    # No table names a user, and renaming keeps their order: byte-identical
    # tables, as measured on 30 and 40 users.
    written = study(USERS, GRID).write_csvs(tmp_path_factory.mktemp("study"))
    renamed = dict(zip(names, USERS.values()))
    rewritten = study(renamed, GRID).write_csvs(tmp_path_factory.mktemp("renamed"))
    assert [path.name for path in written] == [path.name for path in rewritten]
    for path, twin in zip(written, rewritten):
        assert path.read_bytes() == twin.read_bytes(), path.name


#: Largest error of a seconds-valued output (the slot length, the mean delay
#: in hours) against c times its old value, when the period is scaled by c:
#: 2.0 ulps of the scaled value over 2,160 cases (n from 2 to 1440, Dirichlet
#: 0.05 to 50, periods of an hour, a day and a week, c from 1e-3 to 1e6), and
#: none at all when c is a power of two (648 of them).
SECONDS_ULPS = 2.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([2, 3, 8, 24, 168, 1440]),
    concentration=st.sampled_from([0.05, 1.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([3600.0, 86400.0, 604800.0]),
    c=st.sampled_from([3, 0.1, 7, 1 / 3, 60, 1e-3, 1e6, 1 / 4, 2, 8]),
    fraction=st.sampled_from([0.3, 1.0]),
)
def test_scaling_the_period_scales_only_the_seconds(n, concentration, seed, period, c, fraction):
    # Only the slot length reads the period: every slot-valued output is the
    # same bit for bit, and each seconds-valued one is c times its old value
    # up to its own rounding, exactly so when c is a power of two.
    q = np.random.default_rng(seed).dirichlet(np.full(n, concentration))
    prof = ActivityProfile(SlotScheme(n, period), q, count=1000.0)
    scaled = ActivityProfile(SlotScheme(n, c * period), q, count=1000.0)
    phi = fraction * critical_rate(prof)
    strat, twin = solve_optimal(prof, phi), solve_optimal(scaled, phi)
    assert np.array_equal(strat.s, twin.s) and np.array_equal(strat.r, twin.r)
    assert (strat.phi, strat.theta_lo, strat.theta_hi) == (twin.phi, twin.theta_lo, twin.theta_hi)
    pattern, capacity, delay = analyze_buffer(strat)
    twin_pattern, twin_capacity, twin_delay = analyze_buffer(twin)
    assert np.array_equal(pattern.b, twin_pattern.b) and capacity == twin_capacity
    assert np.array_equal(delay.pmf, twin_delay.pmf)
    assert delay.expected_conditional == twin_delay.expected_conditional
    ulps = 0.0 if math.log2(c).is_integer() else SECONDS_ULPS
    for old, new in [
        (pattern.slot_duration, twin_pattern.slot_duration),
        (delay.conditional_hours, twin_delay.conditional_hours),
    ]:
        assert abs(new - c * old) <= ulps * np.spacing(c * old)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([24, 48, 168]),
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([2.0, 0.5, 4.0, 0.25]),
)
def test_scaling_the_period_and_the_timestamps_leaves_every_profile(tmp_path_factory, n, seed, c):
    # A power of two scales every timestamp, remainder and slot length
    # exactly, so each profile and count is the same (as on 72 logs).
    scheme = SlotScheme.week(n) if n == 168 else SlotScheme.day(n)
    users, times = _drawn_log(scheme, seed)
    log = tmp_path_factory.mktemp("log")
    base = ingest(_write_log(log / "base.csv", zip(users, times)), scheme=scheme)
    scaled_log = _write_log(log / "scaled.csv", [(user, c * t) for user, t in zip(users, times)])
    _same_profiles(ingest(scaled_log, scheme=SlotScheme(n, c * scheme.period_seconds)), base)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([24, 168]),
    seed=st.integers(0, 4),
    c=st.sampled_from([0.5, 2.0, 8.0]),
)
def test_scaling_the_period_scales_only_the_delay_hours(tmp_path_factory, n, seed, c):
    # Of the five tables only the delay histogram is in hours: its bin edges
    # are c times the old ones, exactly for a power of two, and its counts and
    # PMF stay; the other four are byte-identical (as over 30 studies).
    scheme = SlotScheme.week(n) if n == 168 else SlotScheme.day(n)
    users = synth_population(20, scheme=scheme, seed=seed)
    longer = SlotScheme(n, c * scheme.period_seconds)
    scaled = {user: ActivityProfile(longer, prof.q, count=prof.count) for user, prof in users.items()}
    written = study(users, GRID).write_csvs(tmp_path_factory.mktemp("study"))
    rewritten = study(scaled, GRID).write_csvs(tmp_path_factory.mktemp("scaled"))
    assert [path.name for path in written] == [path.name for path in rewritten]
    for path, twin in zip(written, rewritten):
        if path.name != "delay_pmf.csv":
            assert path.read_bytes() == twin.read_bytes(), path.name
            continue
        with open(path, newline="") as fh, open(twin, newline="") as twin_fh:
            rows, twin_rows = list(csv.reader(fh)), list(csv.reader(twin_fh))
        assert rows[0] == twin_rows[0] and len(rows) == len(twin_rows) == 17
        for row, twin_row in zip(rows[1:], twin_rows[1:]):
            assert [float(x) * c for x in row[:2]] == [float(x) for x in twin_row[:2]]
            assert row[2:] == twin_row[2:]

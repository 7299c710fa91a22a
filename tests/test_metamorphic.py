"""Metamorphic tests: symmetries of the model that hold at any n, checked
without a reference implementation.

Each tolerance is the band measured on the code it was written against; a
relation that leaves its band is a defect to report, not a band to widen.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferral import ActivityProfile, SlotScheme, analyze_buffer, critical_rate, solve_optimal, study
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

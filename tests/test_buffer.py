import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferral.buffer import (
    CAUSALITY_ATOL,
    SteadyStatePattern,
    _check_all_starts,
    _first_cycle,
    analyze_buffer,
    capacity,
    delay_distribution,
    find_starting_index,
    forwarding_hazards,
    steady_state,
)
from deferral.profiles import ActivityProfile, SlotScheme, critical_rate, uniform_pmf
from deferral.strategies import ZERO_ATOL, DeferralStrategy, solve_optimal


def profile(q, count=1000.0):
    q = np.asarray(q, dtype=float)
    return ActivityProfile(SlotScheme(q.size, 86400.0), q, count=count)


def single_flow_fixture():
    """n=4: store 0.1 in slot 2, forward it in slot 1 of the next cycle."""
    prof = profile(uniform_pmf(4))
    return DeferralStrategy(s=[0, 0.1, 0, 0], r=[0.1, 0, 0, 0], phi=0.1, q_ref=prof)


def random_feasible_strategy(rng, n=24, phi=None):
    """Feasible but generally non-optimal strategy: s = phi*q, r random."""
    q = rng.dirichlet(np.ones(n))
    prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=1000.0)
    if phi is None:
        phi = rng.uniform(0.01, 0.5)
    s = phi * q
    r = phi * rng.dirichlet(np.ones(n))
    return DeferralStrategy(s=s, r=r, phi=phi, q_ref=prof)


class TestFindStartingIndex:
    def test_zero_strategy_starts_at_one(self):
        prof = profile(uniform_pmf(4))
        strat = solve_optimal(prof, 0.0)
        assert find_starting_index(strat) == 1

    def test_single_flow_fixture(self):
        assert find_starting_index(single_flow_fixture()) == 2

    def test_recurrence_ends_at_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            strat = random_feasible_strategy(rng, n=12)
            start = find_starting_index(strat)
            a = np.asarray(strat.s) - np.asarray(strat.r)
            level = 0.0
            for j in range(12):
                level = max(level + a[(start - 1 + j) % 12], 0.0)
            assert abs(level) <= 1e-12

    def test_smallest_index_tiebreak(self):
        prof = profile(uniform_pmf(4))
        # net flow (0.1, 0, -0.1, 0): prefix minima at slots 3 and 4, so
        # both 4 and 1 start a zero-ending cycle; the smallest wins.
        strat = DeferralStrategy(s=[0.1, 0, 0, 0], r=[0, 0, 0.1, 0], phi=0.1, q_ref=prof)
        assert find_starting_index(strat) == 1


class TestSteadyState:
    def test_zero_strategy(self):
        prof = profile(uniform_pmf(5))
        pattern = steady_state(solve_optimal(prof, 0.0), 100.0)
        assert np.array_equal(pattern.b, np.zeros(5))
        assert pattern.start_index == 1

    def test_single_flow_fixture(self):
        pattern = steady_state(single_flow_fixture(), 1000.0)
        assert pattern.start_index == 2
        assert np.array_equal(pattern.s_prime, [0.1, 0, 0, 0])
        assert np.array_equal(pattern.r_prime, [0, 0, 0, 0.1])
        assert np.allclose(pattern.b, [0.1, 0.1, 0.1, 0.0], atol=1e-15)
        assert pattern.b[-1] == 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            steady_state(single_flow_fixture(), 0.0)

    def test_prefix_sums_nonnegative_for_solver_outputs(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.choice([3, 8, 24]))
            q = rng.dirichlet(np.ones(n))
            prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=500.0)
            phi = rng.uniform(0, 1) * critical_rate(prof)
            pattern = steady_state(solve_optimal(prof, phi), 500.0)
            prefix = np.cumsum(pattern.s_prime - pattern.r_prime)
            assert prefix.min() >= -1e-12
            assert pattern.b[-1] == 0.0

    def test_convergence_check_runs_for_random_strategies(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            strat = random_feasible_strategy(rng, n=10)
            steady_state(strat, 100.0)  # raises on any internal inconsistency

    def test_offset_formula_matches_heaviside_form(self):
        # the shift applied to a run from slot j is start - j + n*step(j - start),
        # with the unit step at zero; the modular form must agree everywhere
        rng = np.random.default_rng(9)
        for _ in range(50):
            strat = random_feasible_strategy(rng, n=7)
            start = find_starting_index(strat)
            n = 7
            for j in range(1, n + 1):
                modular = (start - j) % n or n
                heaviside = start - j + n * (1 if j - start >= 0 else 0)
                assert modular == heaviside

    def test_pattern_repeats_when_run_longer(self):
        strat = single_flow_fixture()
        pattern = steady_state(strat, 1000.0)
        a = np.asarray(strat.s) - np.asarray(strat.r)
        level = 0.0
        levels = []
        for j in range(3 * 4):
            level = max(level + a[(pattern.start_index - 1 + j) % 4], 0.0)
            levels.append(level)
        assert np.allclose(levels, np.tile(pattern.b, 3), atol=1e-15)


class TestCapacity:
    def test_zero_strategy(self):
        prof = profile(uniform_pmf(4))
        assert capacity(steady_state(solve_optimal(prof, 0.0), 100.0)) == 0.0

    def test_single_flow_fixture(self):
        assert capacity(steady_state(single_flow_fixture(), 1000.0)) == pytest.approx(100.0)

    def test_scales_with_alpha(self):
        strat = single_flow_fixture()
        assert capacity(steady_state(strat, 2000.0)) == pytest.approx(200.0)


class TestDelayDistribution:
    def test_zero_strategy(self):
        prof = profile(uniform_pmf(4))
        dist = delay_distribution(steady_state(solve_optimal(prof, 0.0), 100.0))
        assert np.array_equal(dist.pmf, np.zeros(4))
        assert dist.expected_unconditional == 0.0
        assert dist.expected_conditional == 0.0

    def test_single_flow_fixture(self):
        dist = delay_distribution(steady_state(single_flow_fixture(), 1000.0))
        expected = np.zeros(4)
        expected[2] = 0.1
        assert np.allclose(dist.pmf, expected, atol=1e-15)
        assert dist.expected_unconditional == pytest.approx(0.3, abs=1e-12)
        assert dist.expected_conditional == pytest.approx(3.0, abs=1e-12)
        assert dist.conditional_hours == pytest.approx(3 * 6.0, abs=1e-9)  # 6h slots

    def test_two_flow_example(self):
        prof = profile(uniform_pmf(3))
        strat = DeferralStrategy(s=[0.1, 0.1, 0], r=[0, 0, 0.2], phi=0.2, q_ref=prof)
        dist = delay_distribution(steady_state(strat, 300.0))
        assert np.allclose(dist.pmf, [0.1, 0.1, 0.0], atol=1e-12)
        assert dist.expected_unconditional == pytest.approx(0.3, abs=1e-12)

    def test_mass_equals_phi_for_solver_outputs(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.choice([3, 8, 24]))
            q = rng.dirichlet(np.ones(n))
            prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=500.0)
            phi = rng.uniform(0.05, 1.0) * critical_rate(prof)
            dist = delay_distribution(steady_state(solve_optimal(prof, phi), 500.0))
            assert dist.pmf.sum() == pytest.approx(phi, abs=1e-9)
            assert dist.pmf.shape[0] == n
            assert (dist.pmf >= 0).all()
            if phi > 0:
                assert 1.0 - 1e-9 <= dist.expected_conditional <= n + 1e-9

    def test_non_causal_pattern_rejected(self):
        pattern = SteadyStatePattern(
            start_index=1,
            b=np.array([0.0, 0.1, 0.0]),
            s_prime=np.array([0.0, 0.1, 0.0]),
            r_prime=np.array([0.1, 0.0, 0.0]),
            alpha=100.0,
            phi=0.1,
        )
        with pytest.raises(ValueError, match="non-causal"):
            forwarding_hazards(pattern)
        with pytest.raises(ValueError, match="non-causal"):
            delay_distribution(pattern)


class TestAnalyzeBuffer:
    def test_bundles_results(self):
        prof = profile([0.5, 0.3, 0.2], count=600.0)
        strat = solve_optimal(prof, 0.1)
        pattern, cap, dist = analyze_buffer(strat)
        assert cap == capacity(pattern)
        assert dist.pmf.sum() == pytest.approx(0.1, abs=1e-12)

    def test_alpha_override(self):
        prof = profile([0.5, 0.3, 0.2], count=600.0)
        strat = solve_optimal(prof, 0.1)
        _, cap_default, _ = analyze_buffer(strat)
        _, cap_big, _ = analyze_buffer(strat, alpha=6000.0)
        assert cap_big == pytest.approx(10 * cap_default)

    def test_requires_alpha_without_count(self):
        prof = profile([0.5, 0.3, 0.2], count=0.0)
        strat = solve_optimal(prof, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            analyze_buffer(strat)

    def test_refuses_rates_beyond_critical(self):
        prof = profile(uniform_pmf(4), count=100.0)  # critical rate is zero
        strat = DeferralStrategy(s=[0, 0.1, 0, 0], r=[0.1, 0, 0, 0], phi=0.1, q_ref=prof)
        with pytest.raises(ValueError, match="critical rate"):
            analyze_buffer(strat)


# -- scalar reference ---------------------------------------------------------
# Per-slot scalar loops that the vectorized buffer analysis is checked
# against.  The arithmetic is done in the same order, so start index,
# occupancy and hazards must match bit for bit; the pmf within 1e-15.


def _ref_occupancy_from(a, start, steps):
    n = a.shape[0]
    out = np.empty(steps)
    level = 0.0
    for j in range(steps):
        level = max(level + a[(start - 1 + j) % n], 0.0)
        out[j] = level
    return out


def ref_steady_state(strat, alpha):
    """Reference steady state: one scalar run per start, behind the same
    entry checks as :func:`steady_state`."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    stored, forwarded = float(np.sum(strat.s)), float(np.sum(strat.r))
    if abs(stored - forwarded) > CAUSALITY_ATOL:
        raise ValueError(
            f"unbalanced strategy: sum(s) = {stored!r} and sum(r) = {forwarded!r} differ "
            f"by {stored - forwarded!r}, more than {CAUSALITY_ATOL!r}; the buffer cannot drain"
        )
    a = np.asarray(strat.s, dtype=float) - np.asarray(strat.r, dtype=float)
    n = a.shape[0]
    start = find_starting_index(strat)
    order = [(start - 1 + j) % n for j in range(n)]
    s_prime = np.asarray(strat.s, dtype=float)[order]
    r_prime = np.asarray(strat.r, dtype=float)[order]
    prefix = np.cumsum(s_prime - r_prime)
    if prefix.min() < -CAUSALITY_ATOL:
        raise ValueError(
            "internal inconsistency: negative prefix sum "
            f"{prefix.min()!r} from starting index {start}"
        )
    b = _ref_occupancy_from(a, start, n)
    if abs(b[-1]) > CAUSALITY_ATOL:
        raise ValueError(f"internal inconsistency: occupancy ends at {b[-1]!r}, expected 0")
    b[-1] = 0.0
    for j in range(1, n + 1):
        offset = (start - j) % n or n
        run = _ref_occupancy_from(a, j, offset + n)
        if not np.allclose(run[offset:], b, rtol=0.0, atol=CAUSALITY_ATOL):
            raise ValueError(
                f"internal inconsistency: recurrence from slot {j} does not "
                f"converge onto the steady pattern after {offset} slots"
            )
    return SteadyStatePattern(
        start_index=start, b=b, s_prime=s_prime, r_prime=r_prime,
        alpha=float(alpha), phi=strat.phi, slot_duration=strat.q_ref.scheme.slot_duration,
    )


def ref_forwarding_hazards(pattern):
    n = pattern.n
    hazards = np.zeros(n)
    for j in range(1, n + 1):
        rj = pattern.r_prime[j - 1]
        if rj <= ZERO_ATOL:
            continue
        prev = 0.0 if j == 1 else pattern.b[j - 2]
        if prev <= CAUSALITY_ATOL:
            raise ValueError(
                f"non-causal pattern: forwarding {rj!r} at reordered slot {j} "
                "with an empty buffer"
            )
        hazards[j - 1] = min(rj / prev, 1.0)
    return hazards


def ref_delay_pmf(pattern):
    n = pattern.n
    s = pattern.s_prime
    hazards = ref_forwarding_hazards(pattern)
    pmf = np.zeros(n)
    for k in range(1, n + 1):
        sk = s[k - 1]
        if sk <= ZERO_ATOL:
            continue
        survive = 1.0
        for delta in range(1, n + 1):
            h = hazards[(k + delta - 1) % n]
            if h > 0.0:
                pmf[delta - 1] += sk * survive * h
                survive *= 1.0 - h
                if survive <= 0.0:
                    break
    return pmf


def outcome(fn, *args):
    """``("ok", result)`` or ``("raise", message)`` for a ValueError."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "raise", str(exc)


KINDS = (
    "one-slot", "uniform", "two-slot", "near-uniform", "solver", "random", "dense", "dust",
)


def drawn_strategy(kind, n, seed, fraction):
    """A strategy of the given kind at ``fraction`` of its largest rate.

    Solver outputs of the degenerate and Dirichlet(1) profiles; ``random``
    stores on a random set of slots and forwards on the rest, a causal but
    not optimal pattern; ``dense`` stores and forwards in every slot, which
    is non-causal; ``dust`` does the same on a profile whose entries below
    ``ZERO_ATOL`` get snapped away, which can unbalance the two masses.
    """
    rng = np.random.default_rng(seed)
    if kind == "one-slot":
        q = np.zeros(n)
        q[rng.integers(n)] = 1.0
    elif kind == "uniform":
        q = uniform_pmf(n)
    elif kind == "two-slot":
        q = np.zeros(n)
        q[rng.choice(n, size=2, replace=False)] = rng.dirichlet([1.0, 1.0])
    elif kind == "near-uniform":
        q = uniform_pmf(n) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, n))
        q /= q.sum()
    else:
        q = rng.dirichlet(np.full(n, 0.05 if kind == "dust" else 1.0))
    prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=1000.0)
    if kind == "random":
        stores = rng.permutation(n) < rng.integers(1, n)
        phi = fraction * q[stores].sum()
        r = np.zeros(n)
        r[~stores] = phi * rng.dirichlet(np.ones(n - stores.sum()))
        return DeferralStrategy(s=np.where(stores, q * fraction, 0.0), r=r, phi=phi, q_ref=prof)
    if kind in ("dense", "dust"):
        phi = fraction * 0.5
        return DeferralStrategy(s=phi * q, r=phi * rng.dirichlet(np.ones(n)), phi=phi, q_ref=prof)
    return solve_optimal(prof, fraction * critical_rate(prof))


class TestScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.sampled_from([2, 3, 24, 168]),
        seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.0, 1.0),
    )
    def test_matches_scalar_reference(self, kind, n, seed, fraction):
        strat = drawn_strategy(kind, n, seed, fraction)
        got = outcome(steady_state, strat, 500.0)
        want = outcome(ref_steady_state, strat, 500.0)
        assert got[0] == want[0]
        if got[0] == "raise":
            assert got[1] == want[1]
            return
        pattern, ref = got[1], want[1]
        assert pattern.start_index == ref.start_index
        assert np.array_equal(pattern.b, ref.b)
        assert np.array_equal(pattern.s_prime, ref.s_prime)
        assert np.array_equal(pattern.r_prime, ref.r_prime)

        got = outcome(forwarding_hazards, pattern)
        want = outcome(ref_forwarding_hazards, pattern)
        assert got[0] == want[0]
        if got[0] == "raise":
            assert got[1] == want[1]
            assert outcome(delay_distribution, pattern) == want
            return
        assert np.array_equal(got[1], want[1])
        pmf = delay_distribution(pattern).pmf
        assert np.abs(pmf - ref_delay_pmf(pattern)).max() <= 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.sampled_from([2, 3, 24, 168]), seed=st.integers(0, 2**32 - 1))
    def test_hazards_match_on_arbitrary_patterns(self, n, seed):
        # patterns no strategy produces: the buffer empties mid-cycle, so
        # several slots can forward from an empty buffer; the first is named
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 0.1, n) * (rng.random(n) < 0.7)
        b[-1] = 0.0
        r = rng.uniform(0.0, 0.05, n) * (rng.random(n) < 0.5)
        s = rng.uniform(0.0, 0.05, n) * (rng.random(n) < 0.5)
        pattern = SteadyStatePattern(
            start_index=1, b=b, s_prime=s, r_prime=r, alpha=1.0, phi=float(s.sum())
        )
        got = outcome(forwarding_hazards, pattern)
        want = outcome(ref_forwarding_hazards, pattern)
        assert got[0] == want[0]
        if got[0] == "raise":
            assert got[1] == want[1]
            return
        assert np.array_equal(got[1], want[1])
        assert np.abs(delay_distribution(pattern).pmf - ref_delay_pmf(pattern)).max() <= 1e-15

    def test_minute_resolution(self):
        n = 1440
        q = np.random.default_rng(1440).dirichlet(np.ones(n))
        prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=1e5)
        phi = 0.6 * critical_rate(prof)
        pattern = steady_state(solve_optimal(prof, phi), 1e5)
        dist = delay_distribution(pattern)
        assert dist.pmf.sum() == pytest.approx(phi, abs=1e-9)
        assert pattern.b[-1] == 0.0
        assert 1.0 <= dist.expected_conditional <= n

    def test_lockstep_check_catches_a_perturbed_pattern(self):
        # keeps the all-starts check from going silently dead: one slot of
        # the pattern off by twice the tolerance must be reported
        prof = profile(np.random.default_rng(2).dirichlet(np.ones(24)))
        pattern = steady_state(solve_optimal(prof, 0.2), 1.0)
        a = pattern.s_prime - pattern.r_prime
        b, levels = _first_cycle(a)
        b[-1] = 0.0
        _check_all_starts(a, b, levels, pattern.start_index)
        b[7] += 2e-12
        offset = (pattern.start_index - 1) % 24 or 24
        message = f"recurrence from slot 1 does not converge onto the steady pattern after {offset} "
        with pytest.raises(ValueError, match=message):
            _check_all_starts(a, b, levels, pattern.start_index)


def test_unbalanced_strategy_is_refused():
    # DeferralStrategy accepts a mass error up to MASS_ATOL; snapping the
    # dust entries of q leaves sum(s) - sum(r) = -8.1e-12, which no cycle drains
    n, phi = 12, 0.9
    q = np.array([0.5, 0.5 - 9e-12] + [9e-13] * 10)
    strat = DeferralStrategy(s=phi * q, r=np.full(n, phi / n), phi=phi, q_ref=profile(q))
    message = r"unbalanced strategy: sum\(s\) = .* and sum\(r\) = .* differ by -8\.0\d*e-12"
    with pytest.raises(ValueError, match=message):
        steady_state(strat, 100.0)

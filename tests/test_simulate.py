import contextlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from deferral import buffer, simulate
from deferral.buffer import capacity, forwarding_hazards, steady_state
from deferral.profiles import ActivityProfile, SlotScheme, critical_rate, uniform_pmf
from deferral.simulate import (
    _DRAIN_ATOL,
    RNG_ALGORITHM,
    SimConfig,
    SimReport,
    empirical_vs_analytic,
    run_simulation,
)
from deferral.strategies import ZERO_ATOL, DeferralStrategy, solve_optimal


def profile(q, count=1000.0):
    q = np.asarray(q, dtype=float)
    return ActivityProfile(SlotScheme(q.size, 86400.0), q, count=count)


def single_flow_cfg(alpha=10_000, cycles=100, seed=42, discipline="uniform_random"):
    prof = profile(uniform_pmf(4))
    strat = DeferralStrategy(s=[0, 0.1, 0, 0], r=[0.1, 0, 0, 0], phi=0.1, q_ref=prof)
    return SimConfig(
        profile=prof,
        strategy=strat,
        alpha=alpha,
        cycles=cycles,
        warmup_cycles=2,
        discipline=discipline,
        seed=seed,
    )


def random_cfg(seed, phi=0.1, alpha=10_000, cycles=60):
    rng = np.random.default_rng(seed)
    prof = ActivityProfile(SlotScheme.day(), rng.dirichlet(np.ones(24)), count=2000.0)
    strat = solve_optimal(prof, phi)
    return SimConfig(
        profile=prof, strategy=strat, alpha=alpha, cycles=cycles, warmup_cycles=2, seed=seed
    )


class TestSimConfig:
    def test_validates_fields(self):
        prof = profile(uniform_pmf(4))
        strat = solve_optimal(prof, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            SimConfig(profile=prof, strategy=strat, alpha=0, cycles=10)
        with pytest.raises(ValueError, match="warmup"):
            SimConfig(profile=prof, strategy=strat, alpha=10, cycles=2, warmup_cycles=2)
        with pytest.raises(ValueError, match="discipline"):
            SimConfig(profile=prof, strategy=strat, alpha=10, cycles=10, discipline="mru")
        for bad in (
            dict(alpha=True, cycles=10),
            dict(alpha=10.0, cycles=10),
            dict(alpha=10, cycles=True),
            dict(alpha=10, cycles=2.5),
            dict(alpha=10, cycles=10, warmup_cycles=False),
            dict(alpha=10, cycles=10, warmup_cycles=1.5),
            dict(alpha=10, cycles=np.float64(10)),
        ):
            name = next(k for k, v in bad.items() if type(v) is not int)
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(profile=prof, strategy=strat, **bad)
        SimConfig(profile=prof, strategy=strat, alpha=np.int64(10), cycles=np.int32(3))

    def test_rejects_mismatched_profile(self):
        prof = profile(uniform_pmf(4))
        other = profile([0.4, 0.3, 0.2, 0.1])
        strat = solve_optimal(other, 0.05)
        with pytest.raises(ValueError, match="different profile"):
            SimConfig(profile=prof, strategy=strat, alpha=10, cycles=10)


class TestRunSimulation:
    def test_zero_strategy(self):
        prof = profile([0.4, 0.3, 0.2, 0.1])
        cfg = SimConfig(
            profile=prof,
            strategy=solve_optimal(prof, 0.0),
            alpha=5000,
            cycles=50,
            warmup_cycles=2,
            seed=7,
        )
        rep = run_simulation(cfg)
        assert rep.delayed_count == 0
        assert rep.peak_occupancy == 0
        assert rep.total_count == 48 * 5000
        # posted counts follow q within sampling noise
        frac = rep.per_slot_posted / rep.total_count
        assert np.abs(frac - prof.q).max() < 4 * np.sqrt(0.25 / rep.total_count) + 1e-3

    def test_single_flow_exact_delay(self):
        rep = run_simulation(single_flow_cfg())
        assert rep.mean_conditional_delay == 3.0
        nonzero = np.nonzero(rep.delay_histogram)[0]
        assert np.array_equal(nonzero, [2])  # every delayed message waits 3 slots
        se = np.sqrt(0.1 * 0.9 / rep.total_count)
        assert abs(rep.delayed_fraction - 0.1) < 3 * se

    def test_single_flow_peak_in_band(self):
        rep = run_simulation(single_flow_cfg(cycles=50, seed=3))
        assert abs(rep.peak_occupancy - 1000) <= 3 * np.sqrt(1000)

    def test_deterministic_given_seed(self):
        a = run_simulation(single_flow_cfg(seed=11))
        b = run_simulation(single_flow_cfg(seed=11))
        assert np.array_equal(a.delay_histogram, b.delay_histogram)
        assert np.array_equal(a.per_slot_posted, b.per_slot_posted)
        assert np.array_equal(a.per_cycle_delayed, b.per_cycle_delayed)
        assert a.peak_occupancy == b.peak_occupancy
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_outcome(self):
        a = run_simulation(single_flow_cfg(seed=11))
        b = run_simulation(single_flow_cfg(seed=12))
        assert not np.array_equal(a.per_slot_posted, b.per_slot_posted)

    def test_posted_messages_conserved(self):
        rep = run_simulation(random_cfg(seed=5))
        assert rep.per_slot_posted.sum() == rep.total_count

    def test_posted_profile_matches_apparent(self):
        cfg = random_cfg(seed=33, phi=0.1, cycles=120)
        rep = run_simulation(cfg)
        t = cfg.strategy.apparent()
        frac = rep.per_slot_posted / rep.total_count
        se = np.sqrt(t * (1 - t) / rep.total_count)
        assert (np.abs(frac - t) <= 4 * se + 1e-9).all()

    def test_max_delay_within_one_cycle(self):
        cfg = random_cfg(seed=19, phi=0.2, cycles=80)
        rep = run_simulation(cfg)  # raises internally if a cycle ends undrained
        assert rep.delay_histogram.shape[0] == 24
        assert rep.delayed_count > 0

    def test_posted_profile_uniform_at_critical_rate(self):
        rng = np.random.default_rng(27)
        prof = ActivityProfile(SlotScheme.day(), rng.dirichlet(np.ones(24)), count=2000.0)
        strat = solve_optimal(prof, critical_rate(prof))
        cfg = SimConfig(
            profile=prof, strategy=strat, alpha=10_000, cycles=120, warmup_cycles=2, seed=4
        )
        rep = run_simulation(cfg)
        assert rep.total_count >= 1_000_000
        chi2, p = stats.chisquare(rep.per_slot_posted)
        assert p > 0.01

    def test_fifo_and_lifo_disciplines(self):
        uni = run_simulation(single_flow_cfg(seed=2))
        fifo = run_simulation(single_flow_cfg(seed=2, discipline="fifo"))
        lifo = run_simulation(single_flow_cfg(seed=2, discipline="lifo"))
        # single-flow case: all disciplines drain the same single group
        for rep in (fifo, lifo):
            assert rep.mean_conditional_delay == 3.0
        # two-group case separates the disciplines
        prof = profile(uniform_pmf(3))
        strat = DeferralStrategy(s=[0.1, 0.1, 0], r=[0, 0, 0.2], phi=0.2, q_ref=prof)
        reps = {}
        for disc in ("uniform_random", "fifo", "lifo"):
            cfg = SimConfig(
                profile=prof, strategy=strat, alpha=5000, cycles=40,
                warmup_cycles=2, discipline=disc, seed=8,
            )
            reps[disc] = run_simulation(cfg)
        # at the drain slot everything leaves regardless of discipline here,
        # so only the analytic-comparison path distinguishes them; check the
        # runs completed and conserve mass
        for rep in reps.values():
            assert rep.per_slot_posted.sum() == rep.total_count
        assert uni.total_count == fifo.total_count == lifo.total_count
        # n = 4, groups stored in slots 1 and 2: slot 3 releases half the
        # buffer and slot 4 the rest, so the discipline picks who waits longer
        prof = profile(uniform_pmf(4))
        strat = DeferralStrategy(s=[0.1, 0.1, 0, 0], r=[0, 0, 0.1, 0.1], phi=0.2, q_ref=prof)
        hist = {}
        for disc in ("fifo", "lifo"):
            cfg = SimConfig(
                profile=prof, strategy=strat, alpha=5000, cycles=20,
                warmup_cycles=2, discipline=disc, seed=8,
            )
            hist[disc] = run_simulation(cfg).delay_histogram
        # FIFO: slot 3 takes the slot-1 group, slot 4 the slot-2 group
        assert hist["fifo"][1] >= 0.9 * hist["fifo"].sum()
        # LIFO: slot 3 takes the slot-2 group, slot 4 the slot-1 group
        assert hist["lifo"][0] + hist["lifo"][2] >= 0.9 * hist["lifo"].sum()

    def test_rejects_overlapping_strategy(self):
        prof = profile(uniform_pmf(3))
        strat = DeferralStrategy(s=[0.2, 0, 0.1], r=[0, 0, 0.3], phi=0.3, q_ref=prof)
        cfg = SimConfig(profile=prof, strategy=strat, alpha=100, cycles=10)
        with pytest.raises(ValueError, match="stores and forwards"):
            run_simulation(cfg)


class TestEmpiricalVsAnalytic:
    def test_single_flow_exact_agreement(self):
        rec = empirical_vs_analytic(single_flow_cfg())
        assert rec.analytic_conditional_delay == pytest.approx(3.0, abs=1e-12)
        assert rec.empirical_conditional_delay == 3.0
        assert rec.analytic_capacity == pytest.approx(1000.0)
        assert rec.flags == []

    def test_zero_rate_both_zero(self):
        prof = profile(uniform_pmf(4))
        cfg = SimConfig(
            profile=prof, strategy=solve_optimal(prof, 0.0),
            alpha=1000, cycles=20, warmup_cycles=2, seed=1,
        )
        rec = empirical_vs_analytic(cfg)
        assert rec.analytic_delta_bar == 0.0
        assert rec.empirical_conditional_delay == 0.0
        assert rec.analytic_capacity == 0.0
        assert rec.peak_occupancy == 0

    def test_random_profile_within_three_se(self):
        rec = empirical_vs_analytic(random_cfg(seed=123, cycles=100))
        assert rec.flags == []
        assert rec.conditional_delay_se > 0

    def test_capacity_band_on_pattern_peak(self):
        cfg = random_cfg(seed=321, phi=0.15, cycles=100)
        rec = empirical_vs_analytic(cfg)
        band = 3 * np.sqrt(rec.analytic_capacity)
        assert abs(rec.empirical_pattern_peak - rec.analytic_capacity) <= band

    def test_requires_uniform_random(self):
        with pytest.raises(ValueError, match="uniform_random"):
            empirical_vs_analytic(single_flow_cfg(discipline="fifo"))

    def test_matches_buffer_module(self):
        cfg = random_cfg(seed=55)
        rec = empirical_vs_analytic(cfg)
        pattern = steady_state(cfg.strategy, float(cfg.alpha))
        assert rec.analytic_capacity == capacity(pattern)
        assert rec.analytic_pmf.sum() == pytest.approx(cfg.strategy.phi, abs=1e-9)


# -- scalar reference ---------------------------------------------------------
# The list-based buffer that :func:`run_simulation` replaced: parallel lists
# of (unrolled arrival index, count), rebuilt after every release.  Both
# consume the random stream in the same order, so every report field must
# match exactly.


def _ref_take_in_order(counts, take, oldest_first):
    drawn = np.zeros_like(counts)
    order = range(len(counts)) if oldest_first else range(len(counts) - 1, -1, -1)
    remaining = take
    for g in order:
        k = min(int(counts[g]), remaining)
        drawn[g] = k
        remaining -= k
        if remaining == 0:
            break
    return drawn


def ref_run_simulation(cfg):
    profile = cfg.profile
    strat = cfg.strategy
    n = profile.n
    alpha = int(cfg.alpha)

    overlap = np.minimum(strat.s, strat.r)
    if overlap.max() > ZERO_ATOL:
        i = int(np.argmax(overlap))
        raise ValueError(
            f"slot {i + 1} both stores and forwards; extraction semantics are "
            "only defined for strategies with disjoint storing/forwarding support"
        )

    pattern = steady_state(strat, float(alpha))
    hazards = forwarding_hazards(pattern)
    start = pattern.start_index
    orig_slot = (np.arange(n) + start - 1) % n
    q_rot = profile.q[orig_slot]
    q_rot = q_rot / q_rot.sum()
    s_rot = pattern.s_prime
    p_store = np.clip(s_rot / np.where(q_rot > 0, q_rot, 1.0), 0.0, 1.0)
    p_store[q_rot == 0] = 0.0

    rng = np.random.default_rng(cfg.seed)

    buf_arrivals = []
    buf_counts = []
    acc = np.zeros(n)

    delay_hist = np.zeros(n, dtype=np.int64)
    per_slot_posted = np.zeros(n, dtype=np.int64)
    occ_sum = np.zeros(n)
    measured = cfg.cycles - cfg.warmup_cycles
    per_cycle_delayed = np.zeros(measured, dtype=np.int64)
    per_cycle_delay_sum = np.zeros(measured)
    peak = 0
    generated = 0
    posted_total = 0

    for cycle in range(cfg.cycles):
        counting = cycle >= cfg.warmup_cycles
        mc = cycle - cfg.warmup_cycles
        arrivals = rng.multinomial(alpha, q_rot)
        stored = rng.binomial(arrivals, p_store)
        if counting:
            generated += alpha

        for j in range(n):
            cur = cycle * n + j
            eligible = sum(buf_counts)

            h = hazards[j]
            take = 0
            if h > 0.0 and eligible > 0:
                if h >= 1.0 - _DRAIN_ATOL:
                    take = eligible
                    acc[j] = 0.0
                else:
                    acc[j] += eligible * h
                    take = int(acc[j])
                    acc[j] -= take

            if take > 0:
                counts_arr = np.asarray(buf_counts, dtype=np.int64)
                if cfg.discipline == "uniform_random":
                    drawn = rng.multivariate_hypergeometric(counts_arr, take)
                elif cfg.discipline == "fifo":
                    drawn = _ref_take_in_order(counts_arr, take, oldest_first=True)
                else:
                    drawn = _ref_take_in_order(counts_arr, take, oldest_first=False)
                if counting:
                    for g, k in enumerate(drawn):
                        if k:
                            delta = cur - buf_arrivals[g]
                            if not 1 <= delta <= n:
                                raise AssertionError(
                                    f"internal error: observed delay {delta} outside 1..{n}"
                                )
                            delay_hist[delta - 1] += k
                            per_cycle_delayed[mc] += k
                            per_cycle_delay_sum[mc] += k * delta
                new_counts = counts_arr - drawn
                keep = new_counts > 0
                buf_arrivals = [a for a, keepit in zip(buf_arrivals, keep) if keepit]
                buf_counts = [int(c) for c in new_counts[keep]]

            if stored[j] > 0:
                buf_arrivals.append(cur)
                buf_counts.append(int(stored[j]))

            direct = int(arrivals[j] - stored[j])
            if counting:
                per_slot_posted[orig_slot[j]] += direct + take
                posted_total += direct + take
                level = sum(buf_counts)
                occ_sum[j] += level
                if level > peak:
                    peak = level

    leftover = sum(buf_counts)
    delayed_count = int(delay_hist.sum())
    if generated != posted_total or leftover != 0:
        raise AssertionError(
            f"message conservation violated: generated {generated}, "
            f"posted {posted_total}, left in buffer {leftover}"
        )

    mean_cond = float(per_cycle_delay_sum.sum() / delayed_count) if delayed_count else 0.0
    mean_occ = np.empty(n)
    mean_occ[orig_slot] = occ_sum / measured

    return SimReport(
        delay_histogram=delay_hist,
        delayed_count=delayed_count,
        total_count=generated,
        mean_conditional_delay=mean_cond,
        peak_occupancy=int(peak),
        per_slot_posted=per_slot_posted,
        seed_echo=cfg.seed,
        rng_algorithm=RNG_ALGORITHM,
        discipline=cfg.discipline,
        start_index=start,
        measured_cycles=measured,
        mean_occupancy=mean_occ,
        per_cycle_delayed=per_cycle_delayed,
        per_cycle_delay_sum=per_cycle_delay_sum,
    )


def sim_outcome(fn, cfg):
    """``("ok", report)``, ``("raise", message)`` for a ValueError, or
    ``("undrained", None)`` for the conservation failure, which the two
    loops word differently."""
    try:
        return "ok", fn(cfg)
    except ValueError as exc:
        return "raise", str(exc)
    except AssertionError:
        return "undrained", None


@contextlib.contextmanager
def scaled_hazards(scale):
    """Scale the forwarding hazards that both loops read."""

    def scaled(pattern):
        return scale * buffer.forwarding_hazards(pattern)

    with mock.patch.object(simulate, "forwarding_hazards", scaled), mock.patch.object(
        sys.modules[__name__], "forwarding_hazards", scaled
    ):
        yield


SIM_KINDS = ("one-slot", "two-slot", "uniform", "dirichlet-0.05", "dirichlet-1", "overlap")


def drawn_config(kind, n, seed, fraction, discipline, alpha, cycles, warmup):
    """A simulation of the solver's strategy at ``fraction`` of the critical
    rate (clamped beyond it); ``overlap`` stores and forwards in every slot,
    which both loops refuse."""
    rng = np.random.default_rng(seed)
    if kind in ("one-slot", "two-slot"):
        q = np.zeros(n)
        hot = rng.choice(n, size=1 if kind == "one-slot" else 2, replace=False)
        q[hot] = rng.dirichlet(np.ones(hot.size))
    elif kind == "uniform":
        q = uniform_pmf(n)
    else:
        q = rng.dirichlet(np.full(n, 0.05 if kind == "dirichlet-0.05" else 1.0))
    prof = ActivityProfile(SlotScheme(n, 86400.0), q, count=float(alpha))
    if kind == "overlap":
        phi = fraction / 3  # in [0, 0.5]
        strat = DeferralStrategy(s=phi * q, r=phi * rng.dirichlet(np.ones(n)), phi=phi, q_ref=prof)
    else:
        strat = solve_optimal(prof, min(fraction * critical_rate(prof), 0.999))
    return SimConfig(
        profile=prof, strategy=strat, alpha=alpha, cycles=cycles,
        warmup_cycles=min(warmup, cycles - 1), discipline=discipline, seed=seed,
    )


def assert_reports_equal(got, want):
    for field in SimReport.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field
        else:
            assert type(a) is type(b) and a == b, field


CONFIGS = dict(
    kind=st.sampled_from(SIM_KINDS),
    n=st.sampled_from([2, 3, 24, 168]),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.5),
    discipline=st.sampled_from(["uniform_random", "fifo", "lifo"]),
    alpha=st.integers(1, 20_000),
    cycles=st.integers(1, 12),
    warmup=st.integers(0, 11),
)


def assert_matches_reference(kind, n, seed, fraction, discipline, alpha, cycles, warmup):
    cycles = min(cycles, 600 // n)  # at most 600 slot steps
    cfg = drawn_config(kind, n, seed, fraction, discipline, alpha, cycles, warmup)
    got, want = sim_outcome(run_simulation, cfg), sim_outcome(ref_run_simulation, cfg)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert_reports_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


class TestScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**CONFIGS)
    # partial releases from several groups, where FIFO and LIFO part ways
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="fifo",
             alpha=10_000, cycles=4, warmup=1)
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="lifo",
             alpha=10_000, cycles=4, warmup=1)
    def test_matches_scalar_reference(self, **config):
        assert_matches_reference(**config)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**CONFIGS)
    def test_undrained_runs_match_reference(self, **config):
        # nothing is ever released: both loops must refuse a run that stored anything
        with scaled_hazards(0.0):
            assert_matches_reference(**config)

    def test_undrained_cycle_raises(self):
        # halved hazards: the drain slot releases only half the buffer
        with scaled_hazards(0.5), pytest.raises(AssertionError, match="ended with .* in the buffer"):
            run_simulation(random_cfg(seed=5, cycles=3))

import numpy as np
import pytest
from scipy import stats

from deferral.buffer import capacity, steady_state
from deferral.profiles import ActivityProfile, SlotScheme, critical_rate, uniform_pmf
from deferral.simulate import SimConfig, empirical_vs_analytic, run_simulation
from deferral.strategies import DeferralStrategy, solve_optimal


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
        rep = run_simulation(cfg)  # raises internally if a delay exceeds n
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

import contextlib
import dataclasses
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
    _SCALAR_GROUPS,
    RNG_ALGORITHM,
    SimConfig,
    SimReport,
    _draw_release,
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
            dict(alpha=10, cycles=10, seed=True),
            dict(alpha=10, cycles=10, seed=1.0),
        ):
            name = next(k for k, v in bad.items() if type(v) is not int)
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(profile=prof, strategy=strat, **bad)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SimConfig(profile=prof, strategy=strat, alpha=10, cycles=10, seed=-1)
        SimConfig(profile=prof, strategy=strat, alpha=np.int64(10), cycles=np.int32(3))
        SimConfig(profile=prof, strategy=strat, alpha=10, cycles=10, seed=np.uint64(2**64 - 1))

    def test_rejects_mismatched_profile(self):
        prof = profile(uniform_pmf(4))
        other = profile([0.4, 0.3, 0.2, 0.1])
        strat = solve_optimal(other, 0.05)
        with pytest.raises(ValueError, match="different profile"):
            SimConfig(profile=prof, strategy=strat, alpha=10, cycles=10)
        # 2e-6 apart: far beyond atol=1e-12, though within numpy's default rtol
        near = profile([0.400002, 0.3, 0.199998, 0.1])
        with pytest.raises(ValueError, match="different profile"):
            SimConfig(profile=near, strategy=strat, alpha=10, cycles=10)
        # a strategy solved on another slot count
        rng = np.random.default_rng(4)
        day = profile(rng.dirichlet(np.ones(24)))
        strat = solve_optimal(profile(rng.dirichlet(np.ones(12))), 0.05)
        with pytest.raises(ValueError, match="different profile"):
            SimConfig(profile=day, strategy=strat, alpha=10, cycles=10)

    def test_is_immutable(self):
        cfg = single_flow_cfg(cycles=5)
        other = profile([0.4, 0.3, 0.2, 0.1])
        for field, value in [
            ("profile", other), ("strategy", solve_optimal(other, 0.05)), ("alpha", 2.5),
            ("cycles", 0), ("warmup_cycles", 9), ("discipline", "bogus"), ("seed", -1),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, value)
        assert (cfg.alpha, cfg.cycles, cfg.discipline) == (10_000, 5, "uniform_random")

    def test_replace_is_checked_as_construction(self):
        cfg = single_flow_cfg(cycles=5)
        with pytest.raises(ValueError, match="unknown discipline 'bogus'"):
            dataclasses.replace(cfg, discipline="bogus")
        with pytest.raises(ValueError, match="^cycles must be an integer >= 1, got 0$"):
            dataclasses.replace(cfg, cycles=0)
        assert dataclasses.replace(cfg, seed=7).seed == 7


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
        # the same for every run: a class attribute, not a field
        assert a.to_dict()["rng_algorithm"] == a.rng_algorithm == RNG_ALGORITHM == "numpy-pcg64"
        assert "rng_algorithm" not in SimReport.__dataclass_fields__

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

    @pytest.mark.parametrize("cycles, warmup", [(3, 2), (1, 0), (4, 3)])
    def test_refuses_fewer_than_two_measured_cycles(self, cycles, warmup):
        # one cycle gives no standard error: a zero one would flag sampling noise
        prof = profile([1.0, 0.0, 0.0, 0.0], count=100.0)
        cfg = SimConfig(profile=prof, strategy=solve_optimal(prof, 0.9), alpha=100,
                        cycles=cycles, warmup_cycles=warmup)
        message = (r"^analytic comparison needs at least 2 measured cycles, "
                   rf"got cycles {cycles} with warmup_cycles {warmup}$")
        unrun = mock.patch.object(simulate, "run_simulation", side_effect=AssertionError("ran"))
        with unrun, pytest.raises(ValueError, match=message):
            empirical_vs_analytic(cfg)

    def test_matches_buffer_module(self):
        cfg = random_cfg(seed=55)
        rec = empirical_vs_analytic(cfg)
        pattern = steady_state(cfg.strategy, float(cfg.alpha))
        assert rec.analytic_capacity == capacity(pattern)
        assert rec.analytic_pmf.sum() == pytest.approx(cfg.strategy.phi, abs=1e-9)

    def test_flags_a_run_that_leaves_the_analysed_strategy(self):
        # every forwarding slot drains in the run, while the analysis keeps the
        # strategy's hazards: delays shorten and the buffer empties early, but
        # every stored message is still delayed
        cfg = random_cfg(seed=1, phi=0.2)
        assert empirical_vs_analytic(cfg).flags == []

        def draining(pattern):
            return np.where(buffer.forwarding_hazards(pattern) > 0.0, 1.0, 0.0)

        with mock.patch.object(simulate, "forwarding_hazards", draining):
            rec = empirical_vs_analytic(cfg)
        assert len(rec.flags) == 2
        assert rec.flags[0].startswith("conditional delay ") and rec.flags[1].startswith("steady-pattern peak ")
        assert not rec.peak_within_band


class TestRandomStream:
    """``run_simulation`` makes no ``multivariate_hypergeometric`` call for a
    release of the whole buffer or a release from one arrival slot: the draw
    is forced there.  Seeded runs stay what they were only because numpy
    consumes no random numbers for such draws; a numpy that does would change
    every seeded simulation, and this test names the cause."""

    @pytest.mark.parametrize(
        "colors, take", [([3, 4, 5], 12), ([1, 2], 3), ([7], 7), ([7], 3), ([7], 1)]
    )
    def test_forced_draws_leave_the_generator_state(self, colors, take):
        rng = np.random.default_rng(17)
        rng.random()
        before = rng.bit_generator.state
        drawn = rng.multivariate_hypergeometric(np.array(colors, dtype=np.int64), take)
        assert rng.bit_generator.state == before
        assert drawn.tolist() == (colors if take == sum(colors) else [take])

    def test_free_draws_advance_the_generator(self):
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        rng.multivariate_hypergeometric(np.array([3, 4, 5]), 6)
        assert rng.bit_generator.state != before

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=11),
        take=st.integers(0, 11 * 10**6),
        seed=st.integers(0, 2**64 - 1),
    )
    # either side of the complement rule (take > total // 2 draws total - take),
    # where a later draw splits its population in half: the one case in which
    # drawing the complement gives other counts from the same random numbers
    @example(counts=[2, 2, 2, 2], take=4, seed=1)
    @example(counts=[2, 2, 2, 2], take=5, seed=1)
    @example(counts=[10, 20, 20], take=25, seed=6)
    @example(counts=[10, 20, 20], take=26, seed=6)
    @example(counts=[5, 0, 8, 1], take=8, seed=2)  # a slot with no messages
    def test_scalar_chain_is_numpys_draw(self, counts, take, seed):
        take %= sum(counts) + 1
        chain, ref, numpy = (np.random.default_rng(seed) for _ in range(3))
        want = numpy.multivariate_hypergeometric(counts, take).tolist()
        assert _marginal_draw(ref.hypergeometric, counts, sum(counts), take) == want
        # the slots, oldest first, released at slot j = len(counts): slot i's
        # messages land in hist[j - 1 - i]
        held, live, j = list(counts), list(range(len(counts))), len(counts)
        hist = [0] * j
        emptied = _draw_release(chain.hypergeometric, held, live, sum(counts), take, hist, j)
        assert [c - h for c, h in zip(counts, held)] == want
        assert hist[::-1] == want
        assert emptied == any(k and k == c for c, k in zip(counts, want))
        assert chain.bit_generator.state == numpy.bit_generator.state

    # a drain, and partial releases from one arrival slot on either side of
    # the complement rule: the chain takes them whole
    @pytest.mark.parametrize(
        "counts, take, want",
        [([3, 0, 4, 5], 12, [3, 0, 4, 5])] + [([0, 7], k, [0, k]) for k in (1, 3, 4, 6, 7)],
    )
    def test_forced_releases_draw_nothing(self, counts, take, want):
        def hypergeometric(*args):
            raise AssertionError(f"drew {args}")

        held, live, j = list(counts), [i for i, c in enumerate(counts) if c], len(counts)
        hist = [0] * j
        emptied = _draw_release(hypergeometric, held, live, sum(counts), take, hist, j)
        assert held == [c - k for c, k in zip(counts, want)]
        assert hist[::-1] == want
        assert emptied is any(k and k == c for c, k in zip(counts, want))


def _marginal_draw(hypergeometric, counts, total, take):
    """Draw ``take`` of ``total`` messages held in groups ``counts`` without
    replacement as numpy's "marginals" ``multivariate_hypergeometric`` does,
    one list of counts in, one out: the chain that
    :func:`deferral.simulate._draw_release` applies to the buffer as it draws."""
    flip = take > total // 2
    left = total - take if flip else take
    drawn = [0] * len(counts)
    remaining = total
    for g in range(len(counts) - 1):
        if not left:
            break
        remaining -= counts[g]
        drawn[g] = k = hypergeometric(counts[g], remaining, left)
        left -= k
    drawn[-1] = left
    if flip:
        drawn = [c - k for c, k in zip(counts, drawn)]
    return drawn


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
    return got


#: ``uniform_random`` runs whose widest partial release draws from exactly
#: ``_SCALAR_GROUPS`` and ``_SCALAR_GROUPS + 1`` arrival slots: the widest
#: scalar-chain draw and the narrowest ``multivariate_hypergeometric`` one.
AT_SCALAR_LIMIT = dict(kind="dirichlet-1", n=24, seed=1, fraction=1.0,
                       discipline="uniform_random", alpha=1000, cycles=3, warmup=1)
PAST_SCALAR_LIMIT = dict(kind="dirichlet-1", n=24, seed=3, fraction=1.0,
                         discipline="uniform_random", alpha=100, cycles=3, warmup=1)


class TestScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**CONFIGS)
    @example(**AT_SCALAR_LIMIT)
    @example(**PAST_SCALAR_LIMIT)
    # partial releases from several groups, where FIFO and LIFO part ways
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="fifo",
             alpha=10_000, cycles=4, warmup=1)
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="lifo",
             alpha=10_000, cycles=4, warmup=1)
    # a handful of messages: partial hazards often release the whole buffer
    # before the drain slot (11 of 20 releases here)
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="uniform_random",
             alpha=5, cycles=12, warmup=1)
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="fifo",
             alpha=5, cycles=12, warmup=1)
    @example(kind="dirichlet-1", n=24, seed=1, fraction=0.6, discipline="lifo",
             alpha=5, cycles=12, warmup=1)
    # one storing slot: most releases are partial and from one group (44 of 56)
    @example(kind="two-slot", n=24, seed=1, fraction=1.0, discipline="uniform_random",
             alpha=5, cycles=12, warmup=1)
    @example(kind="two-slot", n=24, seed=1, fraction=1.0, discipline="fifo",
             alpha=5, cycles=12, warmup=1)
    @example(kind="two-slot", n=24, seed=1, fraction=1.0, discipline="lifo",
             alpha=5, cycles=12, warmup=1)
    # the shape of the sim-validate workload: chains, multivariate draws and drains
    @example(kind="dirichlet-1", n=24, seed=5, fraction=1.0, discipline="uniform_random",
             alpha=10_000, cycles=25, warmup=2)
    @example(kind="dirichlet-1", n=24, seed=5, fraction=1.0, discipline="fifo",
             alpha=10_000, cycles=25, warmup=2)
    @example(kind="dirichlet-1", n=24, seed=5, fraction=1.0, discipline="lifo",
             alpha=10_000, cycles=25, warmup=2)
    def test_matches_scalar_reference(self, **config):
        status, report = assert_matches_reference(**config)
        if status == "ok":
            # Little's law: a message delayed d slots is in d end-of-slot occupancies
            delay_total = report.per_cycle_delay_sum.sum()
            occupancy_total = report.mean_occupancy.sum() * report.measured_cycles
            assert abs(occupancy_total - delay_total) <= 1e-12 * delay_total

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**CONFIGS)
    def test_undrained_runs_match_reference(self, **config):
        # nothing is ever released: both loops must refuse a run that stored anything
        with scaled_hazards(0.0):
            assert_matches_reference(**config)

    @pytest.mark.parametrize(
        "config, widest", [(AT_SCALAR_LIMIT, _SCALAR_GROUPS), (PAST_SCALAR_LIMIT, _SCALAR_GROUPS + 1)]
    )
    def test_pinned_runs_straddle_the_scalar_limit(self, config, widest):
        # every partial draw down the scalar chain, to see how many groups each
        # had (drains take it too); the width is read at the call, as the run
        # appends to `live` later
        widths = []

        def spy(hypergeometric, held, live, total, take, *rest):
            if take < total:
                widths.append(len(live))
            return _draw_release(hypergeometric, held, live, total, take, *rest)

        with mock.patch.object(simulate, "_SCALAR_GROUPS", 10**6), mock.patch.object(
            simulate, "_draw_release", spy
        ):
            run_simulation(drawn_config(**config))
        assert max(widths) == widest

    def test_many_groups_at_minute_slots(self):
        # of the partial releases from several arrival slots (about 30 on
        # average, at most 45), 97% draw from more than _SCALAR_GROUPS
        rng = np.random.default_rng(1)
        prof = ActivityProfile(SlotScheme(1440, 86400.0), rng.dirichlet(np.full(1440, 0.1)))
        strat = solve_optimal(prof, 0.6 * critical_rate(prof))
        cfg = SimConfig(
            profile=prof, strategy=strat, alpha=10**5, cycles=2, warmup_cycles=1, seed=1
        )
        assert_reports_equal(run_simulation(cfg), ref_run_simulation(cfg))

    def test_refuses_a_buffer_past_numpys_limit(self):
        # numpy's multivariate draw refuses a population of 10**9 or more, and
        # the buffer holds up to alpha messages: uniform_random refuses such an
        # alpha at construction, while fifo never draws and still runs
        prof = profile([0.3, 0.3, 0.02, 0.3, 0.02, 0.06])
        strat = solve_optimal(prof, critical_rate(prof))
        kwargs = dict(profile=prof, strategy=strat, alpha=4 * 10**9, cycles=2, warmup_cycles=1, seed=1)
        message = r"^alpha must be an integer in \[1, 1000000000\), got 4000000000$"
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs)
        cfg = SimConfig(**kwargs, discipline="fifo")
        got = sim_outcome(run_simulation, cfg)
        assert got[0] == "ok" and got[1].total_count == 4 * 10**9
        assert_reports_equal(got[1], ref_run_simulation(cfg))

    def test_refuses_run_totals_past_int64(self):
        # every run total counts at most alpha * (cycles - warmup_cycles)
        # messages in int64: one message short of 2**63 runs, and sums exactly
        prof = profile([0.97, 0.01, 0.01, 0.01])
        strat = solve_optimal(prof, 0.2)
        kwargs = dict(profile=prof, strategy=strat, discipline="fifo", seed=1)
        message = r"^alpha \* \(cycles - warmup_cycles\) must be below 2\*\*63, got 4000000000000000000 \* 3$"
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs, alpha=4 * 10**18, cycles=4, warmup_cycles=1)
        cfg = SimConfig(**kwargs, alpha=2**63 - 1, cycles=2, warmup_cycles=1)
        report = run_simulation(cfg)
        assert report.total_count == 2**63 - 1
        assert sum(report.per_slot_posted.tolist()) == report.total_count
        assert (report.per_slot_posted >= 0).all()

    def test_undrained_cycle_raises(self):
        # halved hazards: the drain slot releases only half the buffer
        with scaled_hazards(0.5), pytest.raises(AssertionError, match="ended with .* in the buffer"):
            run_simulation(random_cfg(seed=5, cycles=3))

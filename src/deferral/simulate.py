"""Seeded Monte Carlo simulation of the store-and-forward architecture.

Messages arrive according to the actual profile (a multinomial allocation of
``alpha`` messages per cycle), each message in slot ``i`` is diverted to the
buffer with probability ``s[i]/q[i]`` and posted immediately otherwise, and
the buffer releases messages slot by slot.  The release target at a slot is
the strategy's share of the current buffer content: the steady-state hazard
``r'[j]/b[j-1]`` applied to what is actually buffered, accumulated
fractionally and forwarded in whole messages (residue carried).  Applying
the hazard to the realized content rather than a fixed count keeps the
process on the steady-state cycle (a fixed absolute target would let
binomial fluctuations in the stored mass accumulate into an unbounded
backlog) and reproduces, message by message, the per-slot release
probability the delay analysis assumes.

Cycles are aligned to the steady-state starting index, so the buffer drains
completely every cycle: cycles are statistically independent, no message
waits more than one cycle, and statistics never straddle cycle boundaries.
The buffer is therefore one count of held messages per arrival slot of the
current cycle, and a cycle that ends with messages still held raises
``AssertionError``.

Random numbers: one ``multinomial`` (arrivals) and one ``binomial`` (storing)
call per cycle.  A release takes one of three paths: ``fifo`` and ``lifo``
walk the buffer from the oldest or the newest arrival slot; a
``uniform_random`` partial release from more than ``_SCALAR_GROUPS`` arrival
slots makes one ``multivariate_hypergeometric`` call; every other
``uniform_random`` release is ``_draw_release``, numpy's own "marginals"
algorithm written out as a chain of scalar ``hypergeometric`` calls, which
costs less on a few slots and takes a drain or a one-slot release without
drawing, as numpy's draw would.  The chain and the call run the same sampler
with the same arguments in the same order, so they draw the same counts from
the same random numbers and seeded outputs do not depend on which one a
release takes.  Each path takes its counts from the buffer and adds them to
the delay histogram as it goes.
As every cycle drains, a cycle's delay sum is
``sum_j j*released_j - sum_i i*stored_i`` and its delayed count
``sum(stored)``; the occupancy after a slot is the running buffer level,
and mean occupancy and posted counts follow from run totals.

Simulations are deterministic given the seed.  A single run is sequential;
independent runs can execute concurrently, each with its own config.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .buffer import analyze_buffer, forwarding_hazards, steady_state
from .profiles import ActivityProfile
from .strategies import DeferralStrategy

_DISCIPLINES = ("uniform_random", "fifo", "lifo")

#: Hazards within this distance of 1 drain the buffer completely.
_DRAIN_ATOL = 1e-9

RNG_ALGORITHM = "numpy-pcg64"

#: ``uniform_random`` partial releases from at most this many arrival slots
#: draw by scalar hypergeometric calls: 1.0-1.3 us per slot against 8-10 us
#: for one ``multivariate_hypergeometric`` call of up to 9 slots.
_SCALAR_GROUPS = 6


def _draw_release(hypergeometric, held, live, total, take, hist, j):
    """Release ``take`` of the ``total`` messages held in the arrival slots
    ``live`` at slot ``j``, drawn without replacement exactly as numpy's
    "marginals" ``multivariate_hypergeometric`` draws from their counts: the
    same scalar sampler called with the same arguments in the same order, so
    the counts and the random numbers consumed are the same.  Each count is
    taken from ``held`` and added to ``hist`` as it is drawn; returns whether
    a slot emptied."""
    flip = take > total // 2  # numpy draws the complement, the messages kept
    left = total - take if flip else take
    remaining = total
    emptied = False
    last = live[-1]
    for i in live:
        c = held[i]
        if i == last:
            k = left
        elif left:
            remaining -= c
            k = hypergeometric(c, remaining, left)
            left -= k
        elif flip:
            k = 0
        else:
            break
        if flip:
            k = c - k
        if k:
            # a message stored at slot i and released now waited j - i slots
            held[i] = c - k
            hist[j - 1 - i] += k
            if k == c:
                emptied = True
    return emptied


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run; immutable, checked when built."""

    profile: ActivityProfile
    strategy: DeferralStrategy
    alpha: int
    cycles: int
    warmup_cycles: int = 2
    discipline: str = "uniform_random"
    seed: int = 0

    def __post_init__(self):
        # the buffer holds at most alpha messages; numpy's multivariate draw refuses 10**9
        uniform = self.discipline == "uniform_random"
        object.__setattr__(self, "alpha", integer("alpha", self.alpha, 1, 10**9 if uniform else None))
        object.__setattr__(self, "cycles", integer("cycles", self.cycles, 1))
        warmup = integer("warmup_cycles", self.warmup_cycles, 0, self.cycles)
        object.__setattr__(self, "warmup_cycles", warmup)
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        if self.discipline not in _DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; pick one of {_DISCIPLINES}"
            )
        q, q_ref = self.profile.q, self.strategy.q_ref.q
        if q.shape != q_ref.shape or not np.allclose(q, q_ref, rtol=0.0, atol=1e-12):
            raise ValueError("strategy was solved against a different profile")
        # each int64 run total (arrivals, stores, posts per slot) counts at most this many messages
        if self.alpha * (self.cycles - warmup) >= 2**63:
            got = f"{self.alpha} * {self.cycles - warmup}"
            raise ValueError(f"alpha * (cycles - warmup_cycles) must be below 2**63, got {got}")


@dataclass(eq=False)
class SimReport:
    """Empirical statistics from one simulation run.

    Histograms and counters cover the post-warmup cycles only.  Slots are
    reported in the original profile order; ``start_index`` records where
    the internally simulated steady-state cycle begins.
    """

    rng_algorithm = RNG_ALGORITHM  # every run draws from it: not a field

    delay_histogram: np.ndarray
    delayed_count: int
    total_count: int
    mean_conditional_delay: float
    peak_occupancy: int
    per_slot_posted: np.ndarray
    seed_echo: int
    discipline: str
    start_index: int
    measured_cycles: int
    mean_occupancy: np.ndarray
    per_cycle_delayed: np.ndarray
    per_cycle_delay_sum: np.ndarray

    @property
    def delayed_fraction(self) -> float:
        return self.delayed_count / self.total_count if self.total_count else 0.0

    def to_dict(self) -> dict:
        return {
            "delay_histogram": [int(x) for x in self.delay_histogram],
            "delayed_count": self.delayed_count,
            "total_count": self.total_count,
            "delayed_fraction": self.delayed_fraction,
            "mean_conditional_delay": self.mean_conditional_delay,
            "peak_occupancy": self.peak_occupancy,
            "per_slot_posted": [int(x) for x in self.per_slot_posted],
            "mean_occupancy": [float(x) for x in self.mean_occupancy],
            "seed": self.seed_echo,
            "rng_algorithm": self.rng_algorithm,
            "discipline": self.discipline,
            "start_index": self.start_index,
            "measured_cycles": self.measured_cycles,
        }


def run_simulation(cfg: SimConfig) -> SimReport:
    """Simulate ``cfg.cycles`` cycles, aligned to the steady state it solves for ``cfg.strategy``."""
    profile = cfg.profile
    strat = cfg.strategy
    n = profile.n

    overlap = np.minimum(strat.s, strat.r)
    if overlap.max() > 0.0:
        i = int(np.argmax(overlap))
        raise ValueError(
            f"slot {i + 1} both stores and forwards; extraction semantics are "
            "only defined for strategies with disjoint storing/forwarding support"
        )

    pattern = steady_state(strat, cfg.alpha)
    hazards = forwarding_hazards(pattern).tolist()  # raises for non-causal patterns
    start = pattern.start_index
    orig_slot = (np.arange(n) + start - 1) % n  # 0-based original slots
    q_rot = profile.q[orig_slot]
    q_rot = q_rot / q_rot.sum()
    s_rot = pattern.s_prime
    p_store = np.clip(s_rot / np.where(q_rot > 0, q_rot, 1.0), 0.0, 1.0)
    p_store[q_rot == 0] = 0.0

    rng = np.random.default_rng(cfg.seed)
    hypergeometric = rng.hypergeometric
    uniform = cfg.discipline == "uniform_random"
    lifo = cfg.discipline == "lifo"
    acc = [0.0] * n  # fractional forwarding residue per reordered slot

    measured = cfg.cycles - cfg.warmup_cycles
    delay_hist = [0] * n  # measured cycles' delays; warm-up cycles' go to a discarded list
    per_cycle_delayed = np.zeros(measured, dtype=np.int64)
    per_cycle_delay_sum = np.zeros(measured)
    # post-warmup totals per reordered slot
    arrived = np.zeros(n, dtype=np.int64)
    buffered = np.zeros(n, dtype=np.int64)
    released = [0] * n
    peak = 0

    for cycle in range(cfg.cycles):
        arrivals = rng.multinomial(cfg.alpha, q_rot)
        stored = rng.binomial(arrivals, p_store)
        counting = cycle >= cfg.warmup_cycles
        hist = delay_hist if counting else [0] * n
        # buffered messages by reordered arrival slot, and the slots that hold
        # some, oldest first: slot j sees only those stored before it
        held = stored.tolist()
        live = []
        level = top = delay_sum = 0

        for j in range(n):
            # forwarding first: only earlier arrivals are eligible this slot
            h = hazards[j]
            if h > 0.0 and level:
                if h >= 1.0 - _DRAIN_ATOL:
                    take = level
                    acc[j] = 0.0
                else:
                    residue = acc[j] + level * h
                    take = int(residue)  # <= level: the residue stays in [0, 1) between slots
                    acc[j] = residue - take
                if take:
                    emptied = False
                    if not uniform:
                        # the oldest messages first (fifo) or the newest (lifo)
                        left = take
                        for i in reversed(live) if lifo else live:
                            k = min(held[i], left)
                            held[i] -= k
                            hist[j - 1 - i] += k
                            if not held[i]:
                                emptied = True
                            left -= k
                            if not left:
                                break
                    elif take < level and len(live) > _SCALAR_GROUPS:
                        # an array: numpy converts a list argument slowly
                        drawn = rng.multivariate_hypergeometric(
                            np.array([held[i] for i in live], dtype=np.int64), take
                        ).tolist()
                        for i, k in zip(live, drawn):
                            if k:
                                held[i] -= k
                                hist[j - 1 - i] += k
                                if not held[i]:
                                    emptied = True
                    else:
                        emptied = _draw_release(hypergeometric, held, live, level, take, hist, j)
                    if emptied:
                        live = [i for i in live if held[i]]
                level -= take
                if counting:
                    released[j] += take
                delay_sum += j * take
            if held[j]:  # nothing released yet from this slot's own arrivals
                live.append(j)
                level += held[j]
                delay_sum -= j * held[j]
                if level > top:
                    top = level

        if level != 0:
            raise AssertionError(
                f"internal error: cycle {cycle} ended with {level} messages in the buffer"
            )
        if counting:
            # the cycle drained: every stored message was released in it
            mc = cycle - cfg.warmup_cycles
            per_cycle_delayed[mc] = stored.sum()
            per_cycle_delay_sum[mc] = delay_sum
            arrived += arrivals
            buffered += stored
            peak = max(peak, top)

    net_stored = buffered - np.array(released, dtype=np.int64)  # per reordered slot
    per_slot_posted = np.empty(n, dtype=np.int64)
    per_slot_posted[orig_slot] = arrived - net_stored

    delay_hist = np.array(delay_hist, dtype=np.int64)
    delayed_count = int(delay_hist.sum())
    mean_cond = (
        float(per_cycle_delay_sum.sum() / delayed_count) if delayed_count else 0.0
    )
    mean_occ = np.empty(n)
    # the occupancy after a slot is what was stored minus what was released so far
    mean_occ[orig_slot] = np.cumsum(net_stored) / measured  # by original slot label

    return SimReport(
        delay_histogram=delay_hist,
        delayed_count=delayed_count,
        total_count=cfg.alpha * measured,
        mean_conditional_delay=mean_cond,
        peak_occupancy=peak,
        per_slot_posted=per_slot_posted,
        seed_echo=cfg.seed,
        discipline=cfg.discipline,
        start_index=start,
        measured_cycles=measured,
        mean_occupancy=mean_occ,
        per_cycle_delayed=per_cycle_delayed,
        per_cycle_delay_sum=per_cycle_delay_sum,
    )


@dataclass(eq=False)
class ComparisonRecord:
    """Analytic predictions next to their empirical estimates.

    Standard errors come from per-cycle batch means, which are independent
    because the buffer drains every cycle.  ``flags`` lists every quantity
    that disagrees beyond three standard errors (or, for capacity, beyond
    the single-cycle multinomial band ``3 * sqrt(C)``).
    """

    analytic_delta_bar: float
    analytic_conditional_delay: float
    analytic_capacity: float
    analytic_pmf: np.ndarray
    empirical_conditional_delay: float
    conditional_delay_se: float
    empirical_delayed_fraction: float
    delayed_fraction_se: float
    empirical_pattern_peak: float
    peak_occupancy: int
    peak_within_band: bool
    flags: list[str]
    report: SimReport

    def to_dict(self) -> dict:
        return {
            "analytic": {
                "expected_delay_unconditional_slots": self.analytic_delta_bar,
                "expected_delay_conditional_slots": self.analytic_conditional_delay,
                "capacity_messages": self.analytic_capacity,
                "delay_pmf": [float(x) for x in self.analytic_pmf],
            },
            "empirical": {
                "conditional_delay_slots": self.empirical_conditional_delay,
                "conditional_delay_se": self.conditional_delay_se,
                "delayed_fraction": self.empirical_delayed_fraction,
                "delayed_fraction_se": self.delayed_fraction_se,
                "pattern_peak_messages": self.empirical_pattern_peak,
                "peak_occupancy": self.peak_occupancy,
            },
            "peak_within_band": self.peak_within_band,
            "flags": list(self.flags),
            "report": self.report.to_dict(),
        }


def empirical_vs_analytic(cfg: SimConfig) -> ComparisonRecord:
    """Run a simulation and compare it with the closed-form analysis.

    Only defined for the uniformly-random extraction discipline, the one the
    delay analysis covers, and for at least two measured cycles, the fewest
    that give the standard errors.
    """
    if cfg.discipline != "uniform_random":
        raise ValueError(
            "analytic comparison requires the uniform_random discipline, "
            f"got {cfg.discipline!r}"
        )
    m = cfg.cycles - cfg.warmup_cycles
    if m < 2:
        raise ValueError(
            "analytic comparison needs at least 2 measured cycles, got cycles "
            f"{cfg.cycles} with warmup_cycles {cfg.warmup_cycles}"
        )
    _, cap, dist = analyze_buffer(cfg.strategy, cfg.alpha)
    report = run_simulation(cfg)

    frac = report.delayed_fraction
    cycle_fracs = report.per_cycle_delayed / cfg.alpha
    frac_se = float(cycle_fracs.std(ddof=1) / np.sqrt(m))

    # ratio-estimator SE for the conditional delay from per-cycle batches
    mean_cond = report.mean_conditional_delay
    if report.delayed_count:
        resid = report.per_cycle_delay_sum - mean_cond * report.per_cycle_delayed
        denom = report.per_cycle_delayed.mean()
        cond_se = float(
            np.sqrt((resid**2).sum() / (m - 1)) / (np.sqrt(m) * denom)
        )
    else:
        cond_se = 0.0

    pattern_peak = float(report.mean_occupancy.max())
    band = 3.0 * float(np.sqrt(cap))

    flags = []
    if abs(frac - cfg.strategy.phi) > 3 * frac_se + 1e-12:
        flags.append(
            f"delayed fraction {frac:.6f} deviates from phi {cfg.strategy.phi:.6f} "
            f"beyond 3 SE ({frac_se:.2e})"
        )
    if abs(mean_cond - dist.expected_conditional) > 3 * cond_se + 1e-12:
        flags.append(
            f"conditional delay {mean_cond:.4f} deviates from analytic "
            f"{dist.expected_conditional:.4f} beyond 3 SE ({cond_se:.2e})"
        )
    if abs(pattern_peak - cap) > band + 1e-12:
        flags.append(
            f"steady-pattern peak {pattern_peak:.1f} deviates from capacity "
            f"{cap:.1f} beyond 3*sqrt(C) ({band:.1f})"
        )
    peak_within = bool(abs(report.peak_occupancy - cap) <= band + 1e-12)

    return ComparisonRecord(
        analytic_delta_bar=dist.expected_unconditional,
        analytic_conditional_delay=dist.expected_conditional,
        analytic_capacity=cap,
        analytic_pmf=dist.pmf,
        empirical_conditional_delay=mean_cond,
        conditional_delay_se=cond_se,
        empirical_delayed_fraction=frac,
        delayed_fraction_se=frac_se,
        empirical_pattern_peak=pattern_peak,
        peak_occupancy=report.peak_occupancy,
        peak_within_band=peak_within,
        flags=flags,
        report=report,
    )

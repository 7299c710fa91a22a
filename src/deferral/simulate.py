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

Simulations are deterministic given the seed.  A single run is sequential;
independent runs can execute concurrently, each with its own config.
"""

from dataclasses import dataclass

import numpy as np

from .buffer import capacity as pattern_capacity
from .buffer import delay_distribution, forwarding_hazards, steady_state
from .profiles import ActivityProfile
from .strategies import ZERO_ATOL, DeferralStrategy

_DISCIPLINES = ("uniform_random", "fifo", "lifo")

#: Hazards within this distance of 1 drain the buffer completely.
_DRAIN_ATOL = 1e-9

RNG_ALGORITHM = "numpy-pcg64"


@dataclass
class SimConfig:
    """Configuration of one simulation run."""

    profile: ActivityProfile
    strategy: DeferralStrategy
    alpha: int
    cycles: int
    warmup_cycles: int = 2
    discipline: str = "uniform_random"
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "cycles", "warmup_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be a positive integer, got {self.alpha!r}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles!r}")
        if not 0 <= self.warmup_cycles < self.cycles:
            raise ValueError(
                f"warmup_cycles must lie in [0, cycles), got {self.warmup_cycles!r}"
            )
        if self.discipline not in _DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; pick one of {_DISCIPLINES}"
            )
        if not np.allclose(self.profile.q, self.strategy.q_ref.q, atol=1e-12):
            raise ValueError("strategy was solved against a different profile")


@dataclass
class SimReport:
    """Empirical statistics from one simulation run.

    Histograms and counters cover the post-warmup cycles only.  Slots are
    reported in the original profile order; ``start_index`` records where
    the internally simulated steady-state cycle begins.
    """

    delay_histogram: np.ndarray
    delayed_count: int
    total_count: int
    mean_conditional_delay: float
    peak_occupancy: int
    per_slot_posted: np.ndarray
    seed_echo: int
    rng_algorithm: str
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
    """Simulate the storage and forwarding selectors for ``cfg.cycles`` cycles."""
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
    hazards = forwarding_hazards(pattern)  # raises for non-causal patterns
    start = pattern.start_index
    orig_slot = (np.arange(n) + start - 1) % n  # 0-based original slots
    q_rot = profile.q[orig_slot]
    q_rot = q_rot / q_rot.sum()
    s_rot = pattern.s_prime
    p_store = np.clip(s_rot / np.where(q_rot > 0, q_rot, 1.0), 0.0, 1.0)
    p_store[q_rot == 0] = 0.0

    rng = np.random.default_rng(cfg.seed)
    acc = np.zeros(n)  # fractional forwarding residue per reordered slot
    delays = np.arange(1, n + 1)

    delay_hist = np.zeros(n, dtype=np.int64)
    per_slot_posted = np.zeros(n, dtype=np.int64)
    occ_sum = np.zeros(n)
    measured = cfg.cycles - cfg.warmup_cycles
    per_cycle_delayed = np.zeros(measured, dtype=np.int64)
    per_cycle_delay_sum = np.zeros(measured)
    peak = 0

    for cycle in range(cfg.cycles):
        arrivals = rng.multinomial(alpha, q_rot)
        stored = rng.binomial(arrivals, p_store)
        # buffered messages by reordered arrival slot; slot j sees only held[:j]
        held = stored.copy()
        released = np.zeros(n, dtype=np.int64)
        cycle_hist = np.zeros(n, dtype=np.int64)
        level = 0

        for j in range(n):
            # forwarding first: only earlier arrivals are eligible this slot
            h = hazards[j]
            take = 0
            if h > 0.0 and level > 0:
                if h >= 1.0 - _DRAIN_ATOL:
                    take = level
                    acc[j] = 0.0
                else:
                    acc[j] += level * h
                    take = int(acc[j])  # <= level: acc[j] stays in [0, 1) between slots
                    acc[j] -= take

            if take > 0:
                eligible = held[:j]  # oldest first
                if cfg.discipline == "uniform_random":
                    groups = np.flatnonzero(eligible)
                    drawn = np.zeros(j, dtype=np.int64)
                    drawn[groups] = rng.multivariate_hypergeometric(eligible[groups], take)
                elif cfg.discipline == "fifo":
                    drawn = np.diff(np.minimum(np.cumsum(eligible), take), prepend=0)
                else:
                    newest = eligible[::-1]
                    drawn = np.diff(np.minimum(np.cumsum(newest), take), prepend=0)[::-1]
                eligible -= drawn
                cycle_hist[:j] += drawn[::-1]  # stored at slot i, waited j - i slots
                released[j] = take
            level += int(stored[j]) - take

        if level != 0:
            raise AssertionError(
                f"internal error: cycle {cycle} ended with {level} messages in the buffer"
            )
        if cycle >= cfg.warmup_cycles:
            mc = cycle - cfg.warmup_cycles
            delay_hist += cycle_hist
            per_cycle_delayed[mc] = cycle_hist.sum()
            per_cycle_delay_sum[mc] = cycle_hist @ delays
            per_slot_posted[orig_slot] += arrivals - stored + released
            occupancy = np.cumsum(stored - released)
            occ_sum += occupancy
            peak = max(peak, int(occupancy.max()))

    delayed_count = int(delay_hist.sum())
    mean_cond = (
        float(per_cycle_delay_sum.sum() / delayed_count) if delayed_count else 0.0
    )
    mean_occ = np.empty(n)
    mean_occ[orig_slot] = occ_sum / measured  # report by original slot label

    return SimReport(
        delay_histogram=delay_hist,
        delayed_count=delayed_count,
        total_count=alpha * measured,
        mean_conditional_delay=mean_cond,
        peak_occupancy=peak,
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


@dataclass
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
    delay analysis covers.
    """
    if cfg.discipline != "uniform_random":
        raise ValueError(
            "analytic comparison requires the uniform_random discipline, "
            f"got {cfg.discipline!r}"
        )
    pattern = steady_state(cfg.strategy, float(cfg.alpha))
    dist = delay_distribution(pattern)
    cap = pattern_capacity(pattern)

    report = run_simulation(cfg)
    m = report.measured_cycles

    frac = report.delayed_fraction
    cycle_fracs = report.per_cycle_delayed / cfg.alpha
    frac_se = float(cycle_fracs.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0

    # ratio-estimator SE for the conditional delay from per-cycle batches
    mean_cond = report.mean_conditional_delay
    if report.delayed_count and m > 1:
        resid = report.per_cycle_delay_sum - mean_cond * report.per_cycle_delayed
        denom = report.per_cycle_delayed.mean()
        cond_se = float(
            np.sqrt((resid**2).sum() / (m - 1)) / (np.sqrt(m) * denom)
        )
    else:
        cond_se = 0.0

    pattern_peak = float(report.mean_occupancy.max()) if report.mean_occupancy.size else 0.0
    band = 3.0 * float(np.sqrt(cap)) if cap > 0 else 0.0

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

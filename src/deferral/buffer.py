"""Analytic steady-state characterization of the deferral buffer.

A storing/forwarding pair is applied cyclically, so the buffer occupancy is
governed by the recurrence ``b[j] = max(b[j-1] + s[j] - r[j], 0)`` over the
cyclic net-flow tuple.  Because the stored and forwarded masses are equal
over one cycle, there is always a slot at which the buffer empties; starting
the cycle there, every forwarding event is fully covered and the occupancy
pattern repeats identically every cycle.  From that pattern this module
derives the buffer capacity (peak occupancy times traffic volume) and the
exact delay distribution under uniformly-random extraction: a message stored
at slot ``k`` leaves at slot ``j`` with probability ``r'[j] / b[j-1]`` after
surviving every intermediate forwarding opportunity.

All functions are pure; slot indices are 1-based and cyclic throughout.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .profiles import critical_rate
from .strategies import DeferralStrategy, ZERO_ATOL

#: Slack allowed when checking that prefix sums stay nonnegative.
CAUSALITY_ATOL = 1e-12


@dataclass
class SteadyStatePattern:
    """Steady-state buffer occupancy over one cycle.

    Attributes
    ----------
    start_index : int
        1-based slot at which the cycle begins; the occupancy returns to
        zero at the end of every cycle started there.
    b : np.ndarray
        Relative occupancy at the end of each reordered slot; ``b[-1] == 0``.
    s_prime, r_prime : np.ndarray
        The storing/forwarding tuples rotated to begin at ``start_index``.
    alpha : float
        Messages generated per cycle; scales relative occupancy to messages.
    phi : float
        Deferral rate of the underlying strategy.
    slot_duration : float
        Seconds per slot, carried along for unit conversions.
    """

    start_index: int
    b: np.ndarray
    s_prime: np.ndarray
    r_prime: np.ndarray
    alpha: float
    phi: float
    slot_duration: float = 3600.0

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def to_dict(self) -> dict:
        return {
            "start_index": self.start_index,
            "b": [float(x) for x in self.b],
            "s_prime": [float(x) for x in self.s_prime],
            "r_prime": [float(x) for x in self.r_prime],
            "alpha": self.alpha,
            "phi": self.phi,
        }


@dataclass
class DelayDistribution:
    """Distribution of the per-message delay, in slots.

    ``pmf[d-1]`` is the joint probability that a message is delayed and
    waits exactly ``d`` slots; the entries sum to the deferral rate.  The
    unconditional expectation averages over all messages (undelayed ones
    contribute zero); the conditional expectation averages over delayed
    messages only and lies in ``[1, n]`` whenever anything is delayed.
    """

    pmf: np.ndarray
    expected_unconditional: float
    expected_conditional: float
    phi: float
    slot_duration: float

    @property
    def n(self) -> int:
        return self.pmf.shape[0]

    @property
    def conditional_hours(self) -> float:
        """Mean delay of delayed messages, converted to hours."""
        return self.expected_conditional * self.slot_duration / 3600.0

    def to_dict(self) -> dict:
        return {
            "pmf": [float(x) for x in self.pmf],
            "expected_unconditional_slots": self.expected_unconditional,
            "expected_conditional_slots": self.expected_conditional,
            "expected_conditional_hours": self.conditional_hours,
            "phi": self.phi,
            "slot_duration_seconds": self.slot_duration,
        }


def find_starting_index(strat: DeferralStrategy) -> int:
    """Slot at which the steady-state cycle begins, smallest index if tied.

    Computed as one past an index minimizing the prefix sums of the net flow
    ``s - r`` (wrapped modulo n): starting there, every prefix sum of the
    rotated net flow is nonnegative, so the occupancy recurrence never clamps
    and returns to zero at the end of the cycle.
    """
    a = np.asarray(strat.s, dtype=float) - np.asarray(strat.r, dtype=float)
    w = np.cumsum(a)
    minimum = w.min()
    ties = np.nonzero(w <= minimum + CAUSALITY_ATOL)[0]
    return int(min((j + 1) % a.shape[0] + 1 for j in ties))


def _first_cycle(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the clamped recurrence over one cycle of ``a`` from all starts in
    lockstep, lane ``i`` starting empty at slot ``i + 1``.  Returns lane 0's
    occupancy over the cycle and every lane's final level."""
    levels = np.zeros(a.shape[0])
    first = np.empty(a.shape[0])
    for t, at in enumerate(a):
        levels[: t + 1] = np.maximum(levels[: t + 1] + at, 0.0)
        first[t] = levels[0]
    return first, levels


def _check_all_starts(a: np.ndarray, b: np.ndarray, levels: np.ndarray, start: int) -> None:
    """Advance the lanes of :func:`_first_cycle` one more cycle; each must
    reproduce ``b`` within ``CAUSALITY_ATOL`` (``a`` is rotated to ``start``)."""
    n = a.shape[0]
    ok = np.ones(n, dtype=bool)
    for p, ap in enumerate(a):
        levels = np.maximum(levels + ap, 0.0)
        ok &= np.abs(levels - b[p]) <= CAUSALITY_ATOL
    if not ok.all():
        j = int(((start - 1 + np.flatnonzero(~ok)) % n).min()) + 1
        raise ValueError(
            f"internal inconsistency: recurrence from slot {j} does not "
            f"converge onto the steady pattern after {(start - j) % n or n} slots"
        )


def steady_state(strat: DeferralStrategy, alpha: float) -> SteadyStatePattern:
    """Build the repeating occupancy pattern for a feasible strategy.

    Also verifies, on every call, that the recurrence started at every other
    slot converges onto this pattern after one cycle, shifted by the offset
    the starting-index construction predicts; a violation indicates an
    internal inconsistency (a solver or feasibility bug) and raises.  The n
    runs advance in lockstep, 2n numpy steps over an n-vector: about 0.2,
    1.5 and 20 ms at n = 24, 168 and 1440 (see README).  Stored and forwarded
    masses differing by more than ``CAUSALITY_ATOL`` cannot drain and raise.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    stored, forwarded = float(np.sum(strat.s)), float(np.sum(strat.r))
    if abs(stored - forwarded) > CAUSALITY_ATOL:
        raise ValueError(
            f"unbalanced strategy: sum(s) = {stored!r} and sum(r) = {forwarded!r} differ "
            f"by {stored - forwarded!r}, more than {CAUSALITY_ATOL!r}; the buffer cannot drain"
        )
    start = find_starting_index(strat)
    s_prime = np.roll(np.asarray(strat.s, dtype=float), 1 - start)
    r_prime = np.roll(np.asarray(strat.r, dtype=float), 1 - start)
    a = s_prime - r_prime
    prefix = np.cumsum(a)
    if prefix.min() < -CAUSALITY_ATOL:
        raise ValueError(
            "internal inconsistency: negative prefix sum "
            f"{prefix.min()!r} from starting index {start}"
        )
    b, levels = _first_cycle(a)
    if abs(b[-1]) > CAUSALITY_ATOL:
        raise ValueError(
            f"internal inconsistency: occupancy ends at {b[-1]!r}, expected 0"
        )
    b[-1] = 0.0
    # Each lane matches b up to accumulated rounding (a few n ulps; ties at
    # the minimum leave that much dust), hence the tolerance.
    _check_all_starts(a, b, levels, start)

    for arr in (b, s_prime, r_prime):
        arr.setflags(write=False)
    return SteadyStatePattern(
        start_index=start,
        b=b,
        s_prime=s_prime,
        r_prime=r_prime,
        alpha=float(alpha),
        phi=strat.phi,
        slot_duration=strat.q_ref.scheme.slot_duration,
    )


def capacity(pattern: SteadyStatePattern) -> float:
    """Buffer capacity in messages: traffic volume times peak occupancy."""
    return float(pattern.alpha * pattern.b.max())


def forwarding_hazards(pattern: SteadyStatePattern) -> np.ndarray:
    """Per-slot probability that a buffered message leaves, ``r'[j]/b[j-1]``.

    Entry ``j-1`` applies to reordered slot ``j``; the buffer is empty at
    the start of the cycle, so a forwarding event there (or after any slot
    where it is empty; the first is named) is non-causal and raises.
    Hazards are exactly 1 at slots where the buffer drains.
    """
    r = pattern.r_prime
    prev = np.concatenate(([0.0], pattern.b[:-1]))
    forwards = r > ZERO_ATOL
    non_causal = np.flatnonzero(forwards & (prev <= CAUSALITY_ATOL))
    if non_causal.size:
        j = int(non_causal[0]) + 1
        raise ValueError(
            f"non-causal pattern: forwarding {r[j - 1]!r} at reordered slot {j} "
            "with an empty buffer"
        )
    hazards = np.zeros(pattern.n)
    hazards[forwards] = np.minimum(r[forwards] / prev[forwards], 1.0)
    return hazards


def delay_distribution(pattern: SteadyStatePattern) -> DelayDistribution:
    """Exact delay distribution under uniformly-random extraction.

    For each arrival slot ``k`` with storage, walk the following ``n`` slots
    of the unrolled cycle; at each forwarding slot the message leaves with
    the slot's hazard given that it is still buffered, so

        P(delayed, waits d) = sum over k of  s'[k] * survive(k, k+d) * hazard(k+d)

    with the survival factor multiplying ``1 - hazard`` over forwarding
    slots strictly between arrival and departure.  The buffer drains within
    each cycle, so the support is contained in ``{1, ..., n}`` and the total
    mass equals the deferral rate.  The survival factors are one ``cumprod``
    matrix, arrival slots with storage by ``n`` delays: O(n^2) memory, about
    0.15 ms at n = 168 and 10 ms at n = 1440.
    """
    n = pattern.n
    s = pattern.s_prime
    hazards = forwarding_hazards(pattern)

    # row i: the hazards of the n slots after the i-th arrival slot, in order
    k = np.flatnonzero(s > ZERO_ATOL)
    h = hazards[(k[:, None] + np.arange(1, n + 1)) % n]
    survive = np.hstack([np.ones((k.size, 1)), np.cumprod(1.0 - h[:, :-1], axis=1)])
    pmf = (s[k, None] * survive * h).sum(axis=0)

    expected_unconditional = float((np.arange(1, n + 1) * pmf).sum())
    expected_conditional = expected_unconditional / pattern.phi if pattern.phi > 0 else 0.0
    pmf.setflags(write=False)
    return DelayDistribution(
        pmf=pmf,
        expected_unconditional=expected_unconditional,
        expected_conditional=expected_conditional,
        phi=pattern.phi,
        slot_duration=pattern.slot_duration,
    )


def analyze_buffer(
    strat: DeferralStrategy, alpha: Optional[float] = None
) -> tuple[SteadyStatePattern, float, DelayDistribution]:
    """Steady-state pattern, capacity and delay distribution of a strategy.

    ``alpha`` defaults to the message count of the strategy's profile.
    Refuses strategies whose rate exceeds the profile's critical rate: the
    steady-state delay analysis is meaningful only up to that point.
    """
    if alpha is None:
        alpha = strat.q_ref.count
        if not alpha > 0:
            raise ValueError("profile carries no message count; pass alpha explicitly")
    phi_crit = critical_rate(strat.q_ref)
    if strat.phi > phi_crit + 1e-9:
        raise ValueError(
            f"deferral rate {strat.phi!r} exceeds the critical rate {phi_crit!r}; "
            "the steady-state analysis does not cover over-perturbed strategies"
        )
    pattern = steady_state(strat, alpha)
    dist = delay_distribution(pattern)
    return pattern, capacity(pattern), dist

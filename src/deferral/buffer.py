"""Analytic steady-state characterization of the deferral buffer.

A storing/forwarding pair is applied cyclically, so the buffer occupancy is
governed by the recurrence ``b[j] = max(b[j-1] + s[j] - r[j], 0)`` over the
cyclic net-flow tuple.  Because the stored and forwarded masses are equal
over one cycle, there is always a slot at which the buffer empties; starting
the cycle there, every forwarding event is fully covered and the occupancy
pattern repeats identically every cycle; one O(n) pass of the recurrence
from that slot gives it, and runs from every other slot settle onto it
because the recurrence is monotone in its starting level.  From that pattern
this module derives the buffer capacity (peak occupancy times traffic
volume) and the exact delay distribution under uniformly-random extraction:
a message stored at slot ``k`` leaves at slot ``j`` with probability
``r'[j] / b[j-1]`` after surviving every intermediate forwarding
opportunity.  The mean delay alone needs no distribution: by Little's law it
is ``sum(b)`` slots over all messages, under any extraction discipline.

All functions are pure; slot indices are 1-based and cyclic throughout.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from ._checks import real
from .strategies import DeferralStrategy

#: Slack allowed when checking that prefix sums stay nonnegative.
CAUSALITY_ATOL = 1e-12


@dataclass(eq=False)
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


@dataclass(eq=False)
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
    and returns to zero at the end of the cycle.  Every 0-based index within
    ``CAUSALITY_ATOL`` of the minimum is a candidate; index ``n - 1`` wraps to
    slot 1, the smallest possible, and any other index ``j`` gives ``j + 2``.
    """
    a = np.asarray(strat.s, dtype=float) - np.asarray(strat.r, dtype=float)
    w = np.cumsum(a)
    ties = np.flatnonzero(w <= w.min() + CAUSALITY_ATOL)
    return 1 if ties[-1] == a.shape[0] - 1 else int(ties[0]) + 2


def steady_state(strat: DeferralStrategy, alpha: float) -> SteadyStatePattern:
    """Build the repeating occupancy pattern for a feasible strategy.

    ``b`` is one pass of the clamped recurrence over the cycle rotated to
    the starting index, from an empty buffer: O(n).  Until the first
    negative prefix sum it never clamps and its levels are the prefix sums
    (the same additions in the same order), so the scalar recurrence runs
    only from there on.  No other start needs running, because
    ``L -> max(L + a, 0)`` is monotone in ``L`` (Lindley's recursion).  A
    run that starts empty at any later slot starts at or below the run from
    the starting index, whose level there is ``>= 0``, so it stays at or
    below it to the end of the cycle, where that run is at most
    ``CAUSALITY_ATOL`` above 0 (checked below).  From a level in
    ``[0, CAUSALITY_ATOL]`` the recurrence is non-expansive, so every start
    lands within ``CAUSALITY_ATOL`` of ``b`` from the next cycle on.  Rounded
    ``+`` and ``max`` are monotone too, so the ordering holds in IEEE
    arithmetic as well.  ``tests/test_buffer.py`` keeps the all-starts run
    as the reference this is checked against.

    Refuses stored and forwarded masses differing by more than
    ``CAUSALITY_ATOL`` (the buffer cannot drain), and, as internal
    inconsistencies, a rotated prefix sum below ``-CAUSALITY_ATOL`` or an
    occupancy that does not end within ``CAUSALITY_ATOL`` of 0.
    """
    alpha = real("alpha", alpha, 0.0, open_lo=True)
    stored, forwarded = float(np.sum(strat.s)), float(np.sum(strat.r))
    if abs(stored - forwarded) > CAUSALITY_ATOL:
        raise ValueError(
            f"unbalanced strategy: sum(s) = {stored!r} and sum(r) = {forwarded!r} differ "
            f"by {stored - forwarded!r}, more than {CAUSALITY_ATOL!r}; the buffer cannot drain"
        )
    start = find_starting_index(strat)
    s_prime = np.concatenate((strat.s[start - 1:], strat.s[: start - 1]))
    r_prime = np.concatenate((strat.r[start - 1:], strat.r[: start - 1]))
    a = s_prime - r_prime
    b = np.cumsum(a)
    low = float(b.min())
    if low < -CAUSALITY_ATOL:
        raise ValueError(
            f"internal inconsistency: negative prefix sum {low!r} from starting index {start}"
        )
    if low < 0:
        j = int(np.argmax(b < 0))
        level = float(b[j - 1]) if j else 0.0
        b[j:] = list(accumulate(a[j:].tolist(), lambda L, x: max(L + x, 0.0), initial=level))[1:]
    if abs(b[-1]) > CAUSALITY_ATOL:
        raise ValueError(
            f"internal inconsistency: occupancy ends at {float(b[-1])!r}, expected 0"
        )
    b[-1] = 0.0

    for arr in (b, s_prime, r_prime):
        arr.setflags(write=False)
    return SteadyStatePattern(
        start_index=start,
        b=b,
        s_prime=s_prime,
        r_prime=r_prime,
        alpha=alpha,
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
    Hazards are exactly 1 at slots where the buffer drains.  Any
    ``r'[j] > 0`` forwards: a hand-built pattern is taken as given, so
    ``s' = [0.1, 5e-13, 0]``, ``r' = [0, 5e-13, 0.1]`` has hazards ``[0, 5e-12, 1]``.
    """
    r = pattern.r_prime
    prev = np.concatenate(([0.0], pattern.b[:-1]))
    forwards = r > 0.0
    non_causal = np.flatnonzero(forwards & (prev <= CAUSALITY_ATOL))
    if non_causal.size:
        j = int(non_causal[0]) + 1
        raise ValueError(
            f"non-causal pattern: forwarding {float(r[j - 1])!r} at reordered slot {j} "
            "with an empty buffer"
        )
    hazards = np.zeros(pattern.n)
    hazards[forwards] = np.minimum(r[forwards] / prev[forwards], 1.0)
    hazards[forwards & (pattern.b == 0.0)] = 1.0  # drained, if only by steady_state's final snap
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
    matrix, arrival slots with storage by ``n`` delays, filled in place:
    O(n^2) memory, about 0.09 ms at n = 168 and 8 ms at n = 1440.  Any
    ``s'[k] != 0`` arrives, as given: :func:`forwarding_hazards`' example sums to ``sum(s')``.
    """
    n = pattern.n
    s = pattern.s_prime
    hazards = forwarding_hazards(pattern)

    # row i: the hazards of the n slots after the i-th arrival slot, in order,
    # from a strided view of the hazards repeated twice (np.ndarray, as
    # as_strided and sliding_window_view keep ~10 bytes a call in numpy 2.4.6)
    k = np.flatnonzero(s)
    twice = np.concatenate((hazards, hazards))
    h = np.ndarray((n + 1, n), buffer=twice, strides=twice.strides * 2)[k + 1]
    terms = np.empty(h.shape)
    terms[:, 0] = 1.0
    np.cumprod(1.0 - h[:, :-1], axis=1, out=terms[:, 1:])
    terms *= s[k, None]
    terms *= h
    pmf = terms.sum(axis=0)

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

    ``alpha`` defaults to the message count of the strategy's profile, which
    is then refused as an ``alpha`` of 0 if the profile carries none.  The
    analysis holds for every balanced, causal strategy, including one above
    its profile's critical rate, such as acceptance criterion 6's single
    flow; :func:`steady_state` and :func:`forwarding_hazards` refuse the rest.
    """
    if alpha is None:
        alpha = strat.q_ref.count
    pattern = steady_state(strat, alpha)
    dist = delay_distribution(pattern)
    return pattern, capacity(pattern), dist

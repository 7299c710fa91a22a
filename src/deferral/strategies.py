"""Optimal storing/forwarding strategies for a given message-deferral rate.

The problem solved here: given an actual profile ``q`` and a rate ``phi``,
choose a storing strategy ``s`` and a forwarding strategy ``r`` (both
componentwise nonnegative, both summing to ``phi``, with ``q - s + r >= 0``)
so that the apparent profile ``t = q - s + r`` has maximum Shannon entropy.

The optimum has a two-threshold water-filling structure: the largest
components of ``q`` are lowered to a common level ``theta_hi`` (that mass is
stored), the smallest components are raised to a level ``theta_lo`` (that
mass is forwarded), and intermediate components are untouched.  The
solvers find both in two stages: :func:`_prefix`, a sort and prefix sums of
the profile and the counts ``k = 1..n``, memoized for the last profile
solved, then a scan at each rate, so they only scan when called for one
profile in turn.  :func:`_levels` scans a grid of rates at once, for
:func:`privacy_deferral_curve` and for :func:`waterfill`, the batched public
form over profiles and rates.  :func:`solve_optimal` scans the two memoized
rows of its profile at its one rate with the same arithmetic, and hands its
``[s; r]`` to the strategy as one array, snapped once and kept.
:func:`solve_numerical_oracle` solves the same program with a generic
constrained optimizer that knows nothing about that structure, and exists
to validate the closed form; :func:`solve_grid_oracle` does the same by
brute-force enumeration for small alphabets.

Beyond the critical rate (the total variation distance between ``q`` and
uniform) the apparent profile is already uniform and extra deferral buys
nothing, so rates above it are clamped.  Only the solvers record on a
strategy the rate asked for, and only :func:`solve_optimal` its levels;
both are set with the rest of the strategy, in one call, never after it.

All solvers are pure functions of their inputs and thread-safe; points of a
rate grid can be evaluated concurrently.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from ._checks import finite_array, numbers, real
from .profiles import (
    ActivityProfile, _critical_rates, _pmf_rows, critical_rate, entropy, entropy_rows,
)

#: Strategy entries within this of zero are snapped to exactly 0; read in this module only.
ZERO_ATOL = 1e-12

#: Tolerance on the mass constraints sum(s) == sum(r) == phi.
MASS_ATOL = 1e-9


def _snap(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.where(np.abs(values) <= ZERO_ATOL, 0.0, values)


class DeferralStrategy:
    """A feasible storing/forwarding pair for a profile.

    Attributes
    ----------
    s, r : np.ndarray
        Per-slot stored and forwarded fractions of total traffic.
    phi : float
        Effective deferral rate, ``sum(s) == sum(r) == phi``.
    q_ref : ActivityProfile
        The profile the strategy applies to.
    requested_phi : float
        The rate a solver was asked for, ``phi`` for a strategy built by
        hand; differs from ``phi`` only when a request was clamped.
    clamped : bool
        True when ``requested_phi`` was clamped down to the critical rate:
        derived, ``requested_phi > phi``.
    theta_hi, theta_lo : float or None
        The water-filling levels of :func:`solve_optimal`, else None.

    Immutable: the attributes are read-only properties, and validated once,
    at construction, against ``q_ref``; ``s`` and ``r`` must hold numbers
    (int, uint or float), not strings or bools.  A feasible pair is accepted after
    a fixed set of five whole-array reductions (two sums, two minima, one
    maximum); the ordered checks that name the first violated constraint
    run only when one of those fails.  ``s`` and ``r`` of one shape are
    kept as the read-only rows of one snapped array, each entry exactly 0.0
    or above ``ZERO_ATOL``: the buffer and the simulator test exact zeros.
    Snapping makes that array, so it never shares memory with the caller's.
    Strategies compare by identity; compare ``to_dict()`` for values.
    """

    __slots__ = ("_s", "_r", "_phi", "_q_ref", "_requested_phi", "_theta_hi", "_theta_lo", "_t")

    def __init__(self, s, r, phi: float, q_ref: ActivityProfile):
        phi = _check_phi(phi)
        s, r = numbers("s", s), numbers("r", r)
        if s.shape != r.shape:  # feasibility_violation names the shapes
            raise ValueError(f"infeasible strategy: {feasibility_violation(q_ref.q, s, r, phi)}")
        self._keep((s, r), phi, q_ref, phi, (None, None))

    def _keep(self, sr, phi: float, q_ref: ActivityProfile, requested: float, levels) -> None:
        """Snap ``sr``, an ``[s; r]`` of floats, validate it and set every slot:
        the one writer of a strategy, with the rate asked for and the
        ``(theta_lo, theta_hi)`` levels."""
        sr = _snap(sr)  # a new array, so no caller holds it
        sr.setflags(write=False)  # first: the rows below are views, read-only too
        s, r = sr
        violation = feasibility_violation(q_ref.q, s, r, phi)
        if violation:
            raise ValueError(f"infeasible strategy: {violation}")
        t = _apparent(q_ref.q, s, r)
        t.setflags(write=False)
        self._s, self._r, self._phi, self._q_ref, self._requested_phi = s, r, phi, q_ref, requested
        (self._theta_lo, self._theta_hi), self._t = levels, t

    s, r, phi, q_ref, requested_phi, theta_hi, theta_lo = (
        property(attrgetter(slot)) for slot in __slots__[:-1]
    )

    @property
    def clamped(self) -> bool:
        return self._requested_phi > self._phi

    def __repr__(self) -> str:
        names = ("s", "r", "phi", "q_ref", "requested_phi", "clamped", "theta_hi", "theta_lo")
        return f"DeferralStrategy({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def apparent(self) -> np.ndarray:
        """The apparent profile ``t = q - s + r``.

        Computed once at construction and returned as the same read-only
        array on every call; copy it before changing it.
        """
        return self._t

    def entropy_bits(self) -> float:
        """Entropy of the apparent profile in bits."""
        return entropy(self._t)

    def to_dict(self) -> dict:
        return {
            "phi": self.phi,
            "requested_phi": self.requested_phi,
            "clamped": self.clamped,
            "s": [float(x) for x in self.s],
            "r": [float(x) for x in self.r],
            "t": [float(x) for x in self.apparent()],
            "entropy_bits": self.entropy_bits(),
            "theta_hi": self.theta_hi,
            "theta_lo": self.theta_lo,
            "profile": self.q_ref.to_dict(),
        }


def feasibility_violation(q, s, r, phi) -> Optional[str]:
    """Describe the first violated strategy constraint, or None if feasible."""
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if s.shape != q.shape or r.shape != q.shape:
        if q.ndim == s.ndim == r.ndim == 1:
            return f"shape mismatch: q has {q.shape[0]} slots, s {s.shape[0]}, r {r.shape[0]}"
        return f"shape mismatch: q has shape {q.shape}, s {s.shape}, r {r.shape}"
    # Accept: a sum is finite only if every entry is, and NaN fails every comparison.
    # These imply q - s + r >= -ZERO_ATOL: q - s is exactly -(s - q), and adding r >= 0
    # rounds to no less.  Silent, so that only the ordered checks below warn.  These
    # ufunc reductions are .sum(), .min() and .max() without their Python wrappers.
    add, low, high = np.add.reduce, np.minimum.reduce, np.maximum.reduce
    with np.errstate(all="ignore"):
        if q.size and (
            abs(add(s, None) - phi) <= MASS_ATOL and abs(add(r, None) - phi) <= MASS_ATOL
            and low(s, None) >= 0 and low(r, None) >= 0 and high(s - q, None) <= ZERO_ATOL
        ):
            return None
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(r))):
        return "s or r has non-finite entries"
    if np.any(s < 0):
        i = int(np.argmin(s))
        return f"s[{i}] = {float(s[i])!r} is negative"
    if np.any(r < 0):
        i = int(np.argmin(r))
        return f"r[{i}] = {float(r[i])!r} is negative"
    # Written so that NaN fails them: a NaN rate or q[i] is named, not accepted.
    if not abs(s.sum() - phi) <= MASS_ATOL:
        return f"sum(s) = {float(s.sum())!r} differs from phi = {float(phi)!r}"
    if not abs(r.sum() - phi) <= MASS_ATOL:
        return f"sum(r) = {float(r.sum())!r} differs from phi = {float(phi)!r}"
    over = s - q
    if not np.all(over <= ZERO_ATOL):
        i = int(np.argmax(over))  # the first NaN, if any
        return f"s[{i}] = {float(s[i])!r} exceeds q[{i}] = {float(q[i])!r}"
    return None


def _apparent(q, s, r) -> np.ndarray:
    # Feasibility bounds any negative residue by ZERO_ATOL; clip it away.
    return np.maximum(q - s + r, 0.0)


def _check_phi(phi: float) -> float:
    return real("deferral rate", phi, 0.0, 1.0, open_hi=True)


def _check_rates(name: str, phis) -> list[float]:
    """Every rate of ``phis``, checked in order; ``name`` names ``phis`` when
    it cannot be iterated."""
    try:
        rates = iter(phis)
    except TypeError:
        raise ValueError(f"{name} must be an iterable of deferral rates, got {phis!r}") from None
    return [_check_phi(phi) for phi in rates]


def _effective_rate(profile: ActivityProfile, phi: float) -> tuple[float, float]:
    """``(requested, effective)``: ``phi`` checked, then clamped to the
    critical rate of ``profile``."""
    requested = _check_phi(phi)
    return requested, min(requested, critical_rate(profile))


def _prefix(Q) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-profile stage of :func:`waterfill` for U x n ``Q``: the 2U rows
    ``[Q; -Q]``, the prefix sums ``c`` of each row sorted in descending order
    ``v``, the next value ``v_{k+1}`` of that order, ``-inf`` past the end,
    and the counts ``k = 1..n``; ``Q`` is a float array."""
    u = np.sort(Q, axis=1)
    v = np.concatenate([u[:, ::-1], -u])
    below = np.concatenate([v[:, 1:], np.full((v.shape[0], 1), -np.inf)], axis=1)
    return np.concatenate([Q, -Q]), np.cumsum(v, axis=1), below, np.arange(1.0, Q.shape[1] + 1)


@functools.lru_cache(maxsize=1)
def _profile_prefix(profile: ActivityProfile):
    """The :func:`_prefix` of one profile, kept for the last profile only."""
    return _prefix(profile.q[None, :])


def _levels(prefix, phi2) -> np.ndarray:
    """The per-rate stage of :func:`waterfill`: the top levels of the rows of a
    :func:`_prefix` at 2U x K rates, ``(c_k - phi) / k`` at the first k where
    it is ``>= v_{k+1}``; ``phi2`` is a float array."""
    _, c, below, k = prefix
    theta = (c[:, None, :] - phi2[:, :, None]) / k
    first = (theta >= below[:, None, :]).argmax(axis=2)
    return theta.reshape(-1, k.size)[np.arange(first.size), first.ravel()].reshape(first.shape)


#: The rows ``q`` and ``-q`` of one profile's :func:`_prefix`, as an index.
_ROWS = np.arange(2)


def waterfill(Q, phi) -> tuple[np.ndarray, np.ndarray]:
    """Water-filling levels ``(theta_lo, theta_hi)`` of U profiles at K rates.

    ``Q`` is U x n, one PMF per row, and ``phi`` U x K, each rate in
    ``[0, critical rate of its row]``; both are checked, and the first bad
    row or rate is named.  Both levels are U x K:
    ``sum(max(theta_lo - q, 0)) == sum(max(q - theta_hi, 0)) == phi``.
    The top level of a row is that of :func:`_levels`; the bottom level is
    minus the top level of ``-q``, exactly in floating point, so one sort
    and one scan serve both.  :func:`_prefix` holds the work that does not
    depend on the rate, which :func:`_profile_prefix` keeps for one profile.
    """
    Q, _ = _pmf_rows(Q, "Q", "Q[{}]")
    if not Q.shape[1]:
        raise ValueError(f"Q must have at least one slot, got shape {Q.shape}")
    phi = finite_array("phi", phi)
    if phi.ndim != 2 or len(phi) != len(Q):
        raise ValueError(f"phi must be a U x K array, one row per row of Q, got shape {phi.shape} "
                         f"for Q of shape {Q.shape}")
    crit = _critical_rates(Q)
    bad = np.argwhere((phi < 0) | (phi > crit[:, None]))
    if bad.size:
        u, k = bad[0]
        raise ValueError(
            f"phi must lie in [0, {float(crit[u])!r}] in row {u}, the critical rate of Q[{u}], "
            f"got {float(phi[u, k])!r} at phi[{u}, {k}]"
        )
    level = _levels(_prefix(Q), np.concatenate([phi, phi]))
    return -level[len(phi):], level[:len(phi)]


def _solved(profile, sr, phi, requested, levels=(None, None)) -> DeferralStrategy:
    """A solver's strategy from its ``[s; r]``, with the rate asked for and its
    ``(theta_lo, theta_hi)``; ``phi`` is already checked."""
    strategy = DeferralStrategy.__new__(DeferralStrategy)
    strategy._keep(sr, phi, profile, requested, levels)
    return strategy


def solve_optimal(profile: ActivityProfile, phi: float) -> DeferralStrategy:
    """Entropy-maximizing strategy at rate ``phi``, in closed form.

    Rates above the critical rate are clamped to it (the apparent profile is
    already uniform there); the returned strategy records both the requested
    and the effective rate.

    The storing/forwarding supports are disjoint (``s[k] * r[k] == 0``) and
    the apparent profile is ``q`` clipped to ``[theta_lo, theta_hi]``.
    """
    requested, eff = _effective_rate(profile, phi)
    rows, c, below, k = _profile_prefix(profile)
    # the scan of _levels on the two rows of one profile at one rate
    theta = (c - eff) / k
    level = theta[_ROWS, (theta >= below).argmax(axis=1)]
    # [q; -q] minus [theta_hi; -theta_lo]: -q + theta_lo is exactly theta_lo - q
    sr = np.maximum(rows - level[:, None], 0.0)  # _keep snaps it
    return _solved(profile, sr, eff, requested, (-float(level[1]), float(level[0])))


def _neg_entropy_and_grad(x: np.ndarray, q: np.ndarray):
    n = q.size
    s, r = x[:n], x[n:]
    t = np.clip(q - s + r, 1e-300, None)
    logt = np.log2(t)
    f = float((t * logt).sum())
    dt = logt + 1.0 / math.log(2.0)
    return f, np.concatenate([-dt, dt])


def solve_numerical_oracle(profile: ActivityProfile, phi: float) -> DeferralStrategy:
    """Solve the same program with a generic constrained optimizer.

    Uses sequential least-squares programming over the polytope
    ``{s, r >= 0, sum(s) = sum(r) = phi, q - s + r >= 0}`` with no knowledge
    of the water-filling structure.  Exists solely to validate
    :func:`solve_optimal`: the achieved entropy agrees with the true optimum.

    Raises
    ------
    ImportError
        If SciPy, the ``deferral[oracle]`` extra, is not installed.
    RuntimeError
        If SLSQP converges from none of its starts; the message quotes
        why it stopped at each.
    """
    requested, eff = _effective_rate(profile, phi)
    q = profile.q
    n = profile.n
    if eff == 0.0:
        return _solved(profile, np.zeros((2, n)), 0.0, requested)

    try:  # lazily: its import takes ~0.5 s and only the oracle uses it
        from scipy import optimize
    except ImportError as exc:
        raise ImportError("the oracle needs SciPy: pip install 'deferral[oracle]'") from exc

    ones_s = np.concatenate([np.ones(n), np.zeros(n)])
    ones_r = np.concatenate([np.zeros(n), np.ones(n)])
    jac_t = np.hstack([-np.eye(n), np.eye(n)])
    constraints = [
        {"type": "eq", "fun": lambda x: x[:n].sum() - eff, "jac": lambda x: ones_s},
        {"type": "eq", "fun": lambda x: x[n:].sum() - eff, "jac": lambda x: ones_r},
        {"type": "ineq", "fun": lambda x: q - x[:n] + x[n:], "jac": lambda x: jac_t},
    ]
    bounds = [(0.0, eff)] * (2 * n)

    def starts():
        yield np.concatenate([eff * q, np.full(n, eff / n)])
        rng = np.random.default_rng(0)
        for _ in range(3):
            s0 = rng.dirichlet(np.ones(n)) * eff
            s0 = np.minimum(s0, q)
            s0 *= eff / s0.sum() if s0.sum() > 0 else 1.0
            yield np.concatenate([s0, rng.dirichlet(np.ones(n)) * eff])

    stops = []
    for x0 in starts():
        with warnings.catch_warnings():
            # the optimizer may probe just outside the box and clip back
            warnings.filterwarnings("ignore", message="Values in x were outside bounds")
            res = optimize.minimize(
                _neg_entropy_and_grad,
                x0,
                args=(q,),
                jac=True,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 1000, "ftol": 1e-12},
            )
        # the first start that converges: a failed one may score better
        # only by leaving the feasible set
        if res.success:
            break
        stops.append(res.message)
    else:
        raise RuntimeError(f"oracle did not converge from any start: {'; '.join(stops)}")

    t = np.clip(q - res.x[:n] + res.x[n:], 0.0, None)
    # Canonicalize to the minimal decomposition of t: any padding the
    # optimizer introduced is removed, then the mass is scaled onto phi.
    s = np.clip(q - t, 0.0, None)
    r = np.clip(t - q, 0.0, None)
    mass = s.sum()
    if mass > 0:
        s = np.minimum(s * (eff / mass), q)  # rescale may overshoot q by an ulp
    mass = r.sum()
    if mass > 0:
        r *= eff / mass
    return _solved(profile, (s, r), eff, requested)


def _compositions(n: int, total: int) -> np.ndarray:
    """All length-n tuples of nonnegative integers summing to total."""
    if n == 2:
        a = np.arange(total + 1, dtype=np.int64)
        return np.column_stack([a, total - a])
    blocks = []
    for first in range(total + 1):
        rest = _compositions(n - 1, total - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


@functools.lru_cache(maxsize=1)
def _candidate_grid(n: int, steps: int):
    """Candidate apparent profiles, their entropies and their first entries,
    shared across calls; rows are sorted by first entry."""
    grid = _compositions(n, steps) / float(steps)
    logs = np.log2(np.where(grid > 0, grid, 1.0))
    ent = -(grid * logs).sum(axis=1)
    return grid, ent, grid[:, 0].copy()


def solve_grid_oracle(
    profile: ActivityProfile, phi: float, step: float = 1e-3
) -> tuple[np.ndarray, float]:
    """Best apparent profile found by exhaustive enumeration.

    Enumerates every PMF on a grid of resolution ``step`` and keeps the
    highest-entropy one that is reachable at rate ``phi``, i.e. whose total
    variation distance from ``q`` is at most ``phi``.  (A profile ``t`` is
    reachable exactly when ``TV(t, q) <= phi``: moving mass ``TV(t, q)``
    realizes it, and any slack can be burned by storing and re-forwarding in
    the same slot.)  Intended for small alphabets; the grid has
    ``C(1/step + n - 1, n - 1)`` points (over 10**7 are refused), of which
    only the block with ``|t_0 - q_0| <= phi`` is scanned: every reachable
    ``t`` has ``|t_i - q_i| <= TV(t, q)``, so the scan stays exhaustive.

    Returns
    -------
    (t, entropy_bits)
        The best grid point and its entropy.
    """
    _, eff = _effective_rate(profile, phi)
    step = real("step", step, 0.0, 0.5, open_lo=True)
    n = profile.n
    if n > 4:
        raise ValueError(f"grid oracle is only meant for n <= 4, got n = {n}")
    steps = round(1.0 / step)
    points = math.comb(steps + n - 1, n - 1)
    if points > 10**7:  # n = 4 at step 1e-3 has 1.7e8 points, over 10 GB
        raise ValueError(f"grid oracle needs {points:,} points at step {step!r}, over 10**7")
    grid, ent, first = _candidate_grid(n, steps)
    # A margin wider than the feasibility test's: rounding drops no point.
    lo, hi = np.searchsorted(first, profile.q[0] + np.array([-1.0, 1.0]) * (eff + 1e-9))
    grid, ent = grid[lo:hi], ent[lo:hi]
    tv = 0.5 * np.abs(grid - profile.q).sum(axis=1)
    feasible = tv <= eff + 1e-12
    if not feasible.any():
        raise RuntimeError("grid too coarse: no feasible point found")
    idx = int(np.argmax(np.where(feasible, ent, -np.inf)))
    return grid[idx].copy(), float(ent[idx])


def relative_privacy_gain(profile: ActivityProfile, entropy_bits):
    """Relative privacy gain in percent, ``100 * (P - H(q)) / H(q)``.

    ``entropy_bits`` may be a finite float or an array of them; the result
    takes its form, and ``H(q)`` is computed once per call.
    """
    bits = finite_array("entropy_bits", entropy_bits)
    base = entropy(profile.q)
    if base == 0.0:
        raise ValueError("relative privacy gain undefined: profile has zero entropy")
    gain = 100.0 * (bits - base) / base
    return gain if gain.ndim else float(gain)


@dataclass(frozen=True)
class PrivacyCurvePoint:
    """One point of the privacy-deferral curve."""

    phi: float
    entropy_bits: float
    gain_pct: float


def privacy_deferral_curve(
    profile: ActivityProfile, phis: Iterable[float]
) -> list[PrivacyCurvePoint]:
    """Evaluate the optimal privacy level over a grid of deferral rates.

    The curve is nondecreasing and concave in ``phi`` and saturates at
    ``log2(n)`` once ``phi`` reaches the critical rate.  Every rate is
    checked before any is solved; then one :func:`_levels` call solves
    the grid, with the arithmetic of ``solve_optimal(profile, phi)``, and
    one :func:`entropy_rows` call rates its apparent profiles.
    """
    requested = _check_rates("phis", phis)
    if not requested:
        return []
    prefix = _profile_prefix(profile)
    level = _levels(prefix, np.minimum([requested] * 2, critical_rate(profile)))
    s, r = _snap(np.maximum(prefix[0][:, None, :] - level[:, :, None], 0.0))
    bits = entropy_rows(_apparent(profile.q, s, r))
    gains = relative_privacy_gain(profile, bits).tolist()
    return [PrivacyCurvePoint(*point) for point in zip(requested, bits.tolist(), gains)]

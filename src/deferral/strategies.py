"""Optimal storing/forwarding strategies for a given message-deferral rate.

The problem solved here: given an actual profile ``q`` and a rate ``phi``,
choose a storing strategy ``s`` and a forwarding strategy ``r`` (both
componentwise nonnegative, both summing to ``phi``, with ``q - s + r >= 0``)
so that the apparent profile ``t = q - s + r`` has maximum Shannon entropy.

The optimum has a two-threshold water-filling structure: the largest
components of ``q`` are lowered to a common level ``theta_hi`` (that mass is
stored), the smallest components are raised to a level ``theta_lo`` (that
mass is forwarded), and intermediate components are untouched.
:func:`solve_optimal` computes the thresholds in closed form by a sorted
prefix-sum scan.  :func:`solve_numerical_oracle` solves the same program
with a generic constrained optimizer that knows nothing about that
structure, and exists to validate the closed form;
:func:`solve_grid_oracle` does the same by brute-force enumeration for
small alphabets.

Beyond the critical rate (the total variation distance between ``q`` and
uniform) the apparent profile is already uniform and extra deferral buys
nothing, so rates above it are clamped, with the clamping reported on the
result.

All solvers are pure functions of their inputs and thread-safe; points of a
rate grid can be evaluated concurrently.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .profiles import ActivityProfile, critical_rate, entropy

#: Strategy components closer to zero than this are snapped to zero.
ZERO_ATOL = 1e-12

#: Tolerance on the mass constraints sum(s) == sum(r) == phi.
MASS_ATOL = 1e-9


def _snap(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out[np.abs(out) <= ZERO_ATOL] = 0.0
    return out


@dataclass
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
        The rate that was asked for; differs from ``phi`` only when the
        request exceeded the critical rate and was clamped.
    clamped : bool
        True when ``requested_phi`` was clamped down to the critical rate.
    theta_hi, theta_lo : float or None
        Water-filling levels, populated by the solvers that know them.
    """

    s: np.ndarray
    r: np.ndarray
    phi: float
    q_ref: ActivityProfile
    requested_phi: Optional[float] = None
    clamped: bool = False
    theta_hi: Optional[float] = None
    theta_lo: Optional[float] = None

    def __post_init__(self):
        self.s = _snap(self.s)
        self.r = _snap(self.r)
        if self.requested_phi is None:
            self.requested_phi = self.phi
        violation = feasibility_violation(self.q_ref.q, self.s, self.r, self.phi)
        if violation:
            raise ValueError(f"infeasible strategy: {violation}")
        self.s.setflags(write=False)
        self.r.setflags(write=False)

    @property
    def n(self) -> int:
        return self.q_ref.n

    def apparent(self) -> np.ndarray:
        """The apparent profile ``t = q - s + r``."""
        return apparent_profile(self.q_ref, self)

    def entropy_bits(self) -> float:
        return entropy(self.apparent())

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
        return f"shape mismatch: q has {q.shape[0]} slots, s {s.shape[0]}, r {r.shape[0]}"
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(r))):
        return "s or r has non-finite entries"
    if np.any(s < 0):
        i = int(np.argmin(s))
        return f"s[{i}] = {s[i]!r} is negative"
    if np.any(r < 0):
        i = int(np.argmin(r))
        return f"r[{i}] = {r[i]!r} is negative"
    if abs(s.sum() - phi) > MASS_ATOL:
        return f"sum(s) = {s.sum()!r} differs from phi = {phi!r}"
    if abs(r.sum() - phi) > MASS_ATOL:
        return f"sum(r) = {r.sum()!r} differs from phi = {phi!r}"
    over = s - q
    if np.any(over > ZERO_ATOL):
        i = int(np.argmax(over))
        return f"s[{i}] = {s[i]!r} exceeds q[{i}] = {q[i]!r}"
    t = q - s + r
    if np.any(t < -ZERO_ATOL):
        i = int(np.argmin(t))
        return f"apparent profile is negative at slot {i}: {t[i]!r}"
    return None


def apparent_profile(profile: ActivityProfile, strat: DeferralStrategy) -> np.ndarray:
    """Apparent profile ``t = q - s + r``; raises if the strategy is infeasible."""
    violation = feasibility_violation(profile.q, strat.s, strat.r, strat.phi)
    if violation:
        raise ValueError(f"infeasible strategy: {violation}")
    # Feasibility bounds any negative residue by ZERO_ATOL; clip it away.
    return np.clip(profile.q - strat.s + strat.r, 0.0, None)


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if not (0.0 <= phi < 1.0) or not math.isfinite(phi):
        raise ValueError(f"deferral rate must lie in [0, 1), got {phi!r}")
    return phi


def _upper_level(q: np.ndarray, phi: float) -> float:
    """Level theta with sum(max(q - theta, 0)) == phi (cut from the top)."""
    v = np.sort(q)[::-1]
    csum = np.cumsum(v)
    k = np.arange(1, q.size + 1)
    theta = (csum - phi) / k
    below = np.concatenate([v[1:], [-np.inf]])
    valid = np.nonzero(theta >= below)[0]
    return float(theta[valid[0]])


def _lower_level(q: np.ndarray, phi: float) -> float:
    """Level theta with sum(max(theta - q, 0)) == phi (fill from the bottom)."""
    u = np.sort(q)
    csum = np.cumsum(u)
    k = np.arange(1, q.size + 1)
    theta = (phi + csum) / k
    above = np.concatenate([u[1:], [np.inf]])
    valid = np.nonzero(theta <= above)[0]
    return float(theta[valid[0]])


def solve_optimal(profile: ActivityProfile, phi: float) -> DeferralStrategy:
    """Entropy-maximizing strategy at rate ``phi``, in closed form.

    Rates above the critical rate are clamped to it (the apparent profile is
    already uniform there); the returned strategy records both the requested
    and the effective rate.

    The storing/forwarding supports are disjoint (``s[k] * r[k] == 0``) and
    the apparent profile is ``q`` clipped to ``[theta_lo, theta_hi]``.
    """
    requested = _check_phi(phi)
    phi_crit = critical_rate(profile)
    clamped = requested > phi_crit
    eff = min(requested, phi_crit)
    q = profile.q
    if eff == 0.0:
        return DeferralStrategy(
            s=np.zeros(profile.n),
            r=np.zeros(profile.n),
            phi=0.0,
            q_ref=profile,
            requested_phi=requested,
            clamped=clamped,
            theta_hi=float(q.max()),
            theta_lo=float(q.min()),
        )
    theta_hi = _upper_level(q, eff)
    theta_lo = _lower_level(q, eff)
    s = np.clip(q - theta_hi, 0.0, None)
    r = np.clip(theta_lo - q, 0.0, None)
    return DeferralStrategy(
        s=s,
        r=r,
        phi=eff,
        q_ref=profile,
        requested_phi=requested,
        clamped=clamped,
        theta_hi=theta_hi,
        theta_lo=theta_lo,
    )


def _neg_entropy_and_grad(x: np.ndarray, q: np.ndarray):
    n = q.size
    s, r = x[:n], x[n:]
    t = np.clip(q - s + r, 1e-300, None)
    logt = np.log2(t)
    f = float((t * logt).sum())
    dt = logt + 1.0 / math.log(2.0)
    return f, np.concatenate([-dt, dt])


def solve_numerical_oracle(
    profile: ActivityProfile,
    phi: float,
    tol: float = 1e-9,
    maxiter: int = 1000,
) -> DeferralStrategy:
    """Solve the same program with a generic constrained optimizer.

    Uses sequential least-squares programming over the polytope
    ``{s, r >= 0, sum(s) = sum(r) = phi, q - s + r >= 0}`` with no knowledge
    of the water-filling structure.  Exists solely to validate
    :func:`solve_optimal`: the achieved entropy agrees with the true optimum
    to within ``tol``.

    Raises
    ------
    RuntimeError
        If the optimizer does not converge within ``maxiter`` iterations;
        the message carries the best entropy found.
    """
    requested = _check_phi(phi)
    phi_crit = critical_rate(profile)
    clamped = requested > phi_crit
    eff = min(requested, phi_crit)
    q = profile.q
    n = profile.n
    if eff == 0.0:
        return DeferralStrategy(
            s=np.zeros(n), r=np.zeros(n), phi=0.0, q_ref=profile,
            requested_phi=requested, clamped=clamped,
        )

    from scipy import optimize  # lazily: its import takes ~0.5 s and only the oracle uses it

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

    best = None
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
                options={"maxiter": maxiter, "ftol": min(tol, 1e-12)},
            )
        if best is None or res.fun < best.fun:
            best = res
        if res.success:
            break
    if not best.success:
        raise RuntimeError(
            f"oracle did not converge within {maxiter} iterations; "
            f"best entropy found: {-best.fun:.9f} bits ({best.message})"
        )

    t = np.clip(q - best.x[:n] + best.x[n:], 0.0, None)
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
    return DeferralStrategy(
        s=s, r=r, phi=eff, q_ref=profile,
        requested_phi=requested, clamped=clamped,
    )


def _compositions(n: int, total: int) -> np.ndarray:
    """All length-n tuples of nonnegative integers summing to total."""
    if n == 1:
        return np.array([[total]], dtype=np.int64)
    if n == 2:
        a = np.arange(total + 1, dtype=np.int64)
        return np.column_stack([a, total - a])
    blocks = []
    for first in range(total + 1):
        rest = _compositions(n - 1, total - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


class _GridCache:
    """Grid of candidate apparent profiles, shared across calls."""

    def __init__(self):
        self._grids = {}

    def get(self, n: int, steps: int):
        key = (n, steps)
        if key not in self._grids:
            grid = _compositions(n, steps) / float(steps)
            logs = np.log2(np.where(grid > 0, grid, 1.0))
            ent = -(grid * logs).sum(axis=1)
            self._grids[key] = (grid, ent)
        return self._grids[key]


_grid_cache = _GridCache()


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
    ``C(1/step + n - 1, n - 1)`` points.

    Returns
    -------
    (t, entropy_bits)
        The best grid point and its entropy.
    """
    requested = _check_phi(phi)
    eff = min(requested, critical_rate(profile))
    n = profile.n
    if n > 4:
        raise ValueError(f"grid oracle is only meant for n <= 4, got n = {n}")
    steps = round(1.0 / step)
    grid, ent = _grid_cache.get(n, steps)
    tv = 0.5 * np.abs(grid - profile.q).sum(axis=1)
    feasible = tv <= eff + 1e-12
    if not feasible.any():
        raise RuntimeError("grid too coarse: no feasible point found")
    idx = int(np.argmax(np.where(feasible, ent, -np.inf)))
    return grid[idx].copy(), float(ent[idx])


def relative_privacy_gain(profile: ActivityProfile, entropy_bits: float) -> float:
    """Relative privacy gain in percent, ``100 * (P - H(q)) / H(q)``."""
    base = entropy(profile.q)
    if base == 0.0:
        raise ValueError("relative privacy gain undefined: profile has zero entropy")
    return 100.0 * (entropy_bits - base) / base


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
    ``log2(n)`` once ``phi`` reaches the critical rate.
    """
    points = []
    for phi in phis:
        strat = solve_optimal(profile, phi)
        bits = strat.entropy_bits()
        points.append(
            PrivacyCurvePoint(
                phi=float(phi),
                entropy_bits=bits,
                gain_pct=relative_privacy_gain(profile, bits),
            )
        )
    return points

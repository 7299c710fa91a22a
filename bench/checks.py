"""Correctness checks on the library's outputs.

Each check returns a list of problems, empty when the output is correct.
The benchmark counts an operation with any problem as failed and exits
nonzero.  The checks use numpy only, never the library under test.
"""

import hashlib
import math

import numpy as np

#: Tolerance for saturation at log2(n), PMF sums and delay mass.
ATOL = 1e-9


def entropy_bits(q) -> float:
    q = np.asarray(q, dtype=float)
    nz = q[q > 0]
    return float(-(nz * np.log2(nz)).sum())


def gain_curve(phis, entropies, phi_crit: float, n: int) -> list[str]:
    """Nondecreasing in phi, and equal to log2(n) once phi reaches phi_crit."""
    problems = []
    entropies = np.asarray(entropies, dtype=float)
    drops = np.nonzero(np.diff(entropies) < -ATOL)[0]
    if drops.size:
        k = int(drops[0])
        problems.append(
            f"gain curve decreases from phi={phis[k]!r} to phi={phis[k + 1]!r}: "
            f"{entropies[k]!r} -> {entropies[k + 1]!r} bits"
        )
    top = math.log2(n)
    for phi, bits in zip(phis, entropies):
        if phi >= phi_crit and abs(bits - top) > ATOL:
            problems.append(
                f"gain curve at phi={phi!r} >= phi_crit={phi_crit!r} is {bits!r} bits, "
                f"not log2(n)={top!r}"
            )
            break
    return problems


def pmf_rows(rows, label: str) -> list[str]:
    """Every row sums to 1."""
    sums = np.asarray(rows, dtype=float).sum(axis=-1)
    bad = np.nonzero(np.abs(sums - 1.0) > ATOL)[0]
    if bad.size:
        return [f"{label} row {int(bad[0])} sums to {float(sums[bad[0]])!r}, not 1"]
    return []


def delay_pmf(pmf, phi: float, n: int) -> list[str]:
    """Support inside {1..n}, nonnegative, total mass equal to phi."""
    pmf = np.asarray(pmf, dtype=float)
    problems = []
    if pmf.shape != (n,):
        problems.append(f"delay pmf has shape {pmf.shape}, expected ({n},) for delays 1..{n}")
    if np.any(pmf < 0):
        problems.append("delay pmf has negative entries")
    if abs(float(pmf.sum()) - phi) > ATOL:
        problems.append(f"delay pmf sums to {float(pmf.sum())!r}, not phi={phi!r}")
    return problems


def delay_range(delays, n: int, label: str = "delay") -> list[str]:
    """Every (mean conditional) delay lies in [1, n] slots."""
    delays = np.asarray(delays, dtype=float)
    bad = np.nonzero((delays < 1.0 - ATOL) | (delays > n + ATOL) | ~np.isfinite(delays))[0]
    if bad.size:
        return [f"{label} {float(delays[bad[0]])!r} slots lies outside [1, {n}]"]
    return []


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def close(label: str, got, want, atol: float = ATOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
        return [f"{label}: got {got!r}, expected {want!r}"]
    return []


def digest(*parts) -> str:
    """SHA-256 over byte strings (text is UTF-8 encoded)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class RepeatDigests:
    """Outputs for the same input must hash identically every time."""

    def __init__(self):
        self._first: dict = {}

    def check(self, key, value: str) -> list[str]:
        first = self._first.setdefault(key, value)
        if first != value:
            return [f"output for input {key!r} differs from its first run"]
        return []

"""Activity profiles over cyclic time slots, and the metrics defined on them.

A user's online activity is modeled as a PMF ``q`` over ``n`` time slots that
tile a cyclic period (a day, a week, ...); ``population.ingest`` bins a
timestamp log into one per user.  This module also has the
information-theoretic quantities the library is built on: entropy, KL
divergence, total variation and the critical deferral rate.

All logarithms are base 2; entropy and divergence are reported in bits.
Every function here is pure and safe to call from multiple threads.
"""

import csv
import json
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from ._checks import finite_array, integer, real

#: Tolerance used when validating that a vector is a PMF.
PMF_ATOL = 1e-9

DAY_SECONDS = 86_400.0
WEEK_SECONDS = 7 * 86_400.0


def _no_truncate(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _overwrite(path, write, newline=None) -> None:
    """``write(fh)`` into ``open(path, "w", encoding="utf-8")`` opened without
    ``O_TRUNC``: it overwrites the file in place, then a regular file (not a
    pipe or device) that was longer is cut to its new length, which costs a
    file system far less than emptying a just-written file.  Not crash-safe:
    see README "Encoding"."""
    with open(path, "w", encoding="utf-8", newline=newline, opener=_no_truncate) as fh:
        old = os.fstat(fh.fileno())
        write(fh)
        if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
            fh.truncate()


def _write_table(path, header, rows) -> None:
    """Write one CSV table, rewriting ``path`` in place (see ``_overwrite``)."""
    _overwrite(path, lambda fh: csv.writer(fh).writerows([header, *rows]), newline="")


def _write_json(path, payload) -> None:
    """Write one JSON file, rewriting ``path`` in place (see ``_overwrite``)."""
    _overwrite(path, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))


@dataclass(frozen=True)
class SlotScheme:
    """Division of a cyclic period into ``n`` equal time slots.

    Parameters
    ----------
    n : int
        Number of slots, at least 2.
    period_seconds : float
        Length of the cyclic time frame in seconds.
    """

    n: int
    period_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "n", integer("slot count", self.n, 2))
        period = real("period", self.period_seconds, 0.0, open_lo=True)
        object.__setattr__(self, "period_seconds", period)

    @property
    def slot_duration(self) -> float:
        """Seconds per slot."""
        return self.period_seconds / self.n

    @classmethod
    def day(cls, n: int = 24) -> "SlotScheme":
        return cls(n, DAY_SECONDS)

    @classmethod
    def week(cls, n: int = 7) -> "SlotScheme":
        return cls(n, WEEK_SECONDS)

    def slot_of(self, timestamp):
        """1-based slot index of a UTC epoch timestamp, or an ``int64`` array
        of them for an array of timestamps.

        Slot ``i`` covers the half-open interval ``(i-1, i]`` in slot units,
        so a timestamp landing exactly on a boundary belongs to the earlier
        slot, and a timestamp at a period boundary maps to slot ``n``.
        """
        rem = finite_array("timestamp", timestamp) % self.period_seconds
        slot = np.where(rem == 0.0, self.n, np.clip(np.ceil(rem / self.slot_duration), 1, self.n))
        return int(slot) if slot.ndim == 0 else slot.astype(np.int64)


@dataclass(frozen=True)
class TimestampRecord:
    """One logged message: an opaque user id plus a UTC epoch timestamp."""

    user_id: str
    timestamp: float

    def __post_init__(self):
        real("timestamp", self.timestamp, 0.0)


@dataclass(frozen=True, eq=False)
class ActivityProfile:
    """A PMF ``q`` over the slots of ``scheme``.

    ``count`` is the number of messages the estimate is based on; a profile
    binned from timestamps has ``q[i] = (messages in slot i) / count``.
    Synthetic profiles may carry a count that is only a rate parameter.

    Immutable, and validated once, at construction.  Profiles compare and
    hash by identity; compare ``to_dict()`` for values.
    """

    scheme: SlotScheme
    q: np.ndarray
    count: float = 0.0
    _critical_rate: float = field(init=False, repr=False)

    def __post_init__(self):
        q = np.array(self.q)  # a copy, made read-only below
        if q.ndim != 1 or q.shape[0] != self.scheme.n:
            raise ValueError(
                f"profile has {q.shape[0] if q.ndim == 1 else q.shape} entries, "
                f"scheme expects {self.scheme.n}"
            )
        q = _validate_pmf(q)
        q.setflags(write=False)
        object.__setattr__(self, "count", real("message count", self.count, 0.0))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_critical_rate", float(_critical_rates(q)))

    @property
    def n(self) -> int:
        return self.scheme.n

    def to_dict(self) -> dict:
        return {
            "n": self.scheme.n,
            "period_seconds": self.scheme.period_seconds,
            "q": [float(x) for x in self.q],
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ActivityProfile":
        keys = ("n", "period_seconds", "q")
        if not isinstance(data, dict):
            raise ValueError(f"profile must be an object with {', '.join(keys)}, got {type(data).__name__}")
        missing = [key for key in keys if key not in data]
        if missing:
            raise ValueError(f"profile is missing {', '.join(missing)}")
        scheme = SlotScheme(data["n"], data["period_seconds"])
        return cls(scheme=scheme, q=data["q"], count=data.get("count", 0.0))

    def save(self, path) -> None:
        _write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ActivityProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _validate_pmf(p: np.ndarray, name: str = "input") -> np.ndarray:
    p = np.asarray(p)
    if p.dtype.kind not in "iuf":  # such as strings or bools, which a float cast would take
        raise ValueError(f"not a PMF: {name} must hold numbers, got dtype {p.dtype}")
    p = p.astype(float, copy=False)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"not a PMF: {name} must be a nonempty 1-d vector")
    # Accept on two silent reductions (feasibility_violation accepts on five).
    with np.errstate(all="ignore"):
        if abs(p.sum() - 1.0) <= PMF_ATOL and p.min() >= 0:
            return p
    if not np.all(np.isfinite(p)):
        raise ValueError(f"not a PMF: {name} has non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"not a PMF: {name} has negative entries")
    raise ValueError(f"not a PMF: {name} sums to {float(p.sum())!r}")


def _pmf_rows(P, name: str, row_name: str = "input") -> tuple[np.ndarray, np.ndarray]:
    """``(P, minima)``: ``P`` as a float array, refused unless it is a U x n
    array of numbers with a PMF in each row, and the minimum of each row.

    All rows are checked at once (row sums and minima); ``_validate_pmf``
    names the first row that fails, as ``row_name.format(i)`` for row ``i``.
    """
    P = np.asarray(P)
    if P.ndim != 2:
        raise ValueError(f"{name} must be a U x n array of PMF rows, got shape {P.shape}")
    if P.dtype.kind not in "iuf":  # such as strings or bools, which a float cast would take
        raise ValueError(f"{name} must hold numbers, got dtype {P.dtype}")
    P = P.astype(float, copy=False)
    with np.errstate(all="ignore"):
        low = P.min(axis=1, initial=np.inf)  # inf for an empty row, which fails the sum
        off = np.abs(P.sum(axis=1) - 1.0)
    if not (off.max(initial=0.0) <= PMF_ATOL and low.min(initial=0.0) >= 0):
        for i, row in enumerate(P):
            _validate_pmf(row, row_name.format(i))
    return P, low


def _critical_rates(Q) -> np.ndarray:
    """The critical rate of each PMF along the last axis of ``Q``, its total
    variation distance from uniform; summed over contiguous rows, so that a
    row's rate is that of the row alone, bit for bit."""
    Q = np.ascontiguousarray(Q)
    return 0.5 * np.abs(1.0 / Q.shape[-1] - Q).sum(axis=-1)


def uniform_pmf(n: int) -> np.ndarray:
    """The uniform PMF on ``n`` outcomes."""
    n = integer("n", n, 1)
    return np.full(n, 1.0 / n)


def entropy(p) -> float:
    """Shannon entropy of a PMF in bits, with the convention 0*log(0) = 0;
    the one-row case of :func:`entropy_rows`."""
    p = np.asarray(p)
    if p.ndim != 1 or p.dtype.kind not in "iuf":
        _validate_pmf(p)  # raises, naming the dtype or the shape
    return float(entropy_rows(p[None])[0])


def entropy_rows(P) -> np.ndarray:
    """Shannon entropies in bits of the U rows of a U x n array of PMFs.

    All rows are checked at once by ``_pmf_rows``, which names the first row
    that fails with the one-row message.  Rows without zeros are summed as one
    array, which numpy reduces row by row with the pairwise blocking of a
    1-d ``sum``, so each entropy is that of its row alone, bit for bit.
    Rows with zeros sum their positive entries one row at a time, as the
    zeros would shift that blocking.  A point mass has entropy +0.0.
    """
    P, low = _pmf_rows(P, "P")
    dense = low > 0
    bits = np.empty(P.shape[0])
    X = P[dense]
    bits[dense] = -(X * np.log2(X)).sum(axis=1)
    for i in np.flatnonzero(~dense):
        nz = P[i][P[i] > 0]
        bits[i] = -(nz * np.log2(nz)).sum()
    return bits + 0.0  # -0.0 + 0.0 is +0.0; every other value is kept


def kl_divergence(t, p) -> float:
    """KL divergence D(t || p) in bits.

    Requires absolute continuity: every outcome with ``p == 0`` must also
    have ``t == 0``, otherwise the divergence is infinite and an error is
    raised.  With ``p`` uniform this equals ``log2(n) - entropy(t)``.
    """
    t = _validate_pmf(t, "t")
    p = _validate_pmf(p, "p")
    if t.shape != p.shape:
        raise ValueError(f"alphabet mismatch: {t.shape[0]} vs {p.shape[0]} outcomes")
    if np.any((p == 0) & (t > 0)):
        raise ValueError("divergence infinite: t puts mass where p has none")
    mask = t > 0
    return float((t[mask] * np.log2(t[mask] / p[mask])).sum())


def total_variation(p, q) -> float:
    """Total variation distance between two PMFs, in [0, 1]."""
    p = _validate_pmf(p, "p")
    q = _validate_pmf(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"alphabet mismatch: {p.shape[0]} vs {q.shape[0]} outcomes")
    return float(0.5 * np.abs(p - q).sum())


def critical_rate(profile: ActivityProfile) -> float:
    """Smallest deferral rate at which the apparent profile can reach uniform.

    Equals the total variation distance between the uniform PMF and the
    actual profile; zero exactly when the profile is already uniform.
    Computed once per profile, at construction.
    """
    return profile._critical_rate

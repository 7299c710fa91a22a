"""Population experiments: ingestion, synthetic cohorts, and study tables.

:func:`ingest` is the library's one reader of timestamp logs (CSV or
JSONL): it parses and bins a log a block at a time (a CSV log a fixed
number of characters, a JSONL log a fixed number of rows) into one
activity profile per user, and ``profile build`` takes the same path.

Takes a collection of user profiles (parsed from timestamp logs or sampled
synthetically), solves every user's deferral problem over a common grid of
rates, and collects the population-level results: the distribution of
critical rates, percentile curves of relative privacy gain, per-user delay
and capacity at the critical rate, and the aggregate traffic profile before
and after deferral.  Everything is emitted as plain CSV tables; outputs are
deterministic functions of the inputs and the seed.

Per-user computations are independent (parallelizable if desired); tables
are written one at a time, each rewritten in place (``profiles._overwrite``).
"""

import csv
import io
import json
import math
import random
import warnings
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import integer, real
from .buffer import capacity as buffer_capacity
from .buffer import steady_state
from .profiles import (
    ActivityProfile,
    SlotScheme,
    _write_table,
    critical_rate,
    entropy_rows,
)
from .strategies import _check_rates, relative_privacy_gain, solve_optimal


def _parse_timestamp(raw) -> float:
    """Epoch seconds from an epoch number or an ISO-8601 string (UTC)."""
    text = str(raw).strip()
    try:
        return float(text)
    except ValueError:
        pass
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _csv_header(fh, path: Path):
    """``(header, user_id column, timestamp_utc column, lines read)`` of a
    CSV log open at its start.  ``csv.reader`` takes one line at a time, so
    ``fh`` is left at the first line after the header."""
    reader = csv.reader(fh)
    expected = f"{path}: expected CSV header with user_id,timestamp_utc, got"
    try:
        header = next(reader, None)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"{expected} an unreadable row: {exc}") from None
    column = {name: k for k, name in enumerate(header or ())}  # a repeated name: the last
    if header is None or not {"user_id", "timestamp_utc"} <= column.keys():
        raise ValueError(f"{expected} {header}")
    return header, column["user_id"], column["timestamp_utc"], reader.line_num


def _missing(header, row) -> str:
    """The row error of a CSV row without both fields, the row as
    ``csv.DictReader`` gives it."""
    fields = dict(zip(header, row))
    fields.update(dict.fromkeys(header[len(row):]))
    if len(row) > len(header):
        fields[None] = row[len(header):]
    return f"missing field in {fields!r}"


def _csv_rows(lines, header, iu: int, it: int, base: int, row_errors: list):
    """``(line, user_id, raw timestamp)`` of each row ``csv.reader`` reads
    from ``lines``, the lines after line ``base`` of a CSV log, that has
    both fields; other rows go to ``row_errors``."""
    reader = csv.reader(lines)
    width = max(iu, it) + 1
    last = base
    while True:
        # csv.reader resumes at the next line after refusing a row,
        # so the loop is re-entered rather than guarded per row
        try:
            for row in reader:
                if row:
                    if len(row) >= width and row[iu] and row[it]:
                        yield last + 1, row[iu], row[it]
                    else:
                        row_errors.append((last + 1, _missing(header, row)))
                last = base + reader.line_num
            return
        except csv.Error as exc:
            row_errors.append((last + 1, f"unreadable CSV row: {exc}"))
            last = base + reader.line_num


def _jsonl_rows(path: Path, row_errors: list):
    """``(line, user_id, raw timestamp)`` of each row of a JSONL log that
    has both; other rows go to ``row_errors``.  Lines are 1-based; the log
    is UTF-8, a leading byte-order mark skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                row_errors.append((lineno, f"bad JSON: {exc}"))
                continue
            if not isinstance(obj, dict):
                row_errors.append((lineno, f"not a JSON object: {obj!r}"))
                continue
            user, raw_ts = obj.get("user_id"), obj.get("timestamp_utc")
            if user in (None, "") or raw_ts in (None, ""):
                row_errors.append((lineno, f"missing field in {obj!r}"))
            else:
                yield lineno, str(user), raw_ts


#: Rows parsed and binned per block of a JSONL log or of ``csv.reader``.
_CHUNK_ROWS = 4096
#: Characters read per block of a CSV log: 2**17, about 6,000 rows of the
#: ``log-ingest`` benchmark.  Of the powers of two from 2**14 to 2**20, this
#: one ingested its logs fastest: 8.7-9.2 ms per log (median of the 12),
#: against 9.7-10.1 ms at 2**16, 10.2 at 2**18 and 13.7-14.7 at 2**14.
_BLOCK_CHARS = 1 << 17

#: The one ISO-8601 form ``ingest`` parses in bulk; its length is also the
#: number of leading characters of each field that the parser sees.
_ISO_FORM = "0000-00-00T00:00:00Z"
_WIDTH = len(_ISO_FORM)
_COLUMN = np.arange(_WIDTH)[:, None]
_ISO_DIGITS = np.array([k for k, ch in enumerate(_ISO_FORM) if ch == "0"])  # 14 rows
_ISO_SEPARATORS = np.array([k for k, ch in enumerate(_ISO_FORM) if ch != "0"])  # 6 rows
_SEPARATOR_CODES = np.array([[ord(_ISO_FORM[k])] for k in _ISO_SEPARATORS], np.uint32)


def _digit_weights(start: int, size: int) -> np.ndarray:
    weights = np.zeros(_WIDTH)
    weights[start : start + size] = [10**k for k in range(size - 1, -1, -1)]
    return weights


#: Rows: the first 15 characters read as one number, then the year, month,
#: day, hour, minute and second of the ISO form.
_FIELD_WEIGHTS = np.array(
    [_digit_weights(*part) for part in ((0, 15), (0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))]
)
_POW10 = np.array([float(10**k) for k in range(16)])  # exact
#: Days in the year before the first of month 0 (unused) to 13.
_MONTH_START = np.cumsum([0, 0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
#: Whether year 0 (unused) to 9999 is a leap year: every fourth, except
#: every hundredth, except every four hundredth; and the days from
#: 1970-01-01 to its January 1.
_LEAP = np.zeros(10_000, bool)
_LEAP[::4], _LEAP[::100], _LEAP[::400] = True, False, True
_YEAR_START = np.cumsum(365 + _LEAP) - (365 + _LEAP) - 366 - 719_162


def _bulk_timestamps(codes: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Epoch seconds of raw timestamps in a bulk form, NaN elsewhere.

    Column ``j`` of ``codes`` (``_WIDTH`` rows of ``uint32``) holds the code
    points of the first characters of field ``j``, which has ``length[j]``
    characters, padded with ``"0"`` after its end.  The bulk forms are ASCII
    digit strings of at most 15 digits (exact in a float) and
    ``YYYY-MM-DDTHH:MM:SSZ`` with a valid calendar date and time; both get
    the value ``_parse_timestamp`` gives.
    """
    offset = codes - np.uint32(ord("0"))  # wraps around below "0"
    digit = offset < 10
    # exact in floats where it is used: an integer below 2**53 from digits only
    number, y, mo, d, h, mi, s = _FIELD_WEIGHTS @ offset.astype(np.float64)

    is_epoch = (length >= 1) & (length <= 15) & digit.all(0)
    epoch = number / _POW10[np.clip(15 - length, 0, 15)]

    is_iso = (length == _WIDTH) & digit[_ISO_DIGITS].all(0)
    is_iso &= (codes[_ISO_SEPARATORS] == _SEPARATOR_CODES).all(0)
    y, m = np.minimum(y, 9999).astype(np.int64), np.clip(mo, 0, 12).astype(np.int64)
    leap = _LEAP[y]
    first = _MONTH_START[m] + (leap & (m > 2))  # days of the year before the month's first
    month_days = _MONTH_START[m + 1] - _MONTH_START[m] + (leap & (m == 2))
    is_iso &= (y >= 1) & (mo >= 1) & (mo <= 12) & (d >= 1) & (d <= month_days)
    is_iso &= (h < 24) & (mi < 60) & (s < 60)
    iso = (_YEAR_START[y] + first + d - 1) * 86_400 + h * 3600 + mi * 60 + s
    return np.where(is_epoch, epoch, np.where(is_iso, iso, np.nan))


def _group_ids(users):
    """``(distinct ids, each row's index into them)`` of a sequence of ids,
    grouped exactly."""
    group: dict[str, int] = defaultdict()
    group.default_factory = group.__len__  # a new id gets the next index
    rows = np.fromiter(map(group.__getitem__, users), np.int64, len(users))
    return list(group), rows


#: Ids of at most this many code points are grouped by a hash of them.
_ID_WIDTH = 64
#: The hash's weights of an id's code points by their position: odd 64-bit
#: integers (the hash wraps modulo 2**64), fixed so that grouping costs the
#: same in every run.
_ID_WEIGHTS = np.frombuffer(random.Random(0).randbytes(8 * _ID_WIDTH), np.uint64) | np.uint64(1)


def _columns(codes: np.ndarray, first: np.ndarray, length: np.ndarray, width: int, pad: int):
    """Code points ``0`` to ``width - 1`` of field ``j``, the ``length[j]``
    code points from ``codes[first[j]]``, as column ``j``, with ``pad`` in
    place of those after the field's end.  ``codes`` ends in at least
    ``width - 1`` code points after the last field."""
    rows = np.arange(width)[:, None]
    return np.where(rows < length, sliding_window_view(codes, width)[first].T, pad)


def _group_split(text: str, codes: np.ndarray, first: np.ndarray, length: np.ndarray):
    """``_group_ids`` of the ids ``text[first[j] : first[j] + length[j]]``,
    ``codes`` the code points of ``text`` (no NUL among them) and at least
    ``_ID_WIDTH - 1`` more, with one Python string per distinct id.

    A hash of each id's code points proposes the groups.  They stand only
    if every id equals its group's representative, code point by code
    point; else, and when an id is longer than ``_ID_WIDTH``, the ids are
    grouped exactly, as strings.
    """
    width = int(length.max(initial=0))
    if 1 <= width <= _ID_WIDTH:
        chars = _columns(codes, first, length, width, 0)  # ids padded with NUL
        hashes, group = np.unique(_ID_WEIGHTS[:width] @ chars, return_inverse=True)
        head = np.empty(hashes.size, np.intp)  # of each group, one of its rows
        head[group] = np.arange(group.size)
        if (chars[:, head[group]] == chars).all():
            spans = zip(first[head].tolist(), length[head].tolist())
            return [text[a : a + k] for a, k in spans], group
    return _group_ids([text[a : a + k] for a, k in zip(first.tolist(), length.tolist())])


def _string_blocks(rows):
    """``(lines, ids, user, raw, codes, lengths)`` of each block of
    ``_CHUNK_ROWS`` rows from ``_csv_rows`` or ``_jsonl_rows``: the rows'
    line numbers as an int64 array, ``ids`` and ``user`` as ``_group_ids``
    gives them, ``raw(j)`` the raw timestamp of row ``j``, and the
    timestamps as :func:`_bulk_timestamps` takes them."""
    while block := list(islice(rows, _CHUNK_ROWS)):
        lines, users, raw = zip(*block)
        text = [s if type(s) is str else str(s) if type(s) is int else "" for s in raw]
        length = np.fromiter(map(len, text), np.int64, len(text))
        codes = np.array(text, dtype=f"U{_WIDTH}").view(np.uint32).reshape(-1, _WIDTH).T
        codes = np.where(_COLUMN < length, codes, ord("0"))
        yield (np.array(lines, np.int64), *_group_ids(users), raw.__getitem__, codes, length)


def _split_block(text: str, count: int, header, iu: int, it: int, base: int, row_errors: list):
    """The block of ``_string_blocks`` for the CSV lines ``base + 1`` to
    ``base + count`` in ``text``, split whole; None unless every line is a
    row of ``len(header)`` fields that ``csv.reader`` splits at its commas.

    The caller has ruled out quotes and carriage returns.  Only the distinct
    user ids, the rows without both fields and the timestamps that ``raw``
    is asked for become Python strings.
    """
    if "\0" in text:  # refused by csv.reader before Python 3.11
        return None
    if not text.endswith("\n"):  # the last line of a log without a final newline
        text += "\n"
    width = len(header)
    # padding for the windows of _columns, _ID_WIDTH >= _WIDTH code points
    codes = np.frombuffer((text + "0" * _ID_WIDTH).encode("utf-32-le"), np.uint32)
    sep = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    if sep.size != count * width:
        return None
    ends = sep[width - 1 :: width]
    if not (codes[ends] == ord("\n")).all():  # then some line has too few or too many commas
        return None
    if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():
        return None

    def field(k):  # (first character, length) of column k of every line
        first = sep[k - 1 :: width] + 1 if k else np.concatenate(([0], ends[:-1] + 1))
        return first, sep[k::width] - first

    lines = np.arange(base + 1, base + count + 1, dtype=np.int64)
    (user_first, user_length), (first, length) = field(iu), field(it)
    missing = (user_length == 0) | (length == 0)
    if missing.any():
        starts = field(0)[0]
        for j in np.flatnonzero(missing).tolist():
            row_errors.append((lines[j], _missing(header, text[starts[j] : ends[j]].split(","))))
        kept = ~missing
        lines = lines[kept]
        columns = (user_first, user_length, first, length)
        user_first, user_length, first, length = (a[kept] for a in columns)
    ids, user = _group_split(text, codes, user_first, user_length)

    def raw(j):
        return text[first[j] : first[j] + length[j]]

    return lines, ids, user, raw, _columns(codes, first, length, _WIDTH, ord("0")), length


def _csv_blocks(path: Path, row_errors: list):
    """The blocks of ``_string_blocks`` for a CSV log, read
    ``_BLOCK_CHARS`` characters at a time.

    Each block is cut after its last newline, the partial line carried into
    the next block; a line longer than a block is collected in pieces and
    joined once.  A block without quotes, carriage returns or NULs, each
    line with the header's number of commas and no longer than the ``csv``
    field size limit, is split whole, as one string.  Other lines go
    through ``csv.reader``: the block's own, which hold whole rows while
    there is no quote, and from the first quote or carriage return on the
    rest of the log, streamed line by line, as a quoted field may span
    lines.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, iu, it, base = _csv_header(fh, path)
        pieces = []  # the read part of the line that the last block cut
        while True:
            chunk = fh.read(_BLOCK_CHARS)
            end = chunk.rfind("\n") + 1
            if chunk and not end:
                pieces.append(chunk)
                continue
            # at the end of the log, chunk is empty and text every piece left
            text, tail = "".join([*pieces, chunk[:end]]), chunk[end:]
            if not text:
                return
            if '"' in text or "\r" in text:
                # readline ends the line that tail cuts, with both characters
                # of a CRLF pair, so the lines split as the file's own do
                lines = chain(io.StringIO(text + tail + fh.readline(), newline=""), fh)
                yield from _string_blocks(_csv_rows(lines, header, iu, it, base, row_errors))
                return
            # the last line of a log without a final newline counts too
            count = text.count("\n") + (not text.endswith("\n"))
            block = _split_block(text, count, header, iu, it, base, row_errors)
            if block is None:
                lines = io.StringIO(text, newline="")
                yield from _string_blocks(_csv_rows(lines, header, iu, it, base, row_errors))
            else:
                yield block
            base += count
            pieces = [tail]


def ingest(
    path,
    format: str = "csv",
    scheme: SlotScheme = None,
    min_count: int = 1,
    tz_offset: float = 0.0,
) -> dict[str, ActivityProfile]:
    """One activity profile per user found in a timestamp log.

    Malformed rows are reported as warnings ``path:line: message`` and
    skipped: a row whose ``user_id`` or ``timestamp_utc`` is missing, null
    or empty, a CSV row the ``csv`` module refuses (such as a field over
    its size limit), a JSONL line that is not a JSON object, or a bad
    timestamp.  Line numbers are physical: a CSV row is named by its first
    line.  Logs are UTF-8, a leading byte-order mark skipped.  ``tz_offset``
    (seconds) is added to every timestamp, shifting UTC instants
    into the users' local time of day.  Users with fewer than ``min_count``
    messages are excluded with a warning.  Raises if no valid user remains.

    Reads and bins the log a block at a time (CSV: ``_BLOCK_CHARS``
    characters, cut at a line end; JSONL: ``_CHUNK_ROWS`` rows), keeping
    only per-user slot counts and row errors; a user's ``q`` is their
    per-slot message count over their message count, which is the
    profile's ``count``.
    """
    if scheme is None:
        scheme = SlotScheme.day()
    tz_offset = real("tz_offset", tz_offset)
    min_count = integer("min_count", min_count, 0)
    n = scheme.n
    index: dict[str, int] = defaultdict()
    index.default_factory = index.__len__  # a new user gets the next row
    counts = np.zeros(0, np.int64)  # user-major, n slots per user
    row_errors: list[tuple[int, str]] = []
    if format == "csv":
        blocks = _csv_blocks(Path(path), row_errors)
    elif format == "jsonl":
        blocks = _string_blocks(_jsonl_rows(Path(path), row_errors))
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'jsonl'")
    for lines, ids, user, raw, codes, length in blocks:
        ts = _bulk_timestamps(codes, length) + tz_offset
        for j in np.flatnonzero(~(ts >= 0)).tolist():  # not a bulk form, or negative
            stamp = raw(j)
            try:
                ts[j] = real("timestamp", _parse_timestamp(stamp) + tz_offset, 0.0)
            except (ValueError, TypeError) as exc:
                row_errors.append((lines[j], f"bad timestamp {stamp!r}: {exc}"))
                ts[j] = np.nan
        good = ts >= 0
        user = user[good]
        seen = np.flatnonzero(np.bincount(user, minlength=len(ids)))  # ids with a kept row
        row_of = np.zeros(len(ids), np.int64)  # each id's row of counts
        row_of[seen] = [index[ids[g]] for g in seen.tolist()]
        binned = np.bincount(row_of[user] * n + scheme.slot_of(ts[good]) - 1)
        if len(index) * n > counts.size:  # new users: zero-filled rows, no view of counts exists
            counts.resize(len(index) * n, refcheck=False)
        counts[: binned.size] += binned

    for lineno, message in sorted(row_errors):  # bad timestamps come after a block's read errors
        warnings.warn(f"{path}:{lineno}: {message}", stacklevel=2)
    counts = counts.reshape(len(index), n)
    profiles: dict[str, ActivityProfile] = {}
    for user_id in sorted(index):
        row = counts[index[user_id]]
        total = int(row.sum())
        if total < min_count:
            warnings.warn(
                f"excluding user {user_id!r}: {total} messages < min_count {min_count}",
                stacklevel=2,
            )
            continue
        profiles[user_id] = ActivityProfile(scheme=scheme, q=row / total, count=float(total))
    if not profiles:
        raise ValueError(f"{path}: no valid users after parsing and filtering")
    return profiles


def synth_population(
    n_users: int,
    scheme: SlotScheme = None,
    concentration: float = 1.0,
    mean_messages: float = 1879.42,
    seed: int = 0,
) -> dict[str, ActivityProfile]:
    """Synthetic cohort of Dirichlet-sampled profiles.

    Each user's profile is a symmetric Dirichlet draw (small concentrations
    give peaky profiles and large critical rates, large concentrations
    approach uniform) and carries a Poisson-distributed message count.
    Deterministic given the seed.
    """
    if scheme is None:
        scheme = SlotScheme.day()
    n_users = integer("n_users", n_users, 1)
    concentration = real("concentration", concentration, 0.0, open_lo=True, whole=True)
    # numpy's Poisson sampler refuses means above about 9.2e18
    mean_messages = real("mean_messages", mean_messages, 0.0, 1e18, open_lo=True, whole=True)
    seed = integer("seed", seed, 0)
    if not math.isfinite(scheme.n * concentration):  # the Dirichlet draw's gamma sum overflows
        raise ValueError(f"concentration * {scheme.n} slots overflows, got {concentration!r}")
    rng = np.random.default_rng(seed)
    width = max(3, len(str(n_users - 1)))
    profiles = {}
    for i in range(n_users):
        q = rng.dirichlet(np.full(scheme.n, concentration))
        count = float(max(1, rng.poisson(mean_messages)))
        profiles[f"user{i:0{width}d}"] = ActivityProfile(scheme, q, count=count)
    return profiles


def nearest_rank_percentile(values, pct: float):
    """Nearest-rank percentile: smallest value covering ``pct`` percent; for
    2-d ``values`` of numbers, the array of each column's, from one sort."""
    pct = real("percentile pct", pct, 0.0, 100.0)
    array = np.asarray(values)
    if array.ndim == 0 or array.dtype.kind not in "iuf":
        raise ValueError(f"values must be a sequence of numbers, got {values!r}")
    ordered = np.sort(array.astype(float, copy=False), axis=0)
    if ordered.size == 0:
        raise ValueError("values must not be empty")
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1].copy() if ordered.ndim > 1 else float(ordered[rank - 1])


@dataclass(eq=False)
class PopulationStudy:
    """Per-user and aggregate results of a population experiment."""

    user_ids: list[str]
    scheme: SlotScheme
    phi_grid: np.ndarray
    phi_crit: np.ndarray
    gain_curves: np.ndarray  # users x grid, percent
    gain_percentiles: dict[int, np.ndarray]
    delay_conditional_slots: np.ndarray
    delay_conditional_hours: np.ndarray
    capacity_messages: np.ndarray
    capacity_relative_pct: np.ndarray
    aggregate_before: np.ndarray
    aggregate_after: np.ndarray  # grid x slots

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def write_csvs(self, out_dir) -> list[Path]:
        """Emit the study tables; returns the written paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []

        path = out_dir / "phicrit_hist.csv"
        _write_hist(path, self.phi_crit, bins=20, lo=0.0, hi=1.0, label="phi_crit")
        written.append(path)

        path = out_dir / "gain_percentiles.csv"
        header = ["phi", "gain_p10_pct", "gain_p50_pct", "gain_p90_pct"]
        columns = [self.phi_grid] + [self.gain_percentiles[pct] for pct in (10, 50, 90)]
        _write_table(path, header, zip(*(col.tolist() for col in columns)))
        written.append(path)

        path = out_dir / "delay_pmf.csv"
        _write_hist(path, self.delay_conditional_hours, bins=16, label="delay_hours")
        written.append(path)

        path = out_dir / "capacity_pmf.csv"
        _write_hist(path, self.capacity_relative_pct, bins=16, label="capacity_pct")
        written.append(path)

        path = out_dir / "aggregate_profiles.csv"
        header = ["slot", "p"] + [f"p_prime_phi_{phi!r}" for phi in self.phi_grid.tolist()]
        columns = [range(1, self.scheme.n + 1), self.aggregate_before.tolist()]
        _write_table(path, header, zip(*columns, *self.aggregate_after.tolist()))
        written.append(path)

        return written


def _write_hist(path, values, bins: int, lo=None, hi=None, label="value"):
    values = np.asarray(values, dtype=float)
    if lo is None:
        lo = float(values.min())
    if hi is None:
        hi = float(values.max())
    edges = np.linspace(lo, hi, bins + 1)  # the edges np.histogram builds for range=(lo, hi)
    if np.any(edges[:-1] >= edges[1:]):  # too narrow a range (or none) to split
        hi = lo + 1.0
    split = np.all(edges[:-1] < edges[1:])  # else np.histogram builds (and checks) the edges
    counts, edges = np.histogram(values, bins=edges if split else bins, range=(lo, hi))
    pmf = (counts / max(counts.sum(), 1)).tolist()  # all 0.0 if no value is in range
    edges = edges.tolist()
    header = [f"{label}_bin_left", f"{label}_bin_right", "count", "pmf"]
    _write_table(path, header, zip(edges[:-1], edges[1:], counts.tolist(), pmf))


def study(users: dict[str, ActivityProfile], phi_grid) -> PopulationStudy:
    """Run the per-user analyses and aggregate them.

    For each grid rate every user applies ``min(phi, own critical rate)``;
    the rates that clamp reuse the user's one critical-rate strategy, on
    which delay and capacity are evaluated with ``alpha`` the user's
    observed messages per period.  The mean delay of delayed messages
    comes from Little's law: a message that waits ``d`` slots is counted
    in ``d`` end-of-slot occupancies, so the mean delay over all messages
    is ``sum(b)`` slots and over delayed ones ``sum(b) / phi``, under any
    extraction discipline; no delay PMF is built.  An already-uniform user
    (critical rate 0) delays nothing and gets delay 0.
    """
    if not users:
        raise ValueError("population study needs at least one user")
    phi_grid = np.array(_check_rates("phi_grid", phi_grid))  # every rate before any user
    if phi_grid.size == 0:
        raise ValueError("empty phi grid")

    user_ids = list(users)
    scheme = users[user_ids[0]].scheme
    if any(users[u].scheme != scheme for u in user_ids):
        raise ValueError("all users in a study must share one slot scheme")
    counts = np.array([max(users[u].count, 1.0) for u in user_ids])

    phi_crit = np.zeros(len(user_ids))
    gain_curves = np.zeros((len(user_ids), phi_grid.size))
    delay_cond = np.zeros(len(user_ids))
    cap_msgs = np.zeros(len(user_ids))
    t_at = np.zeros((phi_grid.size, len(user_ids), scheme.n))

    for ui, user in enumerate(user_ids):
        prof = users[user]
        phi_crit[ui] = crit = critical_rate(prof)
        strat_crit = solve_optimal(prof, crit)
        for k, phi in enumerate(phi_grid.tolist()):
            t_at[k, ui] = (solve_optimal(prof, phi) if phi < crit else strat_crit).apparent()
        gain_curves[ui] = relative_privacy_gain(prof, entropy_rows(t_at[:, ui]))
        pattern = steady_state(strat_crit, counts[ui])
        cap_msgs[ui] = buffer_capacity(pattern)
        delay_cond[ui] = pattern.b.sum() / phi_crit[ui] if phi_crit[ui] > 0 else 0.0

    weights = counts / counts.sum()
    aggregate_before = np.einsum(
        "u,un->n", weights, np.array([users[u].q for u in user_ids])
    )
    aggregate_after = np.einsum("u,kun->kn", weights, t_at)

    percentiles = {pct: nearest_rank_percentile(gain_curves, pct) for pct in (10, 50, 90)}

    return PopulationStudy(
        user_ids=user_ids,
        scheme=scheme,
        phi_grid=phi_grid,
        phi_crit=phi_crit,
        gain_curves=gain_curves,
        gain_percentiles=percentiles,
        delay_conditional_slots=delay_cond,
        delay_conditional_hours=delay_cond * scheme.slot_duration / 3600.0,
        capacity_messages=cap_msgs,
        capacity_relative_pct=100.0 * cap_msgs / counts,
        aggregate_before=aggregate_before,
        aggregate_after=aggregate_after,
    )

import calendar
import codecs
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferral import population, strategies
from deferral.population import (
    _csv_header,
    _csv_rows,
    _jsonl_rows,
    _parse_timestamp,
    ingest,
    nearest_rank_percentile,
    study,
    synth_population,
)
from deferral.buffer import analyze_buffer, delay_distribution, steady_state
from deferral.profiles import (
    ActivityProfile,
    SlotScheme,
    TimestampRecord,
    critical_rate,
    entropy_rows,
    uniform_pmf,
)
from deferral.simulate import SimConfig, empirical_vs_analytic
from deferral.strategies import privacy_deferral_curve, solve_optimal

HOUR = 3600.0


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,timestamp_utc\n")
        for user, ts in rows:
            fh.write(f"{user},{ts}\n")
    return path


class TestReadRecords:
    def test_epoch_and_iso_timestamps(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv",
            [("u", "3600"), ("u", "1970-01-01T02:30:00+00:00"), ("u", "1970-01-01T03:15:00Z")],
        )
        records, errors = read_records(path)
        assert errors == []
        assert [r.timestamp for r in records] == [3600.0, 9000.0, 11700.0]
        got = observed(ingest, path)
        assert_same(got, observed(ref_ingest, path))
        assert got[0]["u"].q[[0, 2, 3]].tolist() == [1 / 3] * 3 and got[1] == []

    def test_malformed_rows_reported(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv", [("u", "3600"), ("u", "not-a-time"), ("", "60")]
        )
        records, errors = read_records(path)
        assert len(records) == 1
        assert len(errors) == 2
        assert all(isinstance(line, int) for line, _ in errors)
        got = observed(ingest, path)
        assert_same(got, observed(ref_ingest, path))
        assert got[0]["u"].count == 1 and len(got[1]) == 2

    def test_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"user_id": "u", "timestamp_utc": 120}) + "\n")
            fh.write("{broken\n")
            fh.write(json.dumps({"user_id": "u"}) + "\n")
            for bad in ("5", "true", "null", "[1, 2]"):  # not an object
                fh.write(bad + "\n")
            for user, ts in ((None, 60), ("", 60), ("u", None), ("u", ""), ("u", True), ("u", False)):
                fh.write(json.dumps({"user_id": user, "timestamp_utc": ts}) + "\n")
        records, errors = read_records(path, format="jsonl")
        assert records == [TimestampRecord("u", 120.0)]
        assert [lineno for lineno, _ in errors] == list(range(2, 14))
        got = observed(ingest, path, format="jsonl")
        assert_same(got, observed(ref_ingest, path, format="jsonl"))
        assert [w[1].split(": ")[0] for w in got[1]] == [f"{path}:{k}" for k in range(2, 14)]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("who,when\nu,60\n")
        for call in (read_records, ingest):
            with pytest.raises(ValueError, match="user_id,timestamp_utc"):
                call(path)

    def test_oversized_header_field_is_a_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user_id," + "9" * 200_000 + ",timestamp_utc\nu,60\n")
        message = (
            f"{path}: expected CSV header with user_id,timestamp_utc, got an unreadable row: "
            "field larger than field limit (131072)"
        )
        for call in (read_records, ingest):
            with pytest.raises(ValueError) as caught:
                call(path)
            assert str(caught.value) == message

    def test_tz_offset_shifts_binning(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u", "0")])
        records, _ = read_records(path, tz_offset=HOUR)
        assert records[0].timestamp == HOUR
        got = observed(ingest, path, tz_offset=HOUR)
        assert_same(got, observed(ref_ingest, path, tz_offset=HOUR))
        assert got[0]["u"].q[0] == 1.0  # not slot 24, where the unshifted 0 falls


class TestEncoding:
    ROWS = [("ü", "3600"), ("用户", "2023-06-01T12:00:00Z"), ("a", "bogus"), ("ü", "7200")]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, fmt):
        plain = tmp_path / f"plain.{fmt}"
        if fmt == "csv":
            write_csv(plain, self.ROWS)
        else:
            plain.write_text("".join(
                json.dumps({"user_id": u, "timestamp_utc": ts}) + "\n" for u, ts in self.ROWS
            ), encoding="utf-8")
        marked = tmp_path / f"marked.{fmt}"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        records, errors = read_records(marked, format=fmt)
        assert (records, errors) == read_records(plain, format=fmt)
        assert [r.user_id for r in records] == ["ü", "用户", "ü"]
        assert [line for line, _ in errors] == [4 if fmt == "csv" else 3]
        got, want = (observed(ingest, path, format=fmt) for path in (marked, plain))
        assert_same((got[0], []), (want[0], []))
        assert [w[1].split(":", 1)[1] for w in got[1]] == [w[1].split(":", 1)[1] for w in want[1]]

    def test_logs_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        # EncodingWarning marks every open() that would use the locale's encoding
        path = write_csv(tmp_path / "log.csv", self.ROWS)
        jsonl = tmp_path / "log.jsonl"
        jsonl.write_text(json.dumps({"user_id": "ü", "timestamp_utc": 60}) + "\n", encoding="utf-8")
        one_user = write_csv(tmp_path / "one.csv", [row for row in self.ROWS if row[0] == "ü"])
        code = (
            "import sys, warnings\n"
            "from deferral.population import ingest\n"
            "warnings.simplefilter('ignore', UserWarning)\n"
            "for fmt, path in (('csv', sys.argv[1]), ('jsonl', sys.argv[2])):\n"
            "    ingest(path, format=fmt)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [population.__file__.rsplit(os.sep, 2)[0], os.environ.get("PYTHONPATH")])
        ))
        strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        proc = subprocess.run(
            [*strict, "-c", code, str(path), str(jsonl)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        for fmt, log in (("csv", one_user), ("jsonl", jsonl)):
            proc = subprocess.run(
                [*strict, "-m", "deferral", "profile", "build", "--input", str(log),
                 "--format", fmt, "--out", f"{log}.json"],
                capture_output=True, text=True, env=env,
            )
            # an EncodingWarning raised inside ingest would be printed as a warning line
            assert (proc.returncode, proc.stderr) == (0, "")


class TestIngest:
    def test_single_uniform_user(self, tmp_path):
        rows = [("u", str(h * HOUR + 1)) for h in range(24)]
        path = write_csv(tmp_path / "log.csv", rows)
        profiles = ingest(path, scheme=SlotScheme.day())
        assert list(profiles) == ["u"]
        assert np.allclose(profiles["u"].q, uniform_pmf(24))

    def test_matches_hand_binned_profile(self, tmp_path):
        minutes = [30, 45, 13 * 60 + 10, 13 * 60 + 20, 13 * 60 + 40, 22 * 60 + 5]
        path = write_csv(tmp_path / "log.csv", [("u", str(m * 60)) for m in minutes])
        prof = ingest(path, scheme=SlotScheme.day())["u"]
        expected = np.zeros(24)
        expected[0], expected[13], expected[22] = 2 / 6, 3 / 6, 1 / 6
        assert np.allclose(prof.q, expected)

    def test_unknown_format_refused(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u", "60")])
        with pytest.raises(ValueError, match=r"^unknown format 'xml'; expected 'csv' or 'jsonl'$"):
            ingest(path, format="xml")

    def test_empty_file_fatal(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("user_id,timestamp_utc\n")
        with pytest.raises(ValueError, match="no valid users"):
            ingest(path)

    def test_malformed_rows_warn_and_continue(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u", "60"), ("u", "bogus")])
        with pytest.warns(UserWarning, match="bad timestamp"):
            profiles = ingest(path)
        assert profiles["u"].count == 1

    def test_min_count_excludes_users(self, tmp_path):
        rows = [("a", "60"), ("a", "120"), ("a", "180"), ("b", "60")]
        path = write_csv(tmp_path / "log.csv", rows)
        with pytest.warns(UserWarning, match="excluding user 'b'"):
            profiles = ingest(path, min_count=2)
        assert list(profiles) == ["a"]

    def test_multiple_users(self, tmp_path):
        rows = [("b", "60"), ("a", "120"), ("a", str(HOUR * 5))]
        path = write_csv(tmp_path / "log.csv", rows)
        profiles = ingest(path)
        assert list(profiles) == ["a", "b"]  # sorted
        assert profiles["a"].count == 2

    def test_rows_are_named_by_their_first_physical_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text('user_id,timestamp_utc\nu,60\n\n\nu,bogus\n"v\nw",oops\nu,-1\n"a,\nb",\n')
        records, errors = read_records(path)
        assert records == [TimestampRecord("u", 60.0)]
        assert [line for line, _ in errors] == [5, 6, 8, 9]
        with pytest.warns(UserWarning) as caught:
            ingest(path)
        where = [str(w.message).split(": ")[0] for w in caught]
        assert where == [f"{path}:{k}" for k in (5, 6, 8, 9)]
        assert_same(observed(ingest, path), observed(ref_ingest, path))

        path = tmp_path / "log.jsonl"
        rows = ['{"user_id": "u", "timestamp_utc": 60}', '{"user_id": "u", "timestamp_utc": "x"}']
        path.write_text(f"\n{rows[0]}\n\n  \n{rows[1]}\n")
        assert [line for line, _ in read_records(path, format="jsonl")[1]] == [5]
        with pytest.warns(UserWarning, match=r"log\.jsonl:5: bad timestamp 'x'"):
            ingest(path, format="jsonl")
        want = observed(ref_ingest, path, format="jsonl")
        assert_same(observed(ingest, path, format="jsonl"), want)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tz_offset_refused_once(self, tmp_path, bad):
        path = write_csv(tmp_path / "log.csv", [("u", "60")] * 3)
        for call in (read_records, ingest):
            with pytest.raises(ValueError, match=rf"^tz_offset must be finite, got {bad!r}$"):
                call(path, tz_offset=bad)

    def test_oversized_csv_field_is_one_row_error(self, tmp_path):
        # 200,000 characters: over the csv module's 131,072-character field limit
        rows = [(f"u{k % 3}", str(HOUR * k + 60)) for k in range(60)]
        clean = write_csv(tmp_path / "clean.csv", rows)
        path = tmp_path / "log.csv"
        lines = clean.read_text().splitlines(keepends=True)
        lines.insert(20, "bad," + "9" * 200_000 + "\n")  # physical line 21
        path.write_text("".join(lines))
        message = "unreadable CSV row: field larger than field limit (131072)"

        records, errors = read_records(path)
        assert errors == [(21, message)]
        assert records == read_records(clean)[0]

        with pytest.warns(UserWarning) as caught:
            profiles = ingest(path)
        assert [str(w.message) for w in caught] == [f"{path}:21: {message}"]
        want = ingest(clean)
        assert list(profiles) == list(want)
        for user, prof in want.items():
            assert np.array_equal(profiles[user].q, prof.q)
            assert profiles[user].count == prof.count

    @pytest.mark.parametrize("fmt, size", [("csv", 100_000), ("jsonl", 1_000_000)])
    def test_one_huge_field_costs_its_own_size(self, tmp_path, fmt, size):
        # a CSV field must stay under the csv module's 131,072-character limit
        path = tmp_path / f"log.{fmt}"
        stamps = [str(60 * k) for k in range(20_000)]
        stamps[12_345] = "9" * size + "x"
        if fmt == "csv":
            write_csv(path, ((f"u{k % 7}", ts) for k, ts in enumerate(stamps)))
        else:
            path.write_text("".join(
                json.dumps({"user_id": f"u{k % 7}", "timestamp_utc": ts}) + "\n"
                for k, ts in enumerate(stamps)
            ))
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                profiles = ingest(path, format=fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        line = 12_345 + (2 if fmt == "csv" else 1)
        assert len(caught) == 1
        assert str(caught[0].message).startswith(f"{path}:{line}: bad timestamp '9999")
        assert sum(p.count for p in profiles.values()) == 19_999
        # measured 3.9 (csv) and 6.5 MB; one block of all rows: 13.5 and 14.2 MB
        assert peak < 10e6


def ref_slot_of(scheme, timestamp):
    """Scalar reference for ``SlotScheme.slot_of``: slot ``i`` covers
    ``(i-1, i]`` in slot units, a period boundary maps to slot ``n``."""
    rem = float(timestamp) % scheme.period_seconds
    if rem == 0.0:
        return scheme.n
    slot = math.ceil(rem / scheme.slot_duration)
    return min(max(slot, 1), scheme.n)


def log_rows(path, format, row_errors):
    """``(line, user_id, raw timestamp)`` of each log row that has both,
    CSV rows read one at a time by ``csv.reader``; other rows go to
    ``row_errors``."""
    if format == "csv":
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield from _csv_rows(fh, *_csv_header(fh, path), row_errors)
    elif format == "jsonl":
        yield from _jsonl_rows(path, row_errors)
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'jsonl'")


def read_records(path, format="csv", tz_offset=0.0):
    """Scalar reference for the parsing half of ``ingest``: ``(records,
    row_errors)``, one ``TimestampRecord`` per valid row and one ``(line,
    message)`` pair per malformed one, in the order of the log."""
    if not math.isfinite(tz_offset):
        raise ValueError(f"tz_offset must be finite, got {tz_offset!r}")
    records, row_errors = [], []
    for lineno, user_id, raw_ts in log_rows(path, format, row_errors):
        try:
            ts = _parse_timestamp(raw_ts) + tz_offset
            records.append(TimestampRecord(user_id=user_id, timestamp=ts))
        except (ValueError, TypeError) as exc:
            row_errors.append((lineno, f"bad timestamp {raw_ts!r}: {exc}"))
    return records, row_errors


def ref_ingest(path, format="csv", scheme=None, min_count=1, tz_offset=0.0):
    """Scalar reference for ``ingest``: read_records, group, bin one record
    at a time with ``ref_slot_of``."""
    if scheme is None:
        scheme = SlotScheme.day()
    records, row_errors = read_records(path, format=format, tz_offset=tz_offset)
    for lineno, message in row_errors:
        warnings.warn(f"{path}:{lineno}: {message}", stacklevel=2)
    by_user = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    profiles = {}
    for user_id in sorted(by_user):
        recs = by_user[user_id]
        if len(recs) < min_count:
            warnings.warn(
                f"excluding user {user_id!r}: {len(recs)} messages < min_count {min_count}",
                stacklevel=2,
            )
            continue
        counts = np.zeros(scheme.n)
        for rec in recs:
            counts[ref_slot_of(scheme, rec.timestamp) - 1] += 1
        total = counts.sum()
        profiles[user_id] = ActivityProfile(scheme=scheme, q=counts / total, count=float(total))
    if not profiles:
        raise ValueError(f"{path}: no valid users after parsing and filtering")
    return profiles


def dictreader_records(path, tz_offset):
    """Records and row-error messages of a CSV log read with csv.DictReader."""
    records, messages = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            user_id, raw_ts = row.get("user_id"), row.get("timestamp_utc")
            if user_id in (None, "") or raw_ts in (None, ""):
                messages.append(f"missing field in {row!r}")
                continue
            try:
                records.append(TimestampRecord(user_id, _parse_timestamp(raw_ts) + tz_offset))
            except (ValueError, TypeError) as exc:
                messages.append(f"bad timestamp {raw_ts!r}: {exc}")
    return records, messages


def observed(call, *args, **kwargs):
    """Result (or raised error) and the warnings of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - compared with the reference
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def assert_same(got, want):
    """``observed`` outcomes agree: warnings, then error or profiles bit for bit."""
    (result, caught), (ref, ref_caught) = got, want
    assert caught == ref_caught
    if isinstance(ref, tuple):
        assert result == ref
        return
    assert list(result) == list(ref)
    for user in ref:
        assert result[user].q.tobytes() == ref[user].q.tobytes()
        assert result[user].count == ref[user].count


EPOCH = datetime(1970, 1, 1)
SCHEMES = [SlotScheme.day(24), SlotScheme.week(7), SlotScheme(3, 86_400.0), SlotScheme.day(1440)]
USERS = st.sampled_from(["a", "b", "c", "ü", "用户", "a,b", 'q"x', "two\nlines", " a", ""])


EDGE_STAMPS = [
    "2023-02-30T10:00:00Z", "2016-12-31T23:59:60Z", "2024-02-29T00:00:00Z",
    "2023-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2000-02-29T12:00:00Z",
    "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "2023-01-01T24:00:00Z",
    "2023-01-01T23:60:00Z", "2023-13-01T00:00:00Z", "2023-00-10T00:00:00Z",
    "2023-04-31T00:00:00Z", "2023-04-00T00:00:00Z", "2023-1-01T00:00:00Z",
    "2023-01-01t00:00:00Z", "2023-01-01 00:00:00Z", "2023-01-01T00:00:00+00:00",
    "2023-01-01T00:00:00.5Z", "2023-01-01T00:00:00Zjunk", "2023-01-01T00:00:00Z ",
    "2023-01-01", "٣٦٠٠", "３６００", " 3600", "3600 ",
    " 2023-01-01T00:00:00Z ", "-3600", "+3600", "3600.0", "3.6e3", "nan", "inf",
    "1_000", "0", "999999999999999", "9999999999999999", "00000000000000000001",
    "60\x00", "6\x000", "",
]


def iso(d, tail="Z"):
    date = f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
    return f"{date}T{d.hour:02d}:{d.minute:02d}:{d.second:02d}{tail}"


def stamps(scheme):
    dates = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59))
    slots = st.integers(0, 3 * 400 * scheme.n)
    return st.one_of(
        st.integers(0, 10**17).map(str),
        slots.map(lambda k: str(int(k * scheme.slot_duration))),
        slots.map(lambda k: repr(k * scheme.slot_duration)),
        st.integers(0, 10**4).map(lambda k: str(int(k * scheme.period_seconds))),
        st.floats(0, 4e9).map(repr),
        st.floats(0, 4e9).map(lambda x: f"{x:e}"),
        dates.map(iso),
        dates.map(lambda d: iso(d.replace(minute=0, second=0))),
        dates.map(lambda d: iso(d, "+05:30")),
        dates.map(lambda d: iso(d, ".25Z")),
        dates.map(lambda d: iso(d)[:10]),
        st.sampled_from(EDGE_STAMPS),
        st.text(max_size=25),
    )


@st.composite
def csv_logs(draw, scheme):
    header = draw(st.permutations(
        ["user_id", "timestamp_utc"]
        + draw(st.lists(st.sampled_from(["x", "user_id", "timestamp_utc"]), max_size=2))
    ))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("\n")
            continue
        fields = {"user_id": USERS, "timestamp_utc": stamps(scheme), "x": st.just("x")}
        row = [draw(fields[name]) for name in header]
        shape = draw(st.sampled_from([0, 0, 0, 0, -1, -2, 1]))
        row = row[: len(row) + shape] if shape < 0 else row + ["extra"] * shape
        lines.append(row)
    return header, lines


@st.composite
def jsonl_lines(draw, scheme):
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 12))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "{broken", "[1, 2]", "5", "null"])))
            continue
        obj = {}
        if kind != 1:
            obj["user_id"] = draw(st.one_of(USERS, st.none(), st.integers(-5, 5), st.booleans()))
        if kind != 2:
            obj["timestamp_utc"] = draw(st.one_of(
                stamps(scheme), stamps(scheme), st.integers(-10, 10**17), st.floats(-10, 4e9),
                st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
            ))
        lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
    return lines


#: Characters csv.reader gives a meaning to in an unquoted log, or refuses.
CSV_SPECIAL = ',"\r\n\0'
PLAIN_USERS = st.sampled_from(["a", "b", "c", "ü", "用户", " a", "a b", ""])


def plain(text):
    return text.translate(dict.fromkeys(map(ord, CSV_SPECIAL)))


@st.composite
def block_logs(draw, scheme):
    """A CSV log of unquoted rows with up to three faults anywhere after the
    header: a blank line, a short row, or one inserted comma, NUL, quote,
    carriage return or newline; the last line may lack its newline."""
    names = draw(st.lists(st.sampled_from(["x", "user_id", "timestamp_utc"]), max_size=2))
    header = draw(st.permutations(["user_id", "timestamp_utc"] + names))
    fields = {"user_id": PLAIN_USERS, "timestamp_utc": stamps(scheme).map(plain), "x": st.just("x")}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 40))):
        lines.append(",".join(draw(fields[name]) for name in header))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(lines)))
        fault = draw(st.sampled_from(["blank", "short", ",", "\0", '"', "\r", "\n"]))
        if fault == "blank":
            lines.insert(k, "")
        elif k < len(lines) and fault == "short":
            lines[k] = lines[k].rpartition(",")[0]
        elif k < len(lines):
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + fault + lines[k][at:]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@contextmanager
def field_size_limit(limit):
    """csv.field_size_limit lowered to ``limit`` (None: unchanged) for a while."""
    saved = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(saved)


class TestIngestMatchesScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        fmt=st.sampled_from(["csv", "jsonl"]),
        scheme=st.sampled_from(SCHEMES),
        min_count=st.integers(0, 4),
        tz_offset=st.one_of(st.just(0.0), st.floats(-2e5, 2e5), st.sampled_from([3600.0, -0.5])),
    )
    def test_profiles_and_warnings_match(
        self, tmp_path_factory, data, fmt, scheme, min_count, tz_offset
    ):
        path = tmp_path_factory.mktemp("log") / f"log.{fmt}"
        if fmt == "csv":
            header, lines = data.draw(csv_logs(scheme))
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for line in lines:
                    fh.write(line) if line == "\n" else writer.writerow(line)
            records, errors = read_records(path, tz_offset=tz_offset)
            assert (records, [m for _, m in errors]) == dictreader_records(path, tz_offset)
        else:
            lines = data.draw(jsonl_lines(scheme))
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        kwargs = dict(format=fmt, scheme=scheme, min_count=min_count, tz_offset=tz_offset)
        want = observed(ref_ingest, path, **kwargs)
        for chunk in (1, 2, 7, population._CHUNK_ROWS):
            with mock.patch.object(population, "_CHUNK_ROWS", chunk):
                assert_same(observed(ingest, path, **kwargs), want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        scheme=st.sampled_from(SCHEMES),
        min_count=st.integers(0, 3),
        tz_offset=st.sampled_from([0.0, 3600.0, -0.5]),
        # header fields have up to 13 characters, ISO timestamps 20
        limit=st.sampled_from([None, None, 13, 16, 22]),
    )
    def test_block_path_matches(self, tmp_path_factory, data, scheme, min_count, tz_offset, limit):
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_bytes(data.draw(block_logs(scheme)).encode("utf-8"))
        kwargs = dict(scheme=scheme, min_count=min_count, tz_offset=tz_offset)
        with field_size_limit(limit):
            want = observed(ref_ingest, path, **kwargs)
            for chunk in (1, 2, 7, population._CHUNK_ROWS):
                with mock.patch.object(population, "_CHUNK_ROWS", chunk):
                    assert_same(observed(ingest, path, **kwargs), want)

    def test_each_block_takes_its_path(self, tmp_path):
        lines = [f"u{k % 3},{3600 * k + 60}" for k in range(20)]
        lines[5] = ""  # block 2 of 4 lines: csv.reader on the block
        lines[13] = 'u1,"60"'  # block 4: csv.reader to the end of the log
        path = tmp_path / "log.csv"
        path.write_text("user_id,timestamp_utc\n" + "\n".join(lines) + "\n", encoding="utf-8")
        split = []

        def split_block(*args, real=population._split_block):
            block = real(*args)
            split.append(block is not None)
            return block

        rows = mock.Mock(wraps=population._csv_rows)
        with mock.patch.multiple(population, _CHUNK_ROWS=4, _split_block=split_block, _csv_rows=rows):
            got = observed(ingest, path)
        assert_same(got, observed(ref_ingest, path))
        assert split == [True, False, True]
        block, tail = rows.call_args_list
        assert block.args[0] == [line + "\n" for line in lines[4:8]]
        assert block.args[4] == 5  # after the header and block 1
        assert tail.args[4] == 13
        assert sum(p.count for p in got[0].values()) == 19

    @pytest.mark.parametrize("variant", ["plain", "quoted header", "no final newline"])
    def test_clean_log_never_reads_row_by_row(self, tmp_path, variant):
        rng = np.random.default_rng(3)
        stamps = rng.integers(0, 10**10, 9000).astype(str).astype(object)
        stamps[rng.random(9000) < 0.5] = "2023-06-01T12:00:00Z"
        stamps[rng.random(9000) < 0.01] = ""
        users = [f"ü{k}" for k in rng.integers(0, 50, 9000)]
        path = write_csv(tmp_path / "log.csv", zip(users, stamps))
        text = path.read_text("utf-8")
        if variant == "quoted header":  # quotes in the header alone keep the rows on the block path
            path.write_text('"user_id",timestamp_utc' + text[len("user_id,timestamp_utc"):], "utf-8")
        elif variant == "no final newline":
            path.write_text(text[:-1], "utf-8")
        with mock.patch.object(population, "_csv_rows", wraps=population._csv_rows) as rows, \
                mock.patch.object(population, "_parse_timestamp", wraps=_parse_timestamp) as parse, \
                mock.patch.object(population, "_group_ids", wraps=population._group_ids) as exact:
            got = observed(ingest, path)
        rows.assert_not_called()
        parse.assert_not_called()  # every timestamp is in a bulk form
        exact.assert_not_called()  # every block's ids are grouped by their hash
        assert_same(got, observed(ref_ingest, path))

    @pytest.mark.parametrize("fault", ['u1,"60"', "u1,60\r", "", "u1,60,x", "u1\0,60", "9" * 40])
    def test_fault_after_the_first_default_block(self, tmp_path, fault):
        rng = np.random.default_rng(4)
        lines = [f"u{k},{t}" for k, t in zip(rng.integers(0, 50, 9000), rng.integers(0, 10**9, 9000))]
        lines[6000] = fault
        path = tmp_path / "log.csv"
        path.write_text("user_id,timestamp_utc\n" + "\n".join(lines), encoding="utf-8")
        with field_size_limit(30):
            assert_same(observed(ingest, path), observed(ref_ingest, path))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_edge_forms_and_boundaries(self, tmp_path, fmt, scheme):
        n = scheme.n
        boundaries = [k * scheme.slot_duration for k in (0, 1, 2, n - 1, n, n + 1, 2 * n)]
        stamps = EDGE_STAMPS + [
            text
            for t in boundaries + [k * scheme.period_seconds for k in (1, 10, 19675)]
            for text in (str(int(t)), repr(t), iso(EPOCH + timedelta(seconds=t)))
        ]
        rows = [(f"u{k}", ts) for k, ts in enumerate(stamps)] + [("all", ts) for ts in stamps]
        path = tmp_path / f"log.{fmt}"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerows([("user_id", "timestamp_utc"), *rows])
            else:
                for user, ts in rows:
                    fh.write(json.dumps({"user_id": user, "timestamp_utc": ts}) + "\n")
        # 1e11 s turns year 0 non-negative, so it must be refused as a date
        for tz_offset in (0.0, -3600.0, 0.5, scheme.slot_duration, 1e11):
            kwargs = dict(format=fmt, scheme=scheme, tz_offset=tz_offset)
            want = observed(ref_ingest, path, **kwargs)
            for chunk in (1, population._CHUNK_ROWS):
                with mock.patch.object(population, "_CHUNK_ROWS", chunk):
                    assert_same(observed(ingest, path, **kwargs), want)

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 8193])
    def test_default_chunk_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        stamps = rng.integers(0, 10**10, rows).astype(str).astype(object)
        stamps[rng.random(rows) < 0.3] = "2023-06-01T12:00:00Z"
        stamps[rng.random(rows) < 0.01] = "bogus"
        users = [f"u{k}" for k in rng.integers(0, 50, rows)]
        path = write_csv(tmp_path / "log.csv", zip(users, stamps))
        assert_same(observed(ingest, path, min_count=20), observed(ref_ingest, path, min_count=20))


def grouping(path, **kwargs):
    """``observed(ingest, path)``, and whether any block grouped its ids
    exactly rather than by hash."""
    with mock.patch.object(population, "_group_ids", wraps=population._group_ids) as exact:
        got = observed(ingest, path, **kwargs)
    return got, exact.called


#: Ids that share a prefix, differ in a trailing space, or lie outside the BMP.
TRICKY_IDS = ["u1", "u10", "u1 ", "u", "1u", "ü", "用户", "\U0001d518", "u\U0001f600", "\U0001f600u"]


class TestGroupedIds:
    def test_tricky_ids_are_grouped_by_hash(self, tmp_path):
        rows = [(TRICKY_IDS[k % len(TRICKY_IDS)], 3600 * (k % 24) + 60) for k in range(300)]
        path = write_csv(tmp_path / "log.csv", rows)
        got, exact = grouping(path)
        assert not exact
        assert_same(got, observed(ref_ingest, path))
        assert sorted(got[0]) == sorted(TRICKY_IDS)
        assert {p.count for p in got[0].values()} == {30}

    def test_forced_collision_regroups_exactly(self, tmp_path):
        rows = [(TRICKY_IDS[k % len(TRICKY_IDS)], 3600 * (k % 5) + 60) for k in range(300)]
        path = write_csv(tmp_path / "log.csv", rows)
        zeros = np.zeros_like(population._ID_WEIGHTS)  # every id hashes to 0
        for chunk in (7, population._CHUNK_ROWS):
            with mock.patch.multiple(population, _ID_WEIGHTS=zeros, _CHUNK_ROWS=chunk):
                got, exact = grouping(path)
            assert exact
            assert_same(got, observed(ref_ingest, path))

    # the longest ids: a line of one split block holds at most the csv field
    # size limit, and ",60" follows the id
    @pytest.mark.parametrize("size", [
        population._ID_WIDTH, population._ID_WIDTH + 1,
        csv.field_size_limit() - 3, csv.field_size_limit(),
    ])
    def test_long_ids(self, tmp_path, size):
        long_id = "ü" * (size - 1) + "x"
        rows = [(f"u{k % 50}", 3600 * (k % 7)) for k in range(4000)]
        rows[10:4000:1000] = [(long_id, 60), (long_id[:-1] + "y", 60), (long_id, 3660), ("u1", 60)]
        path = write_csv(tmp_path / "log.csv", rows)
        want = observed(ref_ingest, path)
        tracemalloc.start()
        try:
            got, exact = grouping(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same(got, want)
        assert exact == (size > population._ID_WIDTH)
        assert got[0][long_id].count == 2
        # measured 2.2-4.1 MB; ids padded to the longest would take 4,000
        # rows x 131,072 code points x 4 B, over 2 GB
        assert peak < 10e6

    @pytest.mark.parametrize("fmt", ["csv", "quoted csv", "jsonl"])
    @pytest.mark.parametrize("min_count", [0, 1])
    def test_user_only_on_refused_rows_is_not_registered(self, tmp_path, fmt, min_count):
        rows = [("u1", "60"), ("ghost", "not-a-time"), ("u1", "3660"), ("ghost", "-3600"),
                ("ghost", "2023-02-30T10:00:00Z"), ("u10", "7200")]
        path = tmp_path / "log.jsonl"
        if fmt == "jsonl":
            path.write_text("".join(
                json.dumps({"user_id": user, "timestamp_utc": ts}) + "\n" for user, ts in rows
            ))
        else:
            path = write_csv(tmp_path / "log.csv", rows)
            if fmt == "quoted csv":  # csv.reader from the first row on
                path.write_text(path.read_text().replace("u1,60", '"u1",60'))
        kwargs = dict(format="jsonl" if fmt == "jsonl" else "csv", min_count=min_count)
        got = observed(ingest, path, **kwargs)
        assert_same(got, observed(ref_ingest, path, **kwargs))
        assert list(got[0]) == ["u1", "u10"]
        messages = [message for _, message, _, _ in got[1]]
        assert len(messages) == 3 and not any("excluding" in m for m in messages)


class TestCalendarTables:
    def test_year_tables_match_the_calendar(self):
        years = range(1, 10_000)
        assert population._YEAR_START[1:].tolist() == [
            date(y, 1, 1).toordinal() - 719_163 for y in years
        ]
        assert population._LEAP[1:].tolist() == [calendar.isleap(y) for y in years]

    def test_end_of_february(self):
        texts = [
            f"{y:04d}-{month}T12:34:56Z"
            for y in (1, 4, 100, 400, 1900, 2000, 2023, 9999)
            for month in ("02-28", "02-29", "03-01")
        ]
        block = [(k, "u", text) for k, text in enumerate(texts)]
        *_, codes, length = next(population._string_blocks(iter(block)))
        got = population._bulk_timestamps(codes, length).tolist()
        for text, value in zip(texts, got):
            y = int(text[:4])
            if text[5:10] == "02-29" and not calendar.isleap(y):
                assert math.isnan(value), text
                with pytest.raises(ValueError, match="day is out of range for month"):
                    _parse_timestamp(text)
            else:
                assert value == _parse_timestamp(text), text
        assert sum(map(math.isnan, got)) == 5  # years 1, 100, 1900, 2023 and 9999


class TestSlotOfMatchesScalarReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        scheme=st.one_of(
            st.integers(2, 1440).map(SlotScheme.day),
            st.sampled_from([SlotScheme.week(), SlotScheme.week(168), *SCHEMES]),
        ),
    )
    def test_array_matches_scalar_reference(self, data, scheme):
        boundary = st.one_of(
            st.integers(0, 3 * 400 * scheme.n).map(lambda k: k * scheme.slot_duration),
            st.integers(0, 10**6).map(lambda k: k * scheme.period_seconds),
        )
        near = st.tuples(boundary, st.sampled_from([-math.inf, None, math.inf])).map(
            lambda pair: pair[0] if pair[1] is None else float(np.nextafter(*pair))
        )
        stamps = data.draw(st.lists(
            st.one_of(near, near, st.floats(0, 4e9), st.floats(0, 2.0**53), st.just(2.0**53)),
            min_size=1, max_size=60,
        ))
        want = [ref_slot_of(scheme, t) for t in stamps]
        got = scheme.slot_of(np.array(stamps))
        assert got.dtype == np.int64 and got.tolist() == want
        scalars = [scheme.slot_of(t) for t in stamps]
        assert all(type(k) is int for k in scalars) and scalars == want


class TestSynthPopulation:
    def test_deterministic_given_seed(self):
        a = synth_population(10, seed=7)
        b = synth_population(10, seed=7)
        for user in a:
            assert np.array_equal(a[user].q, b[user].q)
            assert a[user].count == b[user].count

    def test_seed_matters(self):
        a = synth_population(5, seed=1)
        b = synth_population(5, seed=2)
        assert any(not np.array_equal(a[u].q, b[u].q) for u in a)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_population(0)
        with pytest.raises(ValueError):
            synth_population(3, concentration=0.0)
        with pytest.raises(ValueError):
            synth_population(3, mean_messages=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"concentration": math.inf}, "concentration must be positive and finite, got inf"),
            ({"mean_messages": math.inf}, "mean_messages must be positive and finite, got inf"),
            ({"mean_messages": math.nan}, "mean_messages must be positive and finite, got nan"),
            ({"n_users": True}, "n_users must be an integer >= 1, got True"),
            ({"n_users": 2.0}, "n_users must be an integer >= 1, got 2.0"),
        ],
    )
    def test_parameters_refused_by_name(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            synth_population(**{"n_users": 2, **kwargs})
        assert str(info.value) == message

    def test_huge_finite_parameters_refused_before_any_draw(self):
        # numpy's Poisson sampler refuses a mean above about 9.2e18, and the
        # Dirichlet draw's sum of n gamma variates overflows with n * concentration
        over_mean = math.nextafter(1e18, math.inf)
        for mean in (over_mean, 1e19, 1e300):
            with pytest.raises(ValueError) as info:
                synth_population(2, mean_messages=mean)
            assert str(info.value) == f"mean_messages must be at most 1e18, got {mean!r}"
        for n, over in ((2, math.nextafter(sys.float_info.max / 2, math.inf)),
                        (24, sys.float_info.max / 24), (24, 1e308)):
            with pytest.raises(ValueError) as info:
                synth_population(2, scheme=SlotScheme.day(n), concentration=over)
            assert str(info.value) == f"concentration * {n} slots overflows, got {over!r}"

    @pytest.mark.parametrize(
        "n, kwargs",
        [
            (24, {"mean_messages": 1e18}),
            (2, {"concentration": sys.float_info.max / 2}),
            (24, {"concentration": math.nextafter(sys.float_info.max / 24, 0.0)}),
        ],
    )
    def test_largest_accepted_parameters_draw(self, n, kwargs):
        users = synth_population(3, scheme=SlotScheme.day(n), seed=4, **kwargs)
        counts = [p.count for p in users.values()]
        if "mean_messages" in kwargs:
            assert all(abs(c - 1e18) < 1e11 for c in counts)
        else:
            assert len(counts) == 3

    def test_large_concentration_approaches_uniform(self):
        from deferral.profiles import critical_rate

        users = synth_population(20, concentration=1e7, seed=3)
        rates = [critical_rate(p) for p in users.values()]
        assert max(rates) < 1e-2

    def test_concentration_controls_peakedness(self):
        from deferral.profiles import critical_rate

        med = {}
        for conc in (0.1, 10.0):
            rates = []
            for seed in range(5):
                users = synth_population(30, concentration=conc, seed=seed)
                rates += [critical_rate(p) for p in users.values()]
            med[conc] = np.median(rates)
        assert med[0.1] > med[10.0]

    def test_counts_are_poisson_scaled(self):
        users = synth_population(200, mean_messages=500.0, seed=11)
        counts = np.array([p.count for p in users.values()])
        assert abs(counts.mean() - 500.0) < 4 * np.sqrt(500.0 / 200)


class TestNearestRankPercentile:
    def test_known_values(self):
        values = [15, 20, 35, 40, 50]
        assert nearest_rank_percentile(values, 30) == 20
        assert nearest_rank_percentile(values, 40) == 20
        assert nearest_rank_percentile(values, 50) == 35
        assert nearest_rank_percentile(values, 100) == 50
        assert nearest_rank_percentile(values, 1) == 15

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50)

    @pytest.mark.parametrize("pct", [150, 100.5, -5, -1e-9, float("nan"), float("inf")])
    def test_refuses_pct_outside_0_100(self, pct):
        with pytest.raises(ValueError, match=r"pct must lie in \[0, 100\]"):
            nearest_rank_percentile([15, 20, 35], pct)

    def test_bounds_are_inclusive(self):
        assert nearest_rank_percentile([15, 20, 35], 0) == 15
        assert nearest_rank_percentile([15, 20, 35], 100.0) == 35

    @pytest.mark.parametrize("rows", [1, 2, 7, 40])
    def test_columns_are_the_percentiles_of_each_column(self, rows):
        values = np.random.default_rng(rows).normal(size=(rows, 5)).round(1)  # with ties
        values[0, 1] = np.inf
        for pct in (0, 10, 50, 90, 100):
            got = nearest_rank_percentile(values, pct)
            want = [nearest_rank_percentile(values[:, k], pct) for k in range(5)]
            assert got.dtype == np.float64 and got.tolist() == want
            assert type(want[0]) is float


class TestStudy:
    def test_all_uniform_population(self):
        scheme = SlotScheme.day()
        users = {
            f"u{i}": ActivityProfile(scheme, uniform_pmf(24), count=100.0) for i in range(5)
        }
        result = study(users, [0.0, 0.1, 0.2])
        assert np.array_equal(result.phi_crit, np.zeros(5))
        for pct in (10, 50, 90):
            assert np.allclose(result.gain_percentiles[pct], 0.0, atol=1e-9)
        assert np.allclose(result.aggregate_before, 1 / 24)
        # critical rate 0: nothing is delayed, and the mean delay is no 0/0
        assert np.array_equal(result.delay_conditional_slots, np.zeros(5))
        assert np.array_equal(result.capacity_messages, np.zeros(5))

    def test_snapped_away_mass_is_refused_as_before(self):
        # at rate 1e-9, r spreads over 1438 empty slots and is snapped to 0,
        # so the apparent profile is short of its mass: the study and the
        # curve refuse it with the same message as the per-rate entropies did
        q = np.zeros(1440)
        q[:2] = [0.34, 1 - 0.34]
        users = {"u": ActivityProfile(SlotScheme(1440, 86400.0), q, count=100.0)}
        message = r"^not a PMF: input sums to 0\.9999999989999999$"
        with pytest.raises(ValueError, match=message):
            study(users, [0.1, 1e-9])
        with pytest.raises(ValueError, match=message):
            privacy_deferral_curve(users["u"], [0.1, 1e-9])

    @pytest.mark.parametrize("slots", [24, 168])
    def test_delays_match_delay_distribution(self, slots):
        # study takes the mean delay from Little's law; the exact delay PMF
        # must give the same mean
        scheme = SlotScheme(slots, slots * HOUR)
        users = synth_population(20, scheme=scheme, seed=slots)
        result = study(users, [0.1])
        for ui, user in enumerate(result.user_ids):
            prof = users[user]
            strat = solve_optimal(prof, critical_rate(prof))
            want = delay_distribution(steady_state(strat, prof.count)).expected_conditional
            got = result.delay_conditional_slots[ui]
            assert abs(got - want) <= 1e-12 * want

    def test_single_user_fixture(self):
        scheme = SlotScheme(3, 86400.0)
        users = {"u": ActivityProfile(scheme, [0.5, 0.3, 0.2], count=600.0)}
        result = study(users, [0.05, 1 / 6, 0.5])
        assert result.phi_crit[0] == pytest.approx(1 / 6, abs=1e-12)
        assert result.gain_curves[0, 1] == pytest.approx(6.697, abs=1e-3)
        assert result.gain_curves[0, 2] == pytest.approx(6.697, abs=1e-3)  # clamped
        assert result.capacity_messages[0] > 0
        assert 1 <= result.delay_conditional_slots[0] <= 3

    def test_aggregate_variance_shrinks_with_phi(self):
        users = synth_population(40, seed=9)
        result = study(users, [0.0, 0.1, 0.25, 0.6])
        variances = [result.aggregate_after[k].var() for k in range(4)]
        assert all(np.diff(variances) < 0)
        assert np.allclose(result.aggregate_after[0], result.aggregate_before, atol=1e-12)

    def test_aggregate_uniform_beyond_max_critical_rate(self):
        from deferral.profiles import critical_rate

        users = synth_population(25, seed=14)
        top = max(critical_rate(p) for p in users.values())
        result = study(users, [min(0.999, top * 1.01)])
        assert np.abs(result.aggregate_after[0] - 1 / 24).max() < 1e-6

    def test_percentiles_nondecreasing_and_saturating(self):
        users = synth_population(30, seed=2)
        grid = np.linspace(0, 0.99, 12)
        result = study(users, grid)
        for pct in (10, 50, 90):
            curve = result.gain_percentiles[pct]
            assert (np.diff(curve) >= -1e-9).all()
        beyond = grid >= result.phi_crit.max()
        p90 = result.gain_percentiles[90][beyond]
        assert np.allclose(p90, p90[0], atol=1e-9)

    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_checks_every_rate_before_any_user(self, bad):
        users = synth_population(3, seed=1)
        with mock.patch.object(population, "solve_optimal") as solve:
            with pytest.raises(ValueError, match=rf"^deferral rate must lie in \[0, 1\), got {bad!r}$"):
                study(users, [0.1, 0.2, bad])
        solve.assert_not_called()

    def test_rejects_empty_or_mixed(self):
        with pytest.raises(ValueError, match="at least one user"):
            study({}, [0.1])
        with pytest.raises(ValueError, match="^empty phi grid$"):
            study(synth_population(2, seed=1), [])
        users = {
            "a": ActivityProfile(SlotScheme.day(), uniform_pmf(24), count=10.0),
            "b": ActivityProfile(SlotScheme(12, 86400.0), uniform_pmf(12), count=10.0),
        }
        with pytest.raises(ValueError, match="slot scheme"):
            study(users, [0.1])


    def test_leaves_every_profile_as_it_was(self):
        users = synth_population(5, seed=3)
        seen = {user: (repr(prof), dict(vars(prof))) for user, prof in users.items()}
        study(users, [0.1, 0.3])
        assert {user: (repr(prof), vars(prof)) for user, prof in users.items()} == seen

    def test_keeps_no_memory_per_user(self):
        users = synth_population(2000, seed=6)
        grid = [0.1, 0.3]
        study(synth_population(2, seed=7), grid)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            study(users, grid)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # measured 10 B per user; a prefix kept on each profile is about 1.6 kB
        assert kept < 200 * len(users), kept


def ref_study(users, phi_grid):
    """The scalar reference of ``study``: one solve per user and grid rate,
    one more at the critical rate, and one percentile call per rate."""
    if not users:
        raise ValueError("population study needs at least one user")
    phi_grid = np.array([strategies._check_phi(phi) for phi in phi_grid])
    if phi_grid.size == 0:
        raise ValueError("empty phi grid")

    user_ids = list(users)
    scheme = users[user_ids[0]].scheme
    n = scheme.n
    if any(users[u].scheme != scheme for u in user_ids):
        raise ValueError("all users in a study must share one slot scheme")
    counts = np.array([max(users[u].count, 1.0) for u in user_ids])

    phi_crit = np.zeros(len(user_ids))
    gain_curves = np.zeros((len(user_ids), phi_grid.size))
    delay_cond = np.zeros(len(user_ids))
    cap_msgs = np.zeros(len(user_ids))
    t_at = np.zeros((phi_grid.size, len(user_ids), n))

    for ui, user in enumerate(user_ids):
        prof = users[user]
        phi_crit[ui] = critical_rate(prof)
        for k, phi in enumerate(phi_grid):
            t_at[k, ui] = population.solve_optimal(prof, float(phi)).apparent()
        gain_curves[ui] = population.relative_privacy_gain(prof, entropy_rows(t_at[:, ui]))
        strat_crit = population.solve_optimal(prof, phi_crit[ui])
        pattern = population.steady_state(strat_crit, counts[ui])
        cap_msgs[ui] = population.buffer_capacity(pattern)
        delay_cond[ui] = pattern.b.sum() / phi_crit[ui] if phi_crit[ui] > 0 else 0.0

    weights = counts / counts.sum()
    aggregate_before = np.einsum("u,un->n", weights, np.array([users[u].q for u in user_ids]))
    aggregate_after = np.einsum("u,kun->kn", weights, t_at)

    percentiles = {
        pct: np.array(
            [nearest_rank_percentile(gain_curves[:, k], pct) for k in range(phi_grid.size)]
        )
        for pct in (10, 50, 90)
    }

    return population.PopulationStudy(
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


def ref_write_hist(path, values, bins: int, lo=None, hi=None, label="value"):
    """The scalar reference of ``_write_hist``: ``np.histogram`` builds the edges."""
    values = np.asarray(values, dtype=float)
    if lo is None:
        lo = float(values.min())
    if hi is None:
        hi = float(values.max())
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        hi = lo + 1.0
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    pmf = (counts / max(counts.sum(), 1)).tolist()
    edges = edges.tolist()
    header = [f"{label}_bin_left", f"{label}_bin_right", "count", "pmf"]
    population._write_table(path, header, zip(edges[:-1], edges[1:], counts.tolist(), pmf))


STUDY_ARRAYS = (
    "phi_grid", "phi_crit", "gain_curves", "delay_conditional_slots", "delay_conditional_hours",
    "capacity_messages", "capacity_relative_pct", "aggregate_before", "aggregate_after",
)


def outcome(call, users, grid, out_dir):
    """``(arrays as bytes, table bytes)`` of a study, or its error."""
    try:
        result = call(users, grid)
    except ValueError as exc:
        return repr(exc)
    arrays = [result.user_ids] + [
        (a.dtype, a.shape, a.tobytes())
        for a in [getattr(result, name) for name in STUDY_ARRAYS]
        + [result.gain_percentiles[pct] for pct in (10, 50, 90)]
    ]
    writer = ref_write_hist if call is ref_study else population._write_hist
    with mock.patch.object(population, "_write_hist", writer):
        tables = [path.read_bytes() for path in result.write_csvs(out_dir)]
    return arrays, tables


@st.composite
def cohorts(draw):
    """A cohort of Dirichlet(0.05, 1 or 50) and uniform users, and a grid of
    rates in any order, with repeats, 0, one user's exact critical rate and
    a rate above every critical rate."""
    n = draw(st.sampled_from([3, 24, 168]))
    scheme = SlotScheme(n, 86400.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users = {}
    kinds = draw(st.lists(st.sampled_from([0.05, 1.0, 50.0, None]), min_size=1, max_size=6))
    for u, kind in enumerate(kinds):
        q = uniform_pmf(n) if kind is None else rng.dirichlet(np.full(n, kind))
        users[f"u{u}"] = ActivityProfile(scheme, q, count=float(draw(st.integers(0, 5000))))
    crit = [critical_rate(p) for p in users.values()]
    rates = draw(st.lists(st.floats(0.0, 0.99), max_size=6))
    rates += [0.0, draw(st.sampled_from(crit)), (max(crit) + 1.0) / 2]
    rates += draw(st.lists(st.sampled_from(rates), max_size=3))  # repeats
    return users, draw(st.permutations(rates))


class TestStudyMatchesScalarReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cohort=cohorts())
    def test_arrays_and_tables_match(self, tmp_path_factory, cohort):
        users, grid = cohort
        out = tmp_path_factory.mktemp("study")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # such as the snapping of a dust-level rate
            want = outcome(ref_study, users, grid, out / "ref")
            assert outcome(study, users, grid, out / "new") == want

    def test_one_solve_per_rate_below_the_critical_rate_plus_one(self):
        users = synth_population(12, concentration=0.7, seed=8)
        users["flat"] = ActivityProfile(SlotScheme.day(), uniform_pmf(24), count=9.0)
        grid = [0.6, 0.05, 0.3, 0.0, 0.3, 0.9, 0.15]
        crit = np.array([critical_rate(p) for p in users.values()])
        with mock.patch.object(population, "solve_optimal", wraps=solve_optimal) as solve:
            study(users, grid)
        below = (np.array(grid)[None, :] < crit[:, None]).sum()
        assert 0 < below < crit.size * len(grid)
        assert solve.call_count == below + len(users)

    @pytest.mark.parametrize("grid", [[0.1, 0.3], [0.1, 0.99, 0.5]])
    def test_first_error_is_the_references(self, grid):
        q = np.zeros(24)
        q[5] = 1.0  # one slot: zero entropy, so its gain is undefined
        others = list(synth_population(6, seed=4).items())
        one = ("one", ActivityProfile(SlotScheme.day(), q, count=1.0))
        users = dict(others[:3] + [one] + others[3:])
        raised = []
        for call in (ref_study, study):
            with mock.patch.object(
                population, "relative_privacy_gain", wraps=population.relative_privacy_gain
            ) as gain:
                with pytest.raises(ValueError) as err:
                    call(users, grid)
            raised.append((str(err.value), gain.call_args.args[0]))
        assert raised[0] == raised[1]
        assert raised[1] == ("relative privacy gain undefined: profile has zero entropy", users["one"])

    def test_snapped_mass_refused_as_by_the_reference(self):
        q = np.zeros(1440)
        q[:2] = [0.34, 1 - 0.34]
        users = {"u": ActivityProfile(SlotScheme(1440, 86400.0), q, count=100.0)}
        for grid in ([0.1, 1e-9], [0.999, 1e-9]):
            with pytest.raises(ValueError) as want:
                ref_study(users, grid)
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                study(users, grid)


def test_results_compare_by_identity():
    def build():
        users = synth_population(2, seed=5)
        prof = users["user000"]
        strat = solve_optimal(prof, 0.1)
        pattern, _, dist = analyze_buffer(strat)
        record = empirical_vs_analytic(SimConfig(profile=prof, strategy=strat, alpha=100, cycles=5))
        return [prof, strat, pattern, dist, record.report, record, study(users, [0.1])]

    for x, y in zip(build(), build()):
        assert x == x and x != y, type(x).__name__


class TestWriteCsvs:
    def test_emits_five_tables(self, tmp_path):
        users = synth_population(15, seed=4)
        result = study(users, [0.05, 0.15, 0.3, 0.7])
        written = result.write_csvs(tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "aggregate_profiles.csv",
            "capacity_pmf.csv",
            "delay_pmf.csv",
            "gain_percentiles.csv",
            "phicrit_hist.csv",
        ]

    def test_pmf_columns_sum_to_one(self, tmp_path):
        users = synth_population(15, seed=4)
        result = study(users, [0.05, 0.15])
        result.write_csvs(tmp_path)
        for name in ("phicrit_hist.csv", "delay_pmf.csv", "capacity_pmf.csv"):
            with open(tmp_path / name) as fh:
                rows = list(csv.DictReader(fh))
            total = sum(float(row["pmf"]) for row in rows)
            assert total == pytest.approx(1.0, abs=1e-6)
        with open(tmp_path / "aggregate_profiles.csv") as fh:
            rows = list(csv.DictReader(fh))
        for col in rows[0]:
            if col == "slot":
                continue
            assert sum(float(r[col]) for r in rows) == pytest.approx(1.0, abs=1e-6)

    def test_reruns_byte_identical(self, tmp_path):
        users = synth_population(10, seed=6)
        result = study(users, [0.1, 0.4])
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        result.write_csvs(dir_a)
        study(synth_population(10, seed=6), [0.1, 0.4]).write_csvs(dir_b)
        for name in ("phicrit_hist.csv", "gain_percentiles.csv", "aggregate_profiles.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestWriteHist:
    def read(self, path):
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(row[0]) for row in rows] + [float(rows[-1][1])], [int(row[2]) for row in rows]

    @pytest.mark.parametrize(
        "values",
        [[3.0, 7.5, 4.25, 12.0], [0.1, 0.1 + 1e-9], [12.0, 12.0 + 16 * 2.0**-49], [-5.0, 0.0]],
    )
    def test_splittable_range_keeps_numpy_edges(self, tmp_path, values):
        population._write_hist(tmp_path / "h.csv", values, bins=16)
        edges, counts = self.read(tmp_path / "h.csv")
        want_counts, want_edges = np.histogram(values, bins=16, range=(min(values), max(values)))
        assert edges == want_edges.tolist() and counts == want_counts.tolist()

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            ([12.0, 12.0, 12.0], None, None),  # all equal
            (np.linspace(0.0, 1.0, 17).tolist() + [0.5, 1.0], None, None),  # on every edge
            (np.linspace(0.0, 1.0, 21).tolist()[:-1], 0.0, 1.0),
            ([0.0, 0.3, 0.3, 0.95, 1.0, 1.5, -0.5, float("nan")], 0.0, 1.0),  # out of range
            ([3.0, 7.5, 4.25, 12.0, 1e-300], None, None),
            ([1.0, float("inf")], None, None),
            ([-float("inf"), 1.0], None, None),
            ([float("nan"), 1.0], None, None),
            ([1e17, 1e17], None, None),
        ],
    )
    def test_tables_and_errors_match_the_reference(self, tmp_path, values, lo, hi):
        got = []
        for write in (population._write_hist, ref_write_hist):
            path = tmp_path / f"{write.__name__}.csv"
            try:
                with np.errstate(all="ignore"):  # the edges of an infinite range
                    write(path, values, bins=16 if lo is None else 20, lo=lo, hi=hi, label="x")
            except ValueError as exc:
                got.append(repr(exc))
            else:
                got.append(path.read_bytes())
        assert got[0] == got[1]

    @pytest.mark.parametrize(
        "values",
        [[12.0, 12.0], [12.0 - 1.6e-14, 12.0, 12.0 + 5e-15], [12.0, np.nextafter(12.0, 13.0)], [0.0]],
    )
    def test_unsplittable_range_gets_unit_width(self, tmp_path, values):
        # np.histogram refuses a range whose 17 edges do not all differ
        population._write_hist(tmp_path / "h.csv", values, bins=16)
        edges, counts = self.read(tmp_path / "h.csv")
        lo = min(values)
        assert edges == np.linspace(lo, lo + 1.0, 17).tolist()
        assert counts == [len(values)] + [0] * 15

import dataclasses
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferral.cli import main
from deferral.population import ingest
from deferral.profiles import (
    PMF_ATOL,
    ActivityProfile,
    SlotScheme,
    TimestampRecord,
    _validate_pmf,
    _write_json,
    _write_table,
    critical_rate,
    entropy,
    entropy_rows,
    kl_divergence,
    total_variation,
    uniform_pmf,
)

HOUR = 3600.0


def hourly_scheme(n=24):
    return SlotScheme(n, 86400.0)


class TestSlotScheme:
    def test_slot_duration(self):
        assert SlotScheme.day(24).slot_duration == HOUR
        assert SlotScheme.week(7).slot_duration == 86400.0
        assert SlotScheme(10, 100.0).slot_duration == 10.0

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5])
    def test_rejects_bad_slot_count(self, n):
        with pytest.raises(ValueError):
            SlotScheme(n, 86400.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SlotScheme(24, 0.0)
        with pytest.raises(ValueError):
            SlotScheme(24, -5.0)

    def test_rejects_infinite_period(self):
        # an infinite period would bin every timestamp into slot 1
        with pytest.raises(ValueError, match=r"^period must be finite, got inf$"):
            SlotScheme(24, float("inf"))

    def test_boundary_belongs_to_earlier_slot(self):
        scheme = hourly_scheme()
        # slot i covers (i-1, i] in slot units
        assert scheme.slot_of(1.0) == 1
        assert scheme.slot_of(HOUR) == 1
        assert scheme.slot_of(HOUR + 1) == 2
        assert scheme.slot_of(0.0) == 24      # period boundary wraps to the last slot
        assert scheme.slot_of(86400.0) == 24
        assert scheme.slot_of(86401.0) == 1

    def test_wraps_across_periods(self):
        scheme = hourly_scheme()
        assert scheme.slot_of(3 * 86400.0 + 30 * 60) == 1
        assert scheme.slot_of(3 * 86400.0 + 13.5 * HOUR) == 14


class TestTimestampRecord:
    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            TimestampRecord("u", -1.0)

    def test_rejects_non_finite_timestamp(self):
        with pytest.raises(ValueError):
            TimestampRecord("u", float("nan"))


class TestActivityProfile:
    def test_validates_pmf(self):
        scheme = SlotScheme(4, 86400.0)
        with pytest.raises(ValueError, match="not a PMF"):
            ActivityProfile(scheme, [0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError, match="not a PMF"):
            ActivityProfile(scheme, [0.3, 0.3, 0.3, 0.3])
        with pytest.raises(ValueError):
            ActivityProfile(scheme, [0.5, 0.5])

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            ActivityProfile(SlotScheme(2, 10.0), [0.5, 0.5], count=-1)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_count(self, bad):
        with pytest.raises(ValueError, match=rf"^message count must be finite, got {bad!r}$"):
            ActivityProfile(SlotScheme(2, 10.0), [0.5, 0.5], count=bad)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("count", float("inf"), "message count must be finite, got inf"),
            ("count", float("nan"), "message count must be finite, got nan"),
            ("period_seconds", float("inf"), "period must be finite, got inf"),
            ("n", 4.9, "slot count must be an integer >= 2, got 4.9"),
            ("count", "3", "message count must be >= 0 and finite, got '3'"),
            ("period_seconds", True, "period must be positive and finite, got True"),
        ],
    )
    def test_non_finite_fields_refused_on_load(self, tmp_path, field, value, message):
        data = ActivityProfile(hourly_scheme(4), [0.1, 0.2, 0.3, 0.4], count=10).to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ActivityProfile.from_dict(data)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))  # as Infinity or NaN, which json.load accepts
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ActivityProfile.load(path)

    def test_is_immutable(self):
        prof = ActivityProfile(hourly_scheme(4), [0.7, 0.1, 0.1, 0.1], count=10)
        for field, value in [("q", [0.1, 0.1, 0.1, 0.7]), ("q", [0.5, 0.5, 0.5, -0.5]), ("count", 5.0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prof, field, value)
        assert prof.q.tolist() == [0.7, 0.1, 0.1, 0.1] and prof.count == 10.0
        assert critical_rate(prof) == pytest.approx(0.45, abs=1e-12)

    def test_roundtrip(self, tmp_path):
        prof = ActivityProfile(hourly_scheme(4), [0.1, 0.2, 0.3, 0.4], count=10)
        again = ActivityProfile.from_dict(prof.to_dict())
        assert np.array_equal(prof.q, again.q)
        assert again.scheme == prof.scheme
        path = tmp_path / "p.json"
        prof.save(path)
        assert np.array_equal(ActivityProfile.load(path).q, prof.q)


def binned(tmp_path, stamps, scheme, name="log.csv"):
    """The profile ``ingest`` bins from one user's timestamps in a CSV log."""
    path = tmp_path / name
    rows = "".join(f"u,{float(t)!r}\n" for t in stamps)
    path.write_text("user_id,timestamp_utc\n" + rows, encoding="utf-8")
    return ingest(path, scheme=scheme)["u"]


class TestBuildProfile:
    """Building a profile from timestamps, which ``ingest`` alone does."""

    def test_hourly_records_give_uniform(self, tmp_path):
        prof = binned(tmp_path, [h * HOUR + 60 for h in range(24)], hourly_scheme())
        assert np.allclose(prof.q, uniform_pmf(24))
        assert prof.count == 24

    def test_degenerate_mass(self, tmp_path):
        prof = binned(tmp_path, [2 * HOUR + 300] * 4, hourly_scheme())  # within slot 3
        expected = np.zeros(24)
        expected[2] = 1.0
        assert np.array_equal(prof.q, expected)
        assert prof.count == 4

    def test_hand_binned_example(self, tmp_path):
        # 00:30, 00:45, 13:10, 13:20, 13:40, 22:05
        minutes = [30, 45, 13 * 60 + 10, 13 * 60 + 20, 13 * 60 + 40, 22 * 60 + 5]
        prof = binned(tmp_path, [m * 60.0 for m in minutes], hourly_scheme())
        expected = np.zeros(24)
        expected[0] = 2 / 6
        expected[13] = 3 / 6
        expected[22] = 1 / 6
        assert np.allclose(prof.q, expected)
        assert prof.count == 6

    def test_empty_records(self, tmp_path):
        with pytest.raises(ValueError, match="no valid users"):
            binned(tmp_path, [], hourly_scheme())

    def test_order_invariance(self, tmp_path):
        rng = np.random.default_rng(3)
        scheme = hourly_scheme()
        stamps = rng.uniform(0, 86400 * 7, size=200)
        prof = binned(tmp_path, stamps, scheme)
        shuffled = binned(tmp_path, stamps[rng.permutation(stamps.size)], scheme, "shuffled.csv")
        assert np.array_equal(shuffled.q, prof.q)


class TestEntropy:
    def test_uniform_24(self):
        assert entropy(uniform_pmf(24)) == pytest.approx(np.log2(24), abs=1e-12)
        assert round(entropy(uniform_pmf(24)), 4) == 4.5850

    def test_deterministic_distribution(self):
        p = np.zeros(8)
        p[0] = 1.0
        assert entropy(p) == 0.0

    @pytest.mark.parametrize("p", [[1.0], [1.0, 0.0], [0.0, 0.0, 1.0]])
    def test_point_mass_is_positive_zero(self, p):
        assert math.copysign(1.0, entropy(p)) == 1.0
        assert [math.copysign(1.0, h) for h in entropy_rows([p, p]).tolist()] == [1.0, 1.0]

    def test_direct_evaluation(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_non_pmf(self):
        with pytest.raises(ValueError, match="not a PMF"):
            entropy([0.4, 0.4])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not a PMF"):
            entropy([0.5, bad, 0.5])


def ref_entropy(p) -> float:
    """Entropy of one PMF at a time, as computed before the row kernel, and
    +0.0 (not -0.0) for a point mass."""
    p = _validate_pmf(p)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) or 0.0


ROW_KINDS = ("dirichlet", "zeros", "one-hot", "uniform", "nan", "negative", "off-mass")


def drawn_row(kind, n, rng):
    if kind == "one-hot":
        p = np.zeros(n)
        p[rng.integers(n)] = 1.0
        return p
    if kind == "uniform":
        return uniform_pmf(n)
    p = rng.dirichlet(np.full(n, rng.choice([0.05, 1.0, 50.0])))
    i = rng.integers(n)
    if kind == "zeros":
        p[rng.random(n) < rng.uniform(0.1, 0.9)] = 0.0
        p[i] += 1.0 - p.sum()
    elif kind == "nan":
        p[i] = np.nan
    elif kind == "negative":
        p[i] = -rng.choice([1e-300, 1e-9, 0.3])
    elif kind == "off-mass":
        p[i] += rng.choice([-1.0, 1.0]) * rng.choice([0.5, 1.5, 1e6]) * PMF_ATOL
    return p


class TestEntropyRows:
    # n straddles numpy's unroll-by-8 and its 128-element pairwise blocks
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 168, 1440]),
        kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=24, kinds=[], seed=0)
    @example(n=1440, kinds=["dirichlet"], seed=1)
    @example(n=9, kinds=["zeros", "dirichlet", "nan", "negative"], seed=2)
    def test_matches_one_row_reference(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        P = np.array([drawn_row(kind, n, rng) for kind in kinds]).reshape(len(kinds), n)
        try:
            want = np.array([ref_entropy(row) for row in P])
        except ValueError as exc:  # the first row that is not a PMF is named
            with pytest.raises(ValueError) as got:
                entropy_rows(P)
            assert str(got.value) == str(exc)
            return
        got = entropy_rows(P)
        assert got.dtype == want.dtype and got.shape == (len(kinds),)
        assert got.tobytes() == want.tobytes()
        assert np.array([entropy(row) for row in P]).tobytes() == want.tobytes()

    def test_refuses_a_vector(self):
        with pytest.raises(ValueError, match="U x n"):
            entropy_rows(uniform_pmf(4))


class TestKLDivergence:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_divergence(p, p) == 0.0

    def test_uniform_reference_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = rng.dirichlet(np.ones(24))
            assert kl_divergence(t, uniform_pmf(24)) == pytest.approx(
                np.log2(24) - entropy(t), abs=1e-9
            )

    def test_half_support_against_uniform(self):
        assert kl_divergence([0.5, 0.5, 0, 0], uniform_pmf(4)) == pytest.approx(1.0, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(ValueError, match="divergence infinite"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            kl_divergence([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])


class TestTotalVariation:
    def test_equal(self):
        p = [0.3, 0.7]
        assert total_variation(p, p) == 0.0

    def test_disjoint_supports(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_evaluation(self):
        assert total_variation(uniform_pmf(4), [0.5, 0.5, 0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            total_variation([0.5, 0.5], uniform_pmf(3))


class TestCriticalRate:
    def test_uniform_profile(self):
        prof = ActivityProfile(hourly_scheme(6), uniform_pmf(6))
        assert critical_rate(prof) == 0.0

    def test_point_mass(self):
        prof = ActivityProfile(hourly_scheme(4), [1.0, 0, 0, 0])
        assert critical_rate(prof) == pytest.approx(0.75, abs=1e-12)

    def test_three_slot_example(self):
        prof = ActivityProfile(hourly_scheme(3), [0.5, 0.3, 0.2])
        assert critical_rate(prof) == pytest.approx(1 / 6, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 24, 168, 1440])
    def test_computed_once_per_profile(self, n):
        prof = ActivityProfile(hourly_scheme(n), np.random.default_rng(n).dirichlet(np.ones(n)))
        first = critical_rate(prof)
        assert first == float(0.5 * np.abs(1.0 / n - prof.q).sum())
        assert critical_rate(prof) is first  # the stored value, not a recomputed one


class TestProperties:
    def test_entropy_maximized_only_at_uniform(self):
        rng = np.random.default_rng(99)
        top = np.log2(24)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(24))
            h = entropy(p)
            assert h <= top + 1e-9
            if h >= top - 1e-9:
                assert np.abs(p - 1 / 24).max() < 1e-9

    def test_critical_rate_zero_iff_uniform(self):
        scheme = hourly_scheme()
        u = uniform_pmf(24)
        assert critical_rate(ActivityProfile(scheme, u)) < 1e-12
        bumped = u.copy()
        bumped[0] += 1e-6
        bumped[1] -= 1e-6
        prof = ActivityProfile(scheme, bumped)
        assert critical_rate(prof) > 0
        assert np.abs(prof.q - 1 / 24).max() > 1e-9


def write_rows(path, size):
    rows = [[i, i / 7, "r"] for i in range(size)]
    _write_table(path, ["i", "x", "s"], rows)
    return "".join(",".join(map(str, row)) + "\r\n" for row in [["i", "x", "s"], *rows]).encode()


def write_payload(path, size):
    payload = {"q": [i / 7 for i in range(size)], "label": "é"}
    _write_json(path, payload)
    return (json.dumps(payload, indent=2) + "\n").encode()


class TestWriters:
    """Every output file is rewritten in place and then cut to length: the
    bytes and the file mode are those of ``open(path, "w")``, the inode and a
    symlink are kept, and pipes and devices are written but never cut."""

    WRITERS = pytest.mark.parametrize("write", [write_rows, write_payload], ids=["table", "json"])

    @WRITERS
    def test_new_file_takes_the_umask(self, tmp_path, write):
        old = os.umask(0o002)
        try:
            expected = write(tmp_path / "new", 5)
        finally:
            os.umask(old)
        assert (tmp_path / "new").read_bytes() == expected
        assert (tmp_path / "new").stat().st_mode & 0o777 == 0o666 & ~0o002

    @WRITERS
    def test_rewrites_leave_exactly_the_new_bytes(self, tmp_path, write):
        path = tmp_path / "out"
        write(path, 3)
        inode = path.stat().st_ino
        for size in (200, 2, 0, 40, 40):
            expected = write(path, size)
            assert path.read_bytes() == expected
            assert path.stat().st_ino == inode

    @WRITERS
    def test_symlink_target_is_rewritten(self, tmp_path, write):
        target, link = tmp_path / "target", tmp_path / "link"
        write(target, 100)
        link.symlink_to(target)
        expected = write(link, 4)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == expected

    @WRITERS
    def test_dev_null(self, write):
        write(os.devnull, 50)

    @WRITERS
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_written_not_cut(self, write):
        read_fd, write_fd = os.pipe()
        received = []

        def drain():
            with os.fdopen(read_fd, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            expected = write(f"/dev/fd/{write_fd}", 3000)  # more than one pipe buffer
        finally:
            os.close(write_fd)
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [expected]

    @WRITERS
    def test_missing_directory_and_directory_refused(self, tmp_path, write):
        with pytest.raises(FileNotFoundError):
            write(tmp_path / "absent" / "out", 1)
        with pytest.raises(IsADirectoryError):
            write(tmp_path, 1)

    def test_study_tables_never_opened_with_truncation(self, tmp_path, monkeypatch):
        args = ["population", "study", "--synth", "4", "--phi-grid", "0.1:0.5:3",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        opened, os_open = [], os.open

        def recording_open(path, flags, *rest, **kwargs):
            opened.append((os.path.basename(path), flags))
            return os_open(path, flags, *rest, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert main(args) == 0
        tables = [(name, flags) for name, flags in opened if name.endswith(".csv")]
        assert sorted(name for name, _ in tables) == [
            "aggregate_profiles.csv", "capacity_pmf.csv", "delay_pmf.csv",
            "gain_percentiles.csv", "phicrit_hist.csv",
        ]
        assert not any(flags & os.O_TRUNC for _, flags in tables)

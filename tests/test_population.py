import csv
import json

import numpy as np
import pytest

from deferral.population import (
    ingest,
    nearest_rank_percentile,
    read_records,
    study,
    synth_population,
)
from deferral.buffer import delay_distribution, steady_state
from deferral.profiles import (
    ActivityProfile,
    SlotScheme,
    TimestampRecord,
    critical_rate,
    uniform_pmf,
)
from deferral.strategies import solve_optimal

HOUR = 3600.0


def write_csv(path, rows):
    with open(path, "w") as fh:
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

    def test_malformed_rows_reported(self, tmp_path):
        path = write_csv(
            tmp_path / "log.csv", [("u", "3600"), ("u", "not-a-time"), ("", "60")]
        )
        records, errors = read_records(path)
        assert len(records) == 1
        assert len(errors) == 2
        assert all(isinstance(line, int) for line, _ in errors)

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

    def test_missing_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("who,when\nu,60\n")
        with pytest.raises(ValueError, match="user_id,timestamp_utc"):
            read_records(path)

    def test_tz_offset_shifts_binning(self, tmp_path):
        path = write_csv(tmp_path / "log.csv", [("u", "0")])
        records, _ = read_records(path, tz_offset=HOUR)
        assert records[0].timestamp == HOUR


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

    def test_rejects_empty_or_mixed(self):
        with pytest.raises(ValueError, match="at least one user"):
            study({}, [0.1])
        users = {
            "a": ActivityProfile(SlotScheme.day(), uniform_pmf(24), count=10.0),
            "b": ActivityProfile(SlotScheme(12, 86400.0), uniform_pmf(12), count=10.0),
        }
        with pytest.raises(ValueError, match="slot scheme"):
            study(users, [0.1])


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

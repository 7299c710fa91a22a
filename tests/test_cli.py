import argparse
import codecs
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from deferral.cli import build_parser, main
from deferral.profiles import ActivityProfile, SlotScheme, uniform_pmf

HOUR = 3600

#: Environment of the ``python -m deferral`` subprocesses: this checkout's
#: sources first, whether or not the package is installed.
SRC_ENV = dict(os.environ)
SRC_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def write_log(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,timestamp_utc\n")
        for user, ts in rows:
            fh.write(f"{user},{ts}\n")
    return str(path)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for user, ts in rows:
            fh.write(json.dumps({"user_id": user, "timestamp_utc": ts}) + "\n")
    return str(path)


def save_profile(tmp_path, q, count=600.0, name="profile.json"):
    q = np.asarray(q, dtype=float)
    prof = ActivityProfile(SlotScheme(q.size, 86400.0), q, count=count)
    path = tmp_path / name
    prof.save(path)
    return str(path)


class TestProfileBuild:
    def test_builds_from_csv(self, tmp_path):
        minutes = [30, 45, 13 * 60 + 10, 13 * 60 + 20, 13 * 60 + 40, 22 * 60 + 5]
        log = write_log(tmp_path / "log.csv", [("u", m * 60) for m in minutes])
        out = tmp_path / "profile.json"
        assert main(["profile", "build", "--input", log, "--format", "csv",
                     "--slots", "24", "--period", "day", "--out", str(out)]) == 0
        prof = ActivityProfile.load(out)
        assert prof.q[0] == pytest.approx(2 / 6)
        assert prof.q[13] == pytest.approx(3 / 6)
        assert prof.count == 6

    def test_tz_offset(self, tmp_path):
        log = write_log(tmp_path / "log.csv", [("u", 30 * 60)])
        out = tmp_path / "profile.json"
        assert main(["profile", "build", "--input", log, "--out", str(out),
                     "--tz-offset", str(HOUR)]) == 0
        prof = ActivityProfile.load(out)
        assert prof.q[1] == 1.0  # shifted into the second slot

    def test_missing_file_reports_json_error(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(["profile", "build", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err and "type" in err

    def test_oversized_csv_header_field_is_a_bad_header(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("user_id," + "9" * 200_000 + ",timestamp_utc\na,60\n")
        assert main(["profile", "build", "--input", str(log), "--out", str(tmp_path / "p.json")]) == 1
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [{
            "error": f"{log}: expected CSV header with user_id,timestamp_utc, got an unreadable "
                     "row: field larger than field limit (131072)",
            "type": "ValueError",
        }]
        assert not (tmp_path / "p.json").exists()

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # as Excel saves "CSV UTF-8"
        log = write_log(tmp_path / "log.csv", [("ü", h * HOUR + 60) for h in (1, 5, 9, 13)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + Path(log).read_bytes())
        for src in (log, marked):
            assert main(["profile", "build", "--input", str(src), "--out", f"{src}.json"]) == 0
            assert main(["population", "study", "--input", str(src), "--phi-grid", "0.1:0.5:3",
                         "--out-dir", f"{src}.out"]) == 0
        assert Path(f"{marked}.json").read_bytes() == Path(f"{log}.json").read_bytes()
        for table in sorted(Path(f"{log}.out").iterdir()):
            assert (Path(f"{marked}.out") / table.name).read_bytes() == table.read_bytes()

    @pytest.mark.parametrize(
        "fmt, write, bad_line", [("csv", write_log, 4), ("jsonl", write_jsonl, 3)]
    )
    def test_two_users_refused(self, tmp_path, capsys, fmt, write, bad_line):
        log = write(tmp_path / f"log.{fmt}", [("a", 60), ("b", 7200), ("b", "bogus"), ("a", 90)])
        out = tmp_path / "p.json"
        assert main(["profile", "build", "--input", log, "--format", fmt, "--out", str(out)]) == 1
        err = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert err == [
            {"warning": f"{log}:{bad_line}: bad timestamp 'bogus': "
                        "Invalid isoformat string: 'bogus'"},
            {"error": "heterogeneous input: records carry 2 distinct user ids",
             "type": "ValueError"},
        ]
        assert not out.exists()

    def test_all_bad_log_warns_then_names_the_path(self, tmp_path, capsys):
        log = write_log(tmp_path / "log.csv", [("a", "bogus"), ("", 60), ("b", -5)])
        out = tmp_path / "p.json"
        assert main(["profile", "build", "--input", log, "--out", str(out)]) == 1
        err = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [list(line) for line in err] == [["warning"]] * 3 + [["error", "type"]]
        where = [line["warning"].split(": ")[0] for line in err[:3]]
        assert where == [f"{log}:{k}" for k in (2, 3, 4)]
        assert err[3] == {"error": f"{log}: no valid users after parsing and filtering",
                          "type": "ValueError"}
        assert not out.exists()

    def test_jsonl_and_csv_logs_give_the_same_bytes(self, tmp_path, capsys):
        rows = [("ü", 60 + 3607 * k) for k in range(50)] + [("ü", "2023-06-01T12:00:00Z")] * 3
        rows += [("ü", "not-a-time")]
        logs = [write(tmp_path / f"log.{fmt}", rows) for fmt, write in
                (("csv", write_log), ("jsonl", write_jsonl))]
        for log, fmt in zip(logs, ("csv", "jsonl")):
            assert main(["profile", "build", "--input", log, "--format", fmt, "--slots", "168",
                         "--period", "week", "--out", f"{log}.json"]) == 0
        assert Path(f"{logs[0]}.json").read_bytes() == Path(f"{logs[1]}.json").read_bytes()
        assert ActivityProfile.load(f"{logs[0]}.json").count == 53
        err = [json.loads(line)["warning"] for line in capsys.readouterr().err.splitlines()]
        assert err == [f"{logs[0]}:55: bad timestamp 'not-a-time': "
                       "Invalid isoformat string: 'not-a-time'",
                       f"{logs[1]}:54: bad timestamp 'not-a-time': "
                       "Invalid isoformat string: 'not-a-time'"]

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        log = write_log(tmp_path / "log.csv", (("u", 37 * k) for k in range(100_000)))
        out = tmp_path / "p.json"
        tracemalloc.start()
        try:
            code = main(["profile", "build", "--input", log, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and ActivityProfile.load(out).count == 100_000
        # measured 3.4 MB; keeping one record per row would cost about 13 MB
        assert peak < 10e6


class TestStrategySolve:
    def test_solve_at_zero(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "strategy.json"
        assert main(["strategy", "solve", "--profile", prof_path,
                     "--phi", "0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["s"] == [0.0, 0.0, 0.0]
        assert data["r"] == [0.0, 0.0, 0.0]
        assert data["entropy_bits"] == pytest.approx(1.4854752972273344)
        assert data["method"] == "water-filling"

    def test_point_mass_has_positive_zero_entropy(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.0, 1.0, 0.0])
        out = tmp_path / "strategy.json"
        assert main(["strategy", "solve", "--profile", prof_path,
                     "--phi", "0", "--out", str(out)]) == 0
        assert '"entropy_bits": 0.0,' in out.read_text()
        assert math.copysign(1.0, json.loads(out.read_text())["entropy_bits"]) == 1.0

    def test_oracle_flag(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "strategy.json"
        assert main(["strategy", "solve", "--profile", prof_path,
                     "--phi", "0.1", "--oracle", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "numerical-oracle"
        assert data["entropy_bits"] == pytest.approx(1.5709505944546684, abs=1e-6)

    def test_clamping_reported(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "strategy.json"
        assert main(["strategy", "solve", "--profile", prof_path,
                     "--phi", "0.9", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["clamped"] is True
        assert data["phi"] == pytest.approx(1 / 6)

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"n": 4, "period_seconds": 86400.0}, "profile is missing q"),
            ({"period_seconds": 86400.0}, "profile is missing n, q"),
            ([1, 2], "profile must be an object with n, period_seconds, q, got list"),
        ],
    )
    def test_incomplete_profile_refused_by_name(self, tmp_path, capsys, content, message):
        prof_path = tmp_path / "profile.json"
        prof_path.write_text(json.dumps(content))
        out = tmp_path / "strategy.json"
        assert main(["strategy", "solve", "--profile", str(prof_path), "--phi", "0.1", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ValueError"}
        assert not out.exists()


class TestCurve:
    def test_uniform_profile_constant(self, tmp_path):
        prof_path = save_profile(tmp_path, uniform_pmf(8))
        out = tmp_path / "curve.csv"
        assert main(["curve", "--profile", prof_path,
                     "--phi-grid", "0:0.5:6", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            assert float(row["entropy_bits"]) == pytest.approx(3.0, abs=1e-12)

    def test_bad_grid_spec(self, tmp_path, capsys):
        prof_path = save_profile(tmp_path, uniform_pmf(4))
        code = main(["curve", "--profile", prof_path,
                     "--phi-grid", "oops", "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "bad phi grid" in capsys.readouterr().err


class TestBufferAnalyze:
    def test_reports_pattern_and_delay(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "buffer.json"
        assert main(["buffer", "analyze", "--profile", prof_path, "--phi", "0.1",
                     "--alpha", "600", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"start_index", "b", "s_prime", "r_prime",
                             "capacity_messages", "delay"}
        assert sum(data["delay"]["pmf"]) == pytest.approx(0.1, abs=1e-9)
        assert data["capacity_messages"] == pytest.approx(600 * max(data["b"]))

    def test_refuses_infinite_alpha(self, tmp_path, capsys):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "buffer.json"
        assert main(["buffer", "analyze", "--profile", prof_path, "--phi", "0.1",
                     "--alpha", "inf", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "alpha must be finite, got inf", "type": "ValueError"}
        assert not out.exists()


class TestSimulate:
    def test_simulate_and_compare(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "sim.json"
        args = ["simulate", "--profile", prof_path, "--phi", "0.1", "--alpha", "5000",
                "--cycles", "50", "--warmup", "2", "--discipline", "uniform",
                "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        report_keys = {"delay_histogram", "delayed_count", "total_count", "delayed_fraction",
                       "mean_conditional_delay", "peak_occupancy", "per_slot_posted",
                       "mean_occupancy", "seed", "rng_algorithm", "discipline",
                       "start_index", "measured_cycles"}
        assert set(data) == report_keys
        assert data["seed"] == 9
        assert data["total_count"] == 48 * 5000

        out2 = tmp_path / "cmp.json"
        assert main(args[:-1] + [str(out2), "--compare"]) == 0
        cmp_data = json.loads(out2.read_text())
        assert set(cmp_data) == {"analytic", "empirical", "peak_within_band", "flags", "report"}
        assert set(cmp_data["analytic"]) == {
            "expected_delay_unconditional_slots", "expected_delay_conditional_slots",
            "capacity_messages", "delay_pmf"}
        assert set(cmp_data["empirical"]) == {
            "conditional_delay_slots", "conditional_delay_se", "delayed_fraction",
            "delayed_fraction_se", "pattern_peak_messages", "peak_occupancy"}
        assert set(cmp_data["report"]) == report_keys
        assert cmp_data["flags"] == []
        assert cmp_data["analytic"]["capacity_messages"] > 0

    def test_compare_refuses_one_measured_cycle(self, tmp_path, capsys):
        prof_path = save_profile(tmp_path, [1.0, 0.0, 0.0, 0.0], count=100.0)
        out = tmp_path / "cmp.json"
        assert main(["simulate", "--profile", prof_path, "--phi", "0.9", "--alpha", "100",
                     "--cycles", "3", "--compare", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "analytic comparison needs at least 2 measured cycles, "
                     "got cycles 3 with warmup_cycles 2",
            "type": "ValueError",
        }
        assert not out.exists()

    def test_reruns_byte_identical(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["simulate", "--profile", prof_path, "--phi", "0.1",
                         "--alpha", "2000", "--cycles", "30", "--warmup", "2",
                         "--discipline", "uniform", "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fifo_discipline_accepted(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "sim.json"
        assert main(["simulate", "--profile", prof_path, "--phi", "0.1",
                     "--alpha", "1000", "--cycles", "10", "--discipline", "fifo",
                     "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["discipline"] == "fifo"

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "sim.json"
        assert main(["simulate", "--profile", prof_path, "--phi", "0.1",
                     "--alpha", "1000", "--cycles", "10", "--seed", "-1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "seed must be a non-negative integer, got -1", "type": "ValueError"}
        ]
        assert not out.exists()


class TestPopulationStudy:
    def test_synth_writes_tables(self, tmp_path):
        out_dir = tmp_path / "study"
        assert main(["population", "study", "--synth", "12",
                     "--phi-grid", "0.05:0.6:4", "--out-dir", str(out_dir),
                     "--seed", "3"]) == 0
        for name in ("phicrit_hist.csv", "gain_percentiles.csv", "delay_pmf.csv",
                     "capacity_pmf.csv", "aggregate_profiles.csv"):
            assert (out_dir / name).exists()

    def test_ingest_path(self, tmp_path):
        rows = []
        for u in ("a", "b"):
            rows += [(u, h * HOUR + 60) for h in range(0, 24, 2)]
        log = write_log(tmp_path / "log.csv", rows)
        out_dir = tmp_path / "study"
        assert main(["population", "study", "--input", log,
                     "--phi-grid", "0.1:0.5:3", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "phicrit_hist.csv").exists()

    def test_oversized_csv_field_is_one_warning(self, tmp_path, capsys):
        def logs(name, users):
            rows = [(u, h * HOUR + 60) for u in users for h in range(0, 24, 2)]
            clean = write_log(tmp_path / f"{name}-clean.csv", rows)
            rows.insert(5, ("a", "9" * 200_000))  # line 7: over the csv field size limit
            log = write_log(tmp_path / f"{name}.csv", rows)
            return clean, log, f"{log}:7: unreadable CSV row: field larger than field limit (131072)"

        clean, log, message = logs("one", "a")
        for src in (clean, log):
            assert main(["profile", "build", "--input", src, "--out", src + ".json"]) == 0
        warned = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert warned == [{"warning": message}]
        assert Path(log + ".json").read_bytes() == Path(clean + ".json").read_bytes()

        clean, log, message = logs("two", "ab")
        args = ["population", "study", "--phi-grid", "0.1:0.5:3", "--input"]
        assert main([*args, clean, "--out-dir", clean + ".out"]) == 0
        with pytest.warns(UserWarning) as caught:
            assert main([*args, log, "--out-dir", log + ".out"]) == 0
        assert [str(w.message) for w in caught] == [message]
        for table in sorted(Path(clean + ".out").iterdir()):
            assert (Path(log + ".out") / table.name).read_bytes() == table.read_bytes()

    @pytest.mark.parametrize(
        "command", [["population", "study", "--phi-grid", "0.1:0.5:3"], ["profile", "build"]]
    )
    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_non_finite_tz_offset_refused(self, tmp_path, capsys, command, offset):
        log = write_log(tmp_path / "log.csv", [("a", 60), ("a", 7200)])
        out = tmp_path / "out"
        outputs = ["--out-dir", str(out)] if command[0] == "population" else ["--out", str(out)]
        assert main(command + ["--input", log, "--tz-offset", offset] + outputs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": f"tz_offset must be finite, got {offset}", "type": "ValueError"}
        ]
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--input", "absent.csv"], ["--synth", "5"]])
    def test_bad_rate_refused_before_any_input_is_read(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        with mock.patch("deferral.cli.ingest") as ingest, \
                mock.patch("deferral.cli.synth_population") as synth:
            assert main(["population", "study", *source, "--phi-grid", "0:1:11",
                         "--out-dir", str(out)]) == 1
        ingest.assert_not_called()
        synth.assert_not_called()
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "deferral rate must lie in [0, 1), got 1.0", "type": "ValueError"}
        ]
        assert not out.exists()

    def test_empty_grid_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["population", "study", "--synth", "3", "--phi-grid", "0:1:0",
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "bad phi grid '0:1:0': no points", "type": "ValueError"}
        ]
        assert not out.exists()

    def test_infinite_concentration_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["population", "study", "--synth", "3", "--concentration", "inf",
                     "--phi-grid", "0:0.5:3", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "concentration must be positive and finite, got inf", "type": "ValueError"}
        ]
        assert not out.exists()

    def test_huge_mean_messages_named(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["population", "study", "--synth", "3", "--mean-messages", "1e19",
                     "--phi-grid", "0:0.5:3", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "mean_messages must be at most 1e18, got 1e+19", "type": "ValueError"}
        ]
        assert not out.exists()

    def test_two_slot_delays_equal_to_the_last_bits(self, tmp_path):
        # every conditional delay is half a day, give or take a few ulps
        out_dir = tmp_path / "study"
        assert main(["population", "study", "--synth", "20", "--slots", "2",
                     "--phi-grid", "0.05:0.7:14", "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "delay_pmf.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16 and int(rows[0]["count"]) == 20
        lo = float(rows[0]["delay_hours_bin_left"])
        assert lo == pytest.approx(12.0, abs=1e-12)
        assert float(rows[-1]["delay_hours_bin_right"]) == lo + 1.0

    def test_week_period(self, tmp_path):
        out_dir = tmp_path / "study"
        assert main(["population", "study", "--synth", "8", "--slots", "168",
                     "--period", "week", "--phi-grid", "0.1:0.4:3",
                     "--out-dir", str(out_dir), "--seed", "2"]) == 0
        with open(out_dir / "aggregate_profiles.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 168

    def test_reruns_byte_identical(self, tmp_path):
        args = ["population", "study", "--synth", "10", "--phi-grid", "0.1:0.5:3",
                "--seed", "8"]
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(args + ["--out-dir", str(d)]) == 0
        for name in ("phicrit_hist.csv", "gain_percentiles.csv", "delay_pmf.csv",
                     "capacity_pmf.csv", "aggregate_profiles.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_rerun_into_one_dir_matches_a_fresh_dir(self, tmp_path):
        # tables shrink and grow again: every rewrite is cut to its new length
        names = ("phicrit_hist.csv", "gain_percentiles.csv", "delay_pmf.csv",
                 "capacity_pmf.csv", "aggregate_profiles.csv")
        reused = tmp_path / "reused"
        for run, steps in enumerate((14, 3, 14)):
            args = ["population", "study", "--synth", "6", "--phi-grid", f"0.05:0.7:{steps}",
                    "--seed", "8", "--out-dir"]
            fresh = tmp_path / f"fresh{run}"
            assert main(args + [str(reused)]) == 0
            assert main(args + [str(fresh)]) == 0
            for name in names:
                assert (reused / name).read_bytes() == (fresh / name).read_bytes(), (run, name)


class TestParser:
    def test_log_readers_share_their_options(self):
        def command(*path):
            parser = build_parser()
            for name in path:
                (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
                parser = sub.choices[name]
            return {
                action.dest: (action.option_strings, action.type, action.choices,
                              action.default, action.help)
                for action in parser._actions
                if action.dest in ("format", "slots", "period", "tz_offset")
            }

        build, study = command("profile", "build"), command("population", "study")
        assert len(build) == 4 and build == study
        assert build["tz_offset"][-1].startswith("seconds added to every timestamp")


class TestEntryPoint:
    def test_import_does_not_load_scipy(self):
        # scipy takes about 0.5 s to import, and only the SLSQP oracle needs it
        code = "import sys, deferral.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_every_command_but_the_oracle_runs_without_scipy(self, tmp_path):
        log = write_log(tmp_path / "log.csv", [("u", 600 + HOUR * h) for h in range(30)])
        prof = save_profile(tmp_path, [0.5, 0.3, 0.2])
        commands = [
            ["profile", "build", "--input", log, "--out", "p.json"],
            ["strategy", "solve", "--profile", prof, "--phi", "0.1", "--out", "s.json"],
            ["curve", "--profile", prof, "--phi-grid", "0:0.2:3", "--out", "c.csv"],
            ["buffer", "analyze", "--profile", prof, "--phi", "0.1", "--alpha", "100",
             "--out", "b.json"],
            ["simulate", "--profile", prof, "--phi", "0.1", "--alpha", "100", "--cycles", "5",
             "--out", "m.json"],
            ["simulate", "--profile", prof, "--phi", "0.1", "--alpha", "100", "--cycles", "5",
             "--compare", "--out", "mc.json"],
            ["population", "study", "--synth", "3", "--phi-grid", "0.1:0.3:3", "--out-dir", "st"],
            ["population", "study", "--input", log, "--phi-grid", "0.1:0.3:3", "--out-dir", "sl"],
            ["strategy", "solve", "--profile", prof, "--phi", "0.1", "--oracle", "--out", "o.json"],
        ]
        # a None entry makes every import of scipy raise ImportError
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from deferral.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            capture_output=True, text=True, env=SRC_ENV, cwd=tmp_path,
        )
        assert json.loads(proc.stdout) == [0] * 8 + [1], proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "the oracle needs SciPy: pip install 'deferral[oracle]'",
            "type": "ImportError",
        }
        assert not (tmp_path / "o.json").exists()

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deferral", "--help"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert "profile" in proc.stdout
        assert "simulate" in proc.stdout

    def test_no_output_depends_on_the_locale_encoding(self, tmp_path):
        # these flags turn a file opened without an encoding into an error exit
        log = write_log(tmp_path / "log.csv", [("u", 600 + HOUR * h) for h in range(30)])
        prof = save_profile(tmp_path, [0.5, 0.3, 0.2])
        commands = [
            ["profile", "build", "--input", log, "--out", "p.json"],
            ["strategy", "solve", "--profile", prof, "--phi", "0.1", "--out", "s.json"],
            ["curve", "--profile", prof, "--phi-grid", "0:0.2:3", "--out", "c.csv"],
            ["buffer", "analyze", "--profile", prof, "--phi", "0.1", "--alpha", "100",
             "--out", "b.json"],
            ["simulate", "--profile", prof, "--phi", "0.1", "--alpha", "100", "--cycles", "5",
             "--compare", "--out", "m.json"],
            ["population", "study", "--synth", "3", "--phi-grid", "0.1:0.3:3", "--out-dir", "st"],
        ]
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "deferral", *argv],
                capture_output=True, text=True, env=SRC_ENV, cwd=tmp_path,
            )
            assert proc.returncode == 0 and not proc.stderr, (argv, proc.stderr)
        assert len(list(tmp_path.iterdir())) == 2 + 6

    def test_module_run(self, tmp_path):
        prof_path = save_profile(tmp_path, [0.5, 0.3, 0.2])
        out = tmp_path / "strategy.json"
        proc = subprocess.run(
            [sys.executable, "-m", "deferral", "strategy", "solve",
             "--profile", prof_path, "--phi", "0.05", "--out", str(out)],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["phi"] == 0.05

"""Tests of the benchmark itself: generators, correctness checks, tracing.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import checks
import tracing
import workloads
from deferral import population, profiles

SEED = 3

# Ingest warns once per malformed row; the checks read those warnings themselves.
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _fingerprint(generated) -> str:
    """Digest of whatever a generator returns (arrays, lists, dicts, text)."""
    if isinstance(generated, np.ndarray):
        return checks.digest(generated.dtype.str, generated.shape, generated.tobytes())
    if isinstance(generated, dict):
        return checks.digest(*(f"{k}={_fingerprint(v)}" for k, v in sorted(generated.items())))
    if isinstance(generated, (list, tuple)):
        return checks.digest(*map(_fingerprint, generated))
    return checks.digest(repr(generated))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name].generate
    assert _fingerprint(generate(SEED)) == _fingerprint(generate(SEED))
    assert _fingerprint(generate(SEED)) != _fingerprint(generate(SEED + 1))


def test_generated_shares_are_as_stated():
    _, counts, kinds = workloads.ProfileWeek.generate(SEED)
    assert kinds.count("one-slot") == 2 and len(kinds) == workloads.ProfileWeek.pool
    assert all(counts[k] == 1.0 for k, kind in enumerate(kinds) if kind == "one-slot")
    for log in workloads.LogIngest.generate(SEED):
        valid = log["rows"] - log["malformed"]
        assert log["malformed"] == round(workloads.LogIngest.malformed_share * valid)
        assert len(log["low_users"]) == workloads.LogIngest.low_users
        assert log["text"].count("\n") == log["rows"] + 1


# -- every check passes on a real result and fails on a corrupted one --------


def test_gain_curve_check():
    n, grid = 4, [0.1, 0.2, 0.3]
    top = math.log2(n)
    assert checks.gain_curve(grid, [1.5, 1.8, top], 0.25, n) == []
    assert checks.gain_curve(grid, [1.8, 1.5, top], 0.25, n)  # decreasing
    assert checks.gain_curve(grid, [1.5, 1.8, top - 1e-6], 0.25, n)  # not saturated


def test_pmf_delay_and_range_checks():
    assert checks.pmf_rows([[0.5, 0.5], [0.25, 0.75]], "rows") == []
    assert checks.pmf_rows([[0.5, 0.5], [0.25, 0.76]], "rows")
    assert checks.delay_pmf([0.1, 0.2, 0.0], 0.3, 3) == []
    assert checks.delay_pmf([0.1, 0.2, 0.0], 0.31, 3)  # mass differs from phi
    assert checks.delay_pmf([0.1, 0.2], 0.3, 3)  # support not {1..n}
    assert checks.delay_pmf([0.4, -0.1, 0.0], 0.3, 3)  # negative
    assert checks.delay_range([1.0, 2.5, 3.0], 3) == []
    assert checks.delay_range([0.5], 3) and checks.delay_range([3.5], 3)
    assert checks.delay_range([math.nan], 3)


def test_repeat_digests_flag_changed_output():
    seen = checks.RepeatDigests()
    assert seen.check(0, "a") == [] and seen.check(1, "b") == []
    assert seen.check(0, "a") == []
    assert seen.check(0, "c")


def _ok(wl, i=0):
    out = wl.run(i)
    assert wl.check(i, out, "") == []
    return out


def test_cohort_checks_catch_corruption(tmp_path):
    wl = workloads.CohortDay(SEED, tmp_path)
    result, paths = _ok(wl)
    bad = dataclasses.replace(result, gain_curves=result.gain_curves[:, ::-1])
    assert wl.check(0, (bad, paths), "")
    after = result.aggregate_after.copy()
    after[3] *= 1.01
    assert wl.check(0, (dataclasses.replace(result, aggregate_after=after), paths), "")
    delays = result.delay_conditional_slots.copy()
    delays[0] = wl.n + 1
    assert wl.check(0, (dataclasses.replace(result, delay_conditional_slots=delays), paths), "")
    paths[0].write_text(paths[0].read_text() + "# altered\n")
    assert any("differs" in p for p in wl.check(0, (result, paths), ""))


def test_profile_week_checks_catch_corruption(tmp_path):
    wl = workloads.ProfileWeek(SEED, tmp_path)
    i = wl.kinds.index("dirichlet")
    phi_crit, points, phi, pattern, cap, dist = _ok(wl, i)
    pmf = dist.pmf.copy()
    pmf[0] += 1e-6
    assert wl.check(i, (phi_crit, points, phi, pattern, cap, dataclasses.replace(dist, pmf=pmf)), "")
    flat = [dataclasses.replace(p, entropy_bits=p.entropy_bits - 1e-6) for p in points]
    assert wl.check(i, (phi_crit, flat, phi, pattern, cap, dist), "")
    assert wl.check(i, (phi_crit, points, phi, pattern, cap * 2, dist), "")  # output changed on repeat


def test_profile_week_one_slot_profile_raises():
    """The known defect the workload keeps visible: it must count as a failure."""
    wl = workloads.ProfileWeek(SEED, None)
    with pytest.raises(ValueError, match="zero entropy"):
        wl.run(wl.kinds.index("one-slot"))


def test_only_known_errors_leave_the_run_correct():
    import run

    wl = workloads.ProfileWeek(SEED, None)
    one_slot, dirichlet = wl.kinds.index("one-slot"), wl.kinds.index("dirichlet")
    tally = run.Tally()
    tally.add(wl, one_slot, *run.run_op(wl, one_slot))
    assert tally.failed == 1 and tally.problems == []
    known = next(iter(tally.errors))
    tally.add(wl, dirichlet, 0.01, None, known, "")  # the same error on another kind of profile
    tally.add(wl, one_slot, 0.01, None, "ValueError: something else", "")
    assert tally.failed == 3 and len(tally.problems) == 2

    sim = workloads.SimValidate(SEED, None)
    tally = run.Tally()
    tally.add(sim, 0, 0.01, None, "RuntimeError: simulation diverged", "")
    assert tally.failed == 1 and tally.problems


def test_host_speed_scales_each_operation_by_its_neighbouring_blocks():
    import run

    speed = run.HostSpeed()
    speed.track(0.01)
    assert sum(speed.blocks[0]) >= run.REFERENCE_SHARE * 0.01
    speed.blocks = [[1.0], [2.0, 2.0], [4.0], [1.0], [8.0]]
    # operation 0 runs between blocks 0 and 1: its window is blocks 0 to 2
    assert speed.scale(0) == pytest.approx(run.REFERENCE_S / 2.0)
    # operation 2 runs between blocks 2 and 3: its window is blocks 1 to 4
    assert speed.scale(2) == pytest.approx(run.REFERENCE_S / 2.0)
    # operation 3: blocks 2 to 4
    assert speed.scale(3) == pytest.approx(run.REFERENCE_S / 4.0)


def test_tally_scales_times_and_takes_medians_per_input():
    import run

    tally = run.Tally()
    tally.ops = [(0, 1.0, True), (1, 2.0, True), (0, 3.0, True), (1, 10.0, False)]
    scales = [1.0, 1.0, 0.5, 1.0]
    assert tally.latencies(scales) == [1.0, 2.0, 1.5, math.inf]
    assert tally.pass_s(scales) == pytest.approx(1.25 + 6.0)
    assert tally.pass_s() == pytest.approx(2.0 + 6.0)


def test_log_ingest_checks_catch_corruption(tmp_path):
    wl = workloads.LogIngest(SEED, tmp_path)
    # pytest records warnings itself, so format them as the default hook would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = wl.run(0)
    stderr = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    assert wl.check(0, code, stderr) == []
    assert wl.check(0, 1, stderr)  # nonzero exit
    lines = stderr.splitlines(keepends=True)
    dropped = "".join(l for l in lines if "bad timestamp" not in l)
    assert any("rejected rows" in p for p in wl.check(0, 0, dropped))
    kept = "".join(l for l in lines if "excluding user" not in l)
    assert any("min-count" in p for p in wl.check(0, 0, kept))
    # the generator's record of the log disagrees with what was written
    wl.logs[0]["slot_counts"][next(iter(wl.logs[0]["slot_counts"]))][0] += 1
    wl.verified.clear()
    assert any("profile of" in p or "messages of" in p for p in wl.check(0, 0, stderr))


def test_sim_checks_catch_corruption(tmp_path):
    wl = workloads.SimValidate(SEED, tmp_path)
    cfg, record = _ok(wl)
    pmf = record.analytic_pmf * 1.01
    assert wl.check(0, (cfg, dataclasses.replace(record, analytic_pmf=pmf)), "")
    report = dataclasses.replace(record.report, delayed_count=record.report.delayed_count + 1)
    assert wl.check(0, (cfg, dataclasses.replace(record, report=report)), "")


# -- tracing -------------------------------------------------------------------


def test_self_times_on_hand_built_tree():
    # op [0, 10] has children a [1, 4] and d [3, 5] (overlapping) and b [5, 9];
    # b has child c [6, 7].  Children of op cover [1, 9], so op's self time is 2.
    spans = [
        (0, 1, 0, "x.a", 1.0, 4.0),
        (0, 2, 0, "x.d", 3.0, 5.0),
        (0, 4, 3, "x.c", 6.0, 7.0),
        (0, 3, 0, "x.b", 5.0, 9.0),
        (0, 0, -1, "op", 0.0, 10.0),
        (1, 6, 5, "x.a", 2.0, 2.5),  # a second operation; names add up
        (1, 5, -1, "op", 2.0, 3.0),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"op": 2.0 + 0.5, "x.a": 3.0 + 0.5, "x.d": 2.0, "x.b": 3.0, "x.c": 1.0})


def test_tracer_wraps_every_binding_and_restores_them():
    import deferral
    from deferral import buffer, strategies

    original = buffer.capacity
    tracer = tracing.Tracer()
    scheme = profiles.SlotScheme.day(24)
    rng = np.random.default_rng(0)
    users = {f"u{k}": profiles.ActivityProfile(scheme, rng.dirichlet(np.ones(24)), count=100.0) for k in range(2)}
    with tracer.recording(0):
        # looked up under an alias in population, and re-exported by the package
        assert population.buffer_capacity is not original
        assert deferral.capacity is population.buffer_capacity is buffer.capacity
        population.study(users, [0.1, 0.2])
    assert population.buffer_capacity is original and strategies.solve_optimal.__module__ == "deferral.strategies"
    assert not hasattr(strategies.solve_optimal, "__wrapped__")
    calls = {name: n for name, n in tracer.calls.items()}
    assert calls["population.study"] == 1
    assert calls["buffer.capacity"] == 2 and calls["buffer.steady_state"] == 2
    assert calls["strategies.solve_optimal"] == 2 * (2 + 1)
    by_id = {s[1]: s for s in tracer.spans}
    study = next(s for s in tracer.spans if s[3] == "population.study")
    assert by_id[study[2]][3] == tracing.OP_SPAN
    steady = next(s for s in tracer.spans if s[3] == "buffer.steady_state")
    assert by_id[steady[2]][3] == "population.study"


def test_observed_counts():
    rec = profiles.TimestampRecord
    observed = [
        ("population.read_records", (), {}, ([rec("a", 1.0), rec("a", 2.0), rec("b", 3.0)], [(4, "bad")])),
        ("population.ingest", (), {}, {"a": None}),
    ]
    counts = tracing.observed_counts(observed)
    assert counts["population.rows_read"] == 4
    assert counts["population.rows_rejected"] == 1
    assert counts["population.users_skipped"] == 1

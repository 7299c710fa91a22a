"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every random sweep is seeded, so the suite is deterministic.
"""

import time

import numpy as np
import pytest
from scipy import stats

from deferral.buffer import (
    capacity,
    delay_distribution,
    find_starting_index,
    steady_state,
)
from deferral.cli import main as cli_main
from deferral.population import study, synth_population
from deferral.profiles import (
    ActivityProfile,
    SlotScheme,
    critical_rate,
    entropy,
    kl_divergence,
    uniform_pmf,
)
from deferral.simulate import SimConfig, empirical_vs_analytic
from deferral.strategies import (
    DeferralStrategy,
    solve_grid_oracle,
    solve_numerical_oracle,
    solve_optimal,
)
from test_buffer import ref_steady_state

SEED = 20260810
LOG2_24 = float(np.log2(24))


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_profiles(n, how_many, rng):
    scheme = SlotScheme(n, 86400.0)
    return [
        ActivityProfile(scheme, rng.dirichlet(np.ones(n)), count=2000.0)
        for _ in range(how_many)
    ]


@pytest.fixture(scope="module")
def profile_pool():
    rng = np.random.default_rng(SEED)
    return {n: make_profiles(n, 100, rng) for n in (3, 8, 24)}


@pytest.fixture(scope="module")
def mc_sweep():
    """Shared Monte Carlo sweep for criteria 6, 7 and 9: (runs, elapsed)."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    runs = []
    for pi, prof in enumerate(make_profiles(24, 20, rng)):
        for phi in (0.05, 0.1, 0.2):
            strat = solve_optimal(prof, phi)
            cfg = SimConfig(
                profile=prof,
                strategy=strat,
                alpha=10_000,
                cycles=200,
                warmup_cycles=2,
                discipline="uniform_random",
                seed=SEED + 100 * pi + int(phi * 1000),
            )
            runs.append((cfg, empirical_vs_analytic(cfg)))
    return runs, time.perf_counter() - start


def pooled_chi_square_pvalue(hist, pmf):
    """Pearson test of the delay histogram against the analytic pmf."""
    hist = np.asarray(hist, dtype=float)
    expected = pmf / pmf.sum() * hist.sum()
    keep = expected > 0
    h, e = hist[keep], expected[keep]
    order = np.argsort(e)
    h, e = h[order], e[order]
    while len(e) > 1 and e[0] < 5.0:  # pool sparse bins
        e[1] += e[0]
        h[1] += h[0]
        e, h = e[1:], h[1:]
    if len(e) < 2:
        return 1.0
    chi2 = float(((h - e) ** 2 / e).sum())
    return float(stats.chi2.sf(chi2, df=len(e) - 1))


def test_criterion_1_entropy_identity():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    u = uniform_pmf(24)
    for _ in range(1000):
        t = rng.dirichlet(np.ones(24))
        worst = max(worst, abs(kl_divergence(t, u) + entropy(t) - LOG2_24))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"entropy identity on 1000 random PMFs, max |KL + H - log2(24)| = "
        f"{worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_oracle_equivalence(profile_pool):
    start = time.perf_counter()
    worst_gap = 0.0
    grid_viol = 0.0
    grid_gap = 0.0
    cases = 0
    for n in (3, 8, 24):
        for prof in profile_pool[n]:
            pc = critical_rate(prof)
            for phi in np.linspace(0.1, 1.05, 10) * pc:
                h_opt = solve_optimal(prof, phi).entropy_bits()
                h_orc = solve_numerical_oracle(prof, phi).entropy_bits()
                worst_gap = max(worst_gap, abs(h_opt - h_orc))
                if n == 3:
                    _, h_grid = solve_grid_oracle(prof, phi, step=1e-3)
                    grid_viol = max(grid_viol, h_grid - h_opt)
                    grid_gap = max(grid_gap, h_opt - h_grid)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and grid_viol <= 1e-12 and grid_gap <= 0.05 and elapsed < 120
    report(
        2,
        ok,
        f"oracle equivalence over {cases} cases: max |H_opt - H_oracle| = "
        f"{worst_gap:.2e} (tol 1e-6); n=3 grid search never beats the closed "
        f"form (max excess {grid_viol:.2e}) and trails it by at most "
        f"{grid_gap:.2e} bits (grid resolution); {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_critical_rate_saturation(profile_pool):
    start = time.perf_counter()
    worst_comp = 0.0
    worst_ent = 0.0
    for n in (3, 8, 24):
        target = float(np.log2(n))
        for prof in profile_pool[n]:
            strat = solve_optimal(prof, critical_rate(prof))
            t = strat.apparent()
            worst_comp = max(worst_comp, float(np.abs(t - 1.0 / n).max()))
            worst_ent = max(worst_ent, abs(strat.entropy_bits() - target))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_comp <= 1e-9 and worst_ent <= 1e-9 and elapsed < 10,
        f"saturation at the critical rate on 300 profiles: max component "
        f"deviation from uniform {worst_comp:.2e}, max entropy deviation "
        f"from log2(n) {worst_ent:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_4_orthogonality(profile_pool):
    worst = 0.0
    for n in (3, 8, 24):
        for prof in profile_pool[n]:
            pc = critical_rate(prof)
            for phi in np.linspace(0.0, 1.0, 8) * pc:
                strat = solve_optimal(prof, phi)
                worst = max(worst, float(np.minimum(strat.s, strat.r).max()))
    report(
        4,
        worst <= 1e-12,
        f"orthogonality of storing/forwarding supports over 2400 solved "
        f"strategies: max componentwise min(s, r) = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_5_lemma1_suite():
    rng = np.random.default_rng(SEED + 2)
    start = time.perf_counter()
    n = 24
    scheme = SlotScheme(n, 86400.0)
    worst_end = 0.0
    worst_prefix = 0.0
    mismatches = 0
    for _ in range(1000):
        q = rng.dirichlet(np.ones(n))
        prof = ActivityProfile(scheme, q, count=1000.0)
        phi = float(rng.uniform(0.01, 0.6))
        strat = DeferralStrategy(
            s=phi * q, r=phi * rng.dirichlet(np.ones(n)), phi=phi, q_ref=prof
        )
        start_idx = find_starting_index(strat)
        assert 1 <= start_idx <= n
        pattern = steady_state(strat, 1000.0)
        # the scalar reference re-runs the recurrence from every start and
        # raises unless each converges onto the pattern at the predicted offset
        ref = ref_steady_state(strat, 1000.0)
        mismatches += not (
            pattern.start_index == ref.start_index == start_idx
            and np.array_equal(pattern.b, ref.b)
        )
        worst_end = max(worst_end, abs(float(pattern.b[-1])))
        prefix = np.cumsum(pattern.s_prime - pattern.r_prime)
        worst_prefix = max(worst_prefix, -float(prefix.min()))
    elapsed = time.perf_counter() - start
    report(
        5,
        mismatches == 0 and worst_end == 0.0 and worst_prefix <= 1e-12 and elapsed < 10,
        f"starting index exists and all {n} cyclic recurrences converge for "
        f"1000 random feasible strategies ({mismatches} patterns differ from the "
        f"all-starts reference); pattern ends at 0 (max {worst_end:.1e}), "
        f"prefix sums >= -{worst_prefix:.1e}; {elapsed:.1f}s (< 10s)",
    )


def test_criterion_6_theorem_vs_monte_carlo(mc_sweep):
    runs, sweep_elapsed = mc_sweep
    start = time.perf_counter()
    worst_z = 0.0
    min_p = 1.0
    for _, rec in runs:
        se = rec.conditional_delay_se
        dev = abs(rec.report.mean_conditional_delay - rec.analytic_conditional_delay)
        worst_z = max(worst_z, dev / se if se > 0 else 0.0)
        min_p = min(
            min_p,
            pooled_chi_square_pvalue(rec.report.delay_histogram, rec.analytic_pmf),
        )
    # exact single-flow check: one store slot, one forward slot, delay 3
    prof = ActivityProfile(SlotScheme(4, 86400.0), uniform_pmf(4), count=1000.0)
    strat = DeferralStrategy(s=[0, 0.1, 0, 0], r=[0.1, 0, 0, 0], phi=0.1, q_ref=prof)
    dist = delay_distribution(steady_state(strat, 10_000.0))
    cfg = SimConfig(
        profile=prof, strategy=strat, alpha=10_000, cycles=100,
        warmup_cycles=2, seed=SEED,
    )
    rec = empirical_vs_analytic(cfg)
    fixture_ok = (
        abs(dist.pmf[2] - 0.1) <= 1e-12
        and dist.pmf.sum() == pytest.approx(0.1, abs=1e-12)
        and dist.expected_conditional == pytest.approx(3.0, abs=1e-12)
        and rec.report.mean_conditional_delay == 3.0
    )
    elapsed = sweep_elapsed + time.perf_counter() - start
    report(
        6,
        worst_z <= 3.0 and min_p >= 0.01 and fixture_ok and elapsed < 300,
        f"delay analysis vs Monte Carlo over {len(runs)} runs: worst "
        f"|z| = {worst_z:.2f} (<= 3 SE), min chi-square p = {min_p:.3f} "
        f"(>= 0.01); single-flow fixture exact (delay 3 slots, mass 0.1); "
        f"{elapsed:.1f}s incl. sweep (< 300s)",
    )


def test_criterion_7_capacity_vs_monte_carlo(mc_sweep):
    runs, _ = mc_sweep
    worst_rel = 0.0
    raw_in_band = 0
    for _, rec in runs:
        band = 3.0 * np.sqrt(rec.analytic_capacity)
        dev = abs(rec.empirical_pattern_peak - rec.analytic_capacity)
        worst_rel = max(worst_rel, dev / band if band > 0 else 0.0)
        raw_in_band += rec.peak_within_band
    report(
        7,
        worst_rel <= 1.0,
        f"capacity vs Monte Carlo over {len(runs)} runs: empirical "
        f"steady-pattern peak within 3*sqrt(C) of analytic C everywhere "
        f"(worst deviation {worst_rel:.2f} of the band); single-run extreme "
        f"peak additionally inside the band in {raw_in_band}/{len(runs)} runs",
    )


def test_criterion_8_curve_shape():
    rng = np.random.default_rng(SEED + 3)
    start = time.perf_counter()
    grid = np.linspace(0.0, 0.999, 100)
    worst_mono = 0.0
    worst_conc = 0.0
    worst_sat = 0.0
    for prof in make_profiles(24, 100, rng):
        pc = critical_rate(prof)
        vals = np.array([solve_optimal(prof, phi).entropy_bits() for phi in grid])
        worst_mono = max(worst_mono, -float(np.diff(vals).min()))
        mid_defect = (vals[:-2] + vals[2:]) / 2 - vals[1:-1]
        worst_conc = max(worst_conc, float(mid_defect.max()))
        sat = vals[grid >= pc]
        if sat.size:
            worst_sat = max(worst_sat, float(np.abs(sat - LOG2_24).max()))
    elapsed = time.perf_counter() - start
    report(
        8,
        worst_mono <= 1e-12 and worst_conc <= 1e-9 and worst_sat <= 1e-9 and elapsed < 30,
        f"curve shape on 100 profiles x 100-point grid: nondecreasing "
        f"(max drop {worst_mono:.1e}), midpoint-concave (max defect "
        f"{worst_conc:.1e}, tol 1e-9), saturates at log2(24) beyond the "
        f"critical rate (max dev {worst_sat:.1e}); {elapsed:.1f}s (< 30s)",
    )


def test_criterion_9_delay_mass_conservation(mc_sweep):
    runs, _ = mc_sweep
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    supports_ok = True
    checked = 0
    # every strategy analyzed in the Monte Carlo sweep
    for cfg, rec in runs:
        worst = max(worst, abs(float(rec.analytic_pmf.sum()) - cfg.strategy.phi))
        supports_ok &= bool((rec.analytic_pmf >= 0).all())
        checked += 1
    # plus a fresh sweep across alphabet sizes with known target rates
    for n in (3, 8, 24):
        scheme = SlotScheme(n, 86400.0)
        for _ in range(100):
            q = rng.dirichlet(np.ones(n))
            prof = ActivityProfile(scheme, q, count=1000.0)
            phi = float(rng.uniform(0.05, 1.0)) * critical_rate(prof)
            strat = solve_optimal(prof, phi)
            dist = delay_distribution(steady_state(strat, 1000.0))
            worst = max(worst, abs(float(dist.pmf.sum()) - strat.phi))
            supports_ok &= dist.pmf.shape[0] == n and bool((dist.pmf >= 0).all())
            checked += 1
    report(
        9,
        worst <= 1e-9 and supports_ok,
        f"delay mass conservation over {checked} analyzed strategies: max "
        f"|sum(pmf) - phi| = {worst:.2e} (tol 1e-9); support within 1..n",
    )


def test_criterion_10_traffic_smoothing():
    start = time.perf_counter()
    users = synth_population(144, seed=SEED)
    rates = [critical_rate(p) for p in users.values()]
    top = max(rates)
    grid = [0.05, 0.15, 0.3, min(0.999, top + 1e-6)]
    result = study(users, grid)
    variances = [float(result.aggregate_after[k].var()) for k in range(4)]
    strictly_decreasing = all(b < a for a, b in zip(variances, variances[1:]))
    final_dev = float(np.abs(result.aggregate_after[3] - 1 / 24).max())
    elapsed = time.perf_counter() - start
    report(
        10,
        strictly_decreasing and final_dev <= 1e-6 and elapsed < 60,
        f"traffic smoothing on a seeded 144-user population: slot variance "
        f"of p' strictly decreasing over phi grid {grid[:3] + ['max phi_crit']}"
        f" ({[f'{v:.2e}' for v in variances]}), p' uniform within "
        f"{final_dev:.1e} at phi >= max critical rate (tol 1e-6); "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    prof = ActivityProfile(SlotScheme(3, 86400.0), [0.5, 0.3, 0.2], count=600.0)
    prof_path = tmp_path / "profile.json"
    prof.save(prof_path)

    sim_outputs = []
    for name in ("sim_a.json", "sim_b.json"):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--profile", str(prof_path), "--phi", "0.1",
             "--alpha", "5000", "--cycles", "60", "--warmup", "2",
             "--discipline", "uniform", "--seed", str(SEED), "--out", str(out),
             "--compare"]
        )
        assert code == 0
        sim_outputs.append(out.read_bytes())

    study_dirs = [tmp_path / "study_a", tmp_path / "study_b"]
    for d in study_dirs:
        code = cli_main(
            ["population", "study", "--synth", "40", "--phi-grid", "0.05:0.6:5",
             "--seed", str(SEED), "--out-dir", str(d)]
        )
        assert code == 0
    tables = ["phicrit_hist.csv", "gain_percentiles.csv", "delay_pmf.csv",
              "capacity_pmf.csv", "aggregate_profiles.csv"]
    study_identical = all(
        (study_dirs[0] / t).read_bytes() == (study_dirs[1] / t).read_bytes()
        for t in tables
    )
    elapsed = time.perf_counter() - start
    report(
        11,
        sim_outputs[0] == sim_outputs[1] and study_identical and elapsed < 60,
        f"determinism: repeated `simulate --compare` runs byte-identical "
        f"({len(sim_outputs[0])} bytes) and repeated `population study` "
        f"tables byte-identical ({len(tables)} files); {elapsed:.1f}s (< 60s)",
    )

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferral import profiles, strategies
from deferral.profiles import (
    ActivityProfile, SlotScheme, critical_rate, entropy, entropy_rows, uniform_pmf,
)
from deferral.strategies import (
    MASS_ATOL,
    ZERO_ATOL,
    DeferralStrategy,
    _candidate_grid,
    feasibility_violation,
    privacy_deferral_curve,
    relative_privacy_gain,
    solve_grid_oracle,
    solve_numerical_oracle,
    solve_optimal,
    waterfill,
)


def profile(q, n_period=86400.0, count=100.0):
    q = np.asarray(q, dtype=float)
    return ActivityProfile(SlotScheme(q.size, n_period), q, count=count)


def random_profiles(n, how_many, seed):
    rng = np.random.default_rng(seed)
    scheme = SlotScheme(n, 86400.0)
    return [
        ActivityProfile(scheme, rng.dirichlet(np.ones(n)), count=100.0)
        for _ in range(how_many)
    ]


THREE = [0.5, 0.3, 0.2]


class TestDeferralStrategy:
    def test_accepts_feasible(self):
        prof = profile(THREE)
        strat = DeferralStrategy(s=[0.1, 0, 0], r=[0, 0, 0.1], phi=0.1, q_ref=prof)
        assert strat.phi == 0.1
        assert strat.requested_phi == 0.1
        assert not strat.clamped

    @pytest.mark.parametrize(
        "s, r, phi, fragment",
        [
            ([-0.1, 0.1, 0], [0, 0, 0], 0.0, "negative"),
            ([0.1, 0, 0], [0, 0, 0.2], 0.1, "differs from phi"),
            ([0.2, 0, 0], [0, 0, 0.2], 0.1, "differs from phi"),
            ([0, 0, 0.3], [0.3, 0, 0], 0.3, "exceeds q"),
        ],
    )
    def test_rejects_infeasible(self, s, r, phi, fragment):
        with pytest.raises(ValueError, match=fragment):
            DeferralStrategy(s=s, r=r, phi=phi, q_ref=profile(THREE))

    def test_snaps_dust_to_zero(self):
        prof = profile(THREE)
        strat = DeferralStrategy(
            s=[0.1, 1e-14, 0], r=[0, -1e-15, 0.1], phi=0.1, q_ref=prof
        )
        assert strat.s[1] == 0.0
        assert strat.r[1] == 0.0

    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError, match="non-finite"):
            DeferralStrategy(
                s=[float("nan"), 0, 0], r=[0, 0, 0], phi=0.0, q_ref=profile(THREE)
            )

    @pytest.mark.parametrize(
        "s, message",
        [
            (0.1, "q has shape (3,), s (), r (3,)"),
            ([[0.1, 0, 0]], "q has shape (3,), s (1, 3), r (3,)"),
            ([0.1, 0], "q has 3 slots, s 2, r 3"),
        ],
    )
    def test_rejects_a_misshapen_strategy_by_its_shapes(self, s, message):
        with pytest.raises(ValueError, match=re.escape(f"infeasible strategy: shape mismatch: {message}")):
            DeferralStrategy(s=s, r=[0, 0, 0.1], phi=0.1, q_ref=profile(THREE))

    def test_s_and_r_are_read_only_rows_of_one_array(self):
        strat = DeferralStrategy(s=[0.1, 0, 0], r=[0, 0, 0.1], phi=0.1, q_ref=profile(THREE))
        assert strat.s.base is strat.r.base is not None
        assert not (strat.s.flags.writeable or strat.r.flags.writeable)

    @pytest.mark.parametrize("layout", ["rows of one array", "two arrays"])
    def test_never_aliases_the_callers_arrays(self, layout):
        both = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.1]])
        s, r = both if layout == "rows of one array" else [row.copy() for row in both]
        strat = DeferralStrategy(s=s, r=r, phi=0.1, q_ref=profile(THREE))
        kept = [arr.copy() for arr in (strat.s, strat.r, strat.apparent())]
        s[:], r[:] = 0.3, 0.4
        assert s.flags.writeable and r.flags.writeable
        for got, want in zip((strat.s, strat.r, strat.apparent()), kept):
            assert_same_bits(got, want)
            assert not (np.shares_memory(got, s) or np.shares_memory(got, r))

    def test_solver_arrays_share_no_memory_with_the_memo(self):
        prof = random_profiles(24, 1, seed=12)[0]
        strat = solve_optimal(prof, 0.1)
        for memo in strategies._profile_prefix(prof):
            for arr in (strat.s, strat.r, strat.apparent()):
                assert not np.shares_memory(arr, memo)
        assert strat.s.base is strat.r.base is not None
        assert not (strat.s.flags.writeable or strat.r.flags.writeable)

    def test_clamping_is_recorded_as_given(self):
        # only a solver records a request and levels: a hand-built strategy
        # was asked for its own rate, and clamps nothing
        kwargs = dict(s=[0.1, 0, 0], r=[0, 0, 0.1], phi=0.1, q_ref=profile(THREE))
        assert list(inspect.signature(DeferralStrategy).parameters) == ["s", "r", "phi", "q_ref"]
        strat = DeferralStrategy(**kwargs)
        assert (strat.requested_phi, strat.clamped, strat.theta_hi, strat.theta_lo) == (0.1, False, None, None)
        for name, value in [("requested_phi", 0.4), ("theta_hi", 1e6), ("theta_lo", -5.0), ("clamped", True)]:
            with pytest.raises(TypeError, match=name):
                DeferralStrategy(**kwargs, **{name: value})

    def test_is_immutable(self):
        strat = solve_optimal(profile(THREE), 0.1)
        before = strat.to_dict()
        # every attribute, and a new one: a strategy has no instance dict
        for name in ["s", "r", "phi", "q_ref", "requested_phi", "clamped", "theta_hi", "theta_lo", "t"]:
            with pytest.raises(AttributeError):
                setattr(strat, name, 0.3)
            with pytest.raises(AttributeError):
                delattr(strat, name)
        assert strat.to_dict() == before

    def test_repr_names_every_attribute(self):
        strat = solve_optimal(profile(THREE), 0.4)
        assert repr(strat) == (
            f"DeferralStrategy(s={strat.s!r}, r={strat.r!r}, phi={strat.phi!r}, q_ref={strat.q_ref!r}, "
            f"requested_phi=0.4, clamped=True, theta_hi={strat.theta_hi!r}, theta_lo={strat.theta_lo!r})"
        )


class TestApparentProfile:
    def test_zero_strategy_is_identity(self):
        prof = profile(THREE)
        strat = solve_optimal(prof, 0.0)
        assert np.array_equal(strat.apparent(), prof.q)

    def test_componentwise_arithmetic(self):
        prof = profile(THREE)
        strat = DeferralStrategy(s=[0.1, 0, 0], r=[0, 0, 0.1], phi=0.1, q_ref=prof)
        assert np.allclose(strat.apparent(), [0.4, 0.3, 0.3])

    def test_mass_conserved(self):
        for prof in random_profiles(8, 20, seed=5):
            phi = 0.5 * critical_rate(prof)
            t = solve_optimal(prof, phi).apparent()
            assert t.sum() == pytest.approx(1.0, abs=1e-12)


class TestSolveOptimal:
    def test_phi_zero_is_noop(self):
        prof = profile(THREE)
        strat = solve_optimal(prof, 0.0)
        assert np.array_equal(strat.s, np.zeros(3))
        assert np.array_equal(strat.r, np.zeros(3))
        assert strat.entropy_bits() == pytest.approx(entropy(prof.q), abs=1e-12)

    def test_three_slot_fixture(self):
        strat = solve_optimal(profile(THREE), 0.1)
        assert np.allclose(strat.s, [0.1, 0, 0], atol=1e-12)
        assert np.allclose(strat.r, [0, 0, 0.1], atol=1e-12)
        assert np.allclose(strat.apparent(), [0.4, 0.3, 0.3], atol=1e-12)

    def test_uniform_at_critical_rate(self):
        prof = profile(THREE)
        strat = solve_optimal(prof, 1 / 6)
        assert np.allclose(strat.apparent(), 1 / 3, atol=1e-12)
        assert strat.entropy_bits() == pytest.approx(np.log2(3), abs=1e-12)

    def test_clamps_beyond_critical(self):
        prof = profile(THREE)
        strat = solve_optimal(prof, 0.9)
        assert strat.clamped
        assert strat.requested_phi == 0.9
        assert strat.phi == pytest.approx(1 / 6, abs=1e-12)
        assert np.allclose(strat.apparent(), 1 / 3, atol=1e-9)

    @pytest.mark.parametrize("phi", [-0.01, 1.0, 1.5, float("nan")])
    def test_rejects_bad_phi(self, phi):
        with pytest.raises(ValueError):
            solve_optimal(profile(THREE), phi)

    def test_orthogonal_supports(self):
        for prof in random_profiles(24, 25, seed=8):
            pc = critical_rate(prof)
            for phi in np.linspace(0.0, pc, 6):
                strat = solve_optimal(prof, phi)
                assert np.minimum(strat.s, strat.r).max() <= 1e-12

    def test_waterfilling_shape(self):
        for prof in random_profiles(24, 10, seed=21):
            phi = 0.7 * critical_rate(prof)
            strat = solve_optimal(prof, phi)
            t = strat.apparent()
            clipped = np.clip(prof.q, strat.theta_lo, strat.theta_hi)
            assert np.allclose(t, clipped, atol=1e-9)

    def test_mass_constraints(self):
        for prof in random_profiles(11, 10, seed=2):
            phi = 0.9 * critical_rate(prof)
            strat = solve_optimal(prof, phi)
            assert strat.s.sum() == pytest.approx(phi, abs=1e-9)
            assert strat.r.sum() == pytest.approx(phi, abs=1e-9)

    def test_profile_with_empty_slots(self):
        prof = profile([0.6, 0.4, 0.0, 0.0])
        strat = solve_optimal(prof, 0.2)
        assert strat.s[2] == 0.0 and strat.s[3] == 0.0
        assert strat.r[2] > 0 and strat.r[3] > 0
        t = strat.apparent()
        assert (t >= 0).all()

    def test_tied_components_share_equally(self):
        prof = profile([0.3, 0.3, 0.15, 0.15, 0.05, 0.05])
        for phi in (0.02, 0.1, 0.2, critical_rate(prof)):
            strat = solve_optimal(prof, phi)
            assert strat.s[0] == strat.s[1]
            assert strat.s[2] == strat.s[3]
            assert strat.r[4] == strat.r[5]
            gap = abs(
                strat.entropy_bits() - solve_numerical_oracle(prof, phi).entropy_bits()
            )
            assert gap <= 1e-6

    def test_near_uniform_profile(self):
        q = np.full(10, 0.1)
        q[0] += 1e-10
        q[1] -= 1e-10
        prof = profile(q, count=10)
        strat = solve_optimal(prof, critical_rate(prof))
        assert np.abs(strat.apparent() - 0.1).max() < 1e-12


class TestNumericalOracle:
    def test_phi_zero_exact(self):
        prof = profile(THREE)
        strat = solve_numerical_oracle(prof, 0.0)
        assert strat.entropy_bits() == pytest.approx(entropy(prof.q), abs=1e-15)

    def test_matches_closed_form(self):
        for prof in random_profiles(8, 5, seed=13):
            pc = critical_rate(prof)
            for phi in np.linspace(0.01, pc, 5):
                gap = abs(
                    solve_optimal(prof, phi).entropy_bits()
                    - solve_numerical_oracle(prof, phi).entropy_bits()
                )
                assert gap <= 1e-6

    def test_saturates_at_critical_rate(self):
        prof = profile(THREE)
        strat = solve_numerical_oracle(prof, critical_rate(prof))
        assert strat.entropy_bits() == pytest.approx(np.log2(3), abs=1e-7)

    @pytest.mark.parametrize("q, phi", [(THREE, 0.9), (THREE, 0.0), ([1 / 3] * 3, 0.3)])
    def test_records_the_request_as_the_closed_form_does(self, q, phi):
        # a clamped solve, and the early return at an effective rate of 0
        prof = profile(q)
        strat, closed = solve_numerical_oracle(prof, phi), solve_optimal(prof, phi)
        assert (strat.requested_phi, strat.phi, strat.clamped) == (phi, closed.phi, closed.clamped)
        assert (strat.theta_hi, strat.theta_lo) == (None, None)

    def test_output_is_feasible_and_orthogonal(self):
        prof = random_profiles(12, 1, seed=40)[0]
        strat = solve_numerical_oracle(prof, 0.05)
        assert feasibility_violation(prof.q, strat.s, strat.r, strat.phi) is None
        assert np.minimum(strat.s, strat.r).max() <= 1e-12

    def test_a_failed_start_does_not_hide_a_converged_one(self):
        # the first start stops off the feasible set 1e-10 bits above the
        # optimum; the second converges to it
        q = np.random.default_rng(21).dirichlet(np.full(24, 0.05))
        prof = ActivityProfile(SlotScheme.day(24), q, count=100.0)
        phi = 0.01 * critical_rate(prof)
        strat, closed = solve_numerical_oracle(prof, phi), solve_optimal(prof, phi)
        assert abs(strat.entropy_bits() - closed.entropy_bits()) <= 1e-6

    def test_raises_only_when_every_start_fails(self, monkeypatch):
        from scipy import optimize

        stops = []

        def failed(fun, x0, **kwargs):
            stops.append(f"stop {len(stops) + 1}")
            return optimize.OptimizeResult(x=x0, fun=-1.0, success=False, message=stops[-1])

        monkeypatch.setattr(optimize, "minimize", failed)
        message = "^oracle did not converge from any start: stop 1; stop 2; stop 3; stop 4$"
        with pytest.raises(RuntimeError, match=message):
            solve_numerical_oracle(profile(THREE), 0.1)
        assert len(stops) == 4


class TestGridOracle:
    def test_never_beats_closed_form(self):
        for prof in random_profiles(3, 10, seed=17):
            pc = critical_rate(prof)
            for phi in np.linspace(0.02, pc, 4):
                opt = solve_optimal(prof, phi).entropy_bits()
                _, grid_h = solve_grid_oracle(prof, phi)
                assert grid_h <= opt + 1e-12
                assert opt - grid_h <= 0.02  # grid resolution gap

    def test_rejects_large_alphabets(self):
        with pytest.raises(ValueError, match="n <= 4"):
            solve_grid_oracle(random_profiles(8, 1, seed=0)[0], 0.1)

    def test_refuses_a_grid_too_large_before_enumerating_it(self, monkeypatch):
        # n = 4 at the default step has C(1003, 3) points, gigabytes as arrays
        def enumerate_grid(*args):
            raise AssertionError("the grid was enumerated")

        monkeypatch.setattr(strategies, "_candidate_grid", enumerate_grid)
        with pytest.raises(ValueError) as info:
            solve_grid_oracle(random_profiles(4, 1, seed=0)[0], 0.1)
        assert str(info.value) == "grid oracle needs 167,668,501 points at step 0.001, over 10**7"


class TestPrivacyCurve:
    def test_uniform_profile_is_flat(self):
        prof = profile(uniform_pmf(8))
        pts = privacy_deferral_curve(prof, np.linspace(0, 0.5, 7))
        for pt in pts:
            assert pt.entropy_bits == pytest.approx(np.log2(8), abs=1e-12)
            assert pt.gain_pct == pytest.approx(0.0, abs=1e-9)

    def test_known_endpoints(self):
        prof = profile(THREE)
        pts = privacy_deferral_curve(prof, [0.0, 1 / 6])
        assert pts[0].entropy_bits == pytest.approx(1.4854752972273344, abs=1e-10)
        assert pts[1].entropy_bits == pytest.approx(np.log2(3), abs=1e-12)
        assert pts[1].gain_pct == pytest.approx(6.697, abs=1e-3)

    def test_monotone_and_concave(self):
        prof = random_profiles(24, 1, seed=31)[0]
        grid = np.linspace(0, 0.999, 100)
        vals = np.array([p.entropy_bits for p in privacy_deferral_curve(prof, grid)])
        assert (np.diff(vals) >= -1e-12).all()
        mid = vals[1:-1]
        assert (mid >= (vals[:-2] + vals[2:]) / 2 - 1e-9).all()

    def test_constant_beyond_critical(self):
        prof = profile(THREE)
        pts = privacy_deferral_curve(prof, [0.2, 0.4, 0.8])
        for pt in pts:
            assert pt.entropy_bits == pytest.approx(np.log2(3), abs=1e-12)

    def test_gain_undefined_for_zero_entropy(self):
        prof = profile([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero entropy"):
            relative_privacy_gain(prof, 1.0)


class TestSaturationProperty:
    def test_apparent_uniform_at_and_beyond_critical(self):
        for prof in random_profiles(24, 20, seed=77):
            pc = critical_rate(prof)
            for phi in (pc, min(0.999, pc * 1.3)):
                t = solve_optimal(prof, phi).apparent()
                assert np.abs(t - 1 / 24).max() < 1e-9


class TestValidateOnce:
    def test_one_feasibility_check_per_strategy(self, monkeypatch):
        calls = []
        check = strategies.feasibility_violation

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(strategies, "feasibility_violation", counted)
        strat = solve_optimal(random_profiles(24, 1, seed=3)[0], 0.2)
        strat.apparent()
        strat.entropy_bits()
        strat.to_dict()
        strat.entropy_bits()
        assert len(calls) == 1

    def test_one_entropy_per_rate_plus_one_per_profile(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(p):
                calls.append((name, np.shape(p)))
                return fn(p)
            return wrapper

        # entropy is itself one entropy_rows call, left uncounted
        for module in (profiles, strategies):
            monkeypatch.setattr(module, "entropy", counted("entropy", entropy))
        monkeypatch.setattr(strategies, "entropy_rows", counted("entropy_rows", entropy_rows))
        grid = np.linspace(0.05, 0.7, 14)
        privacy_deferral_curve(random_profiles(24, 1, seed=3)[0], grid)
        assert sorted(calls) == [("entropy", (24,)), ("entropy_rows", (grid.size, 24))]

    def test_apparent_is_cached_and_read_only(self):
        prof = random_profiles(24, 1, seed=4)[0]
        strat = solve_optimal(prof, 0.15)
        t = strat.apparent()
        assert t is strat.apparent()
        assert not t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.0
        assert np.array_equal(t, np.clip(prof.q - strat.s + strat.r, 0.0, None))
        assert strat.entropy_bits() == entropy(t)

    def test_apparent_clips_residue_within_tolerance(self):
        # s may exceed q by up to ZERO_ATOL, which leaves t slightly negative
        prof = profile(THREE)
        strat = DeferralStrategy(s=[0.5 + 5e-13, 0, 0], r=[0, 0.25, 0.25], phi=0.5, q_ref=prof)
        assert prof.q[0] - strat.s[0] < 0.0
        assert strat.apparent()[0] == 0.0


class TestCurveEdges:
    def test_one_slot_profile_has_no_gain(self):
        prof = profile([0.0, 1.0, 0.0, 0.0])
        message = "^relative privacy gain undefined: profile has zero entropy$"
        with pytest.raises(ValueError, match=message):
            privacy_deferral_curve(prof, np.linspace(0.05, 0.7, 14))

    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_invalid_rate_raises_before_any_solving(self, monkeypatch, bad):
        def unexpected(*args):
            raise AssertionError("solved before every rate was checked")

        monkeypatch.setattr(strategies, "_levels", unexpected)
        message = rf"^deferral rate must lie in \[0, 1\), got {bad!r}$"
        for prof in (profile(THREE), profile([0.0, 1.0, 0.0])):
            with pytest.raises(ValueError, match=message):
                privacy_deferral_curve(prof, [0.0, 0.1, 0.2, bad])

    def test_empty_grid(self):
        assert privacy_deferral_curve(profile(THREE), []) == []

    def test_gain_keeps_the_form_of_its_input(self):
        prof, base = profile(THREE), entropy(THREE)
        gain = relative_privacy_gain(prof, 1.5)
        assert type(gain) is float and gain == 100.0 * (1.5 - base) / base
        gains = relative_privacy_gain(prof, np.array([[1.5, 1.0]]))
        assert gains.shape == (1, 2) and gains[0, 0] == gain


# -- scalar reference ---------------------------------------------------------
# One-profile, one-rate scans that :func:`waterfill` is checked against.  The
# arithmetic is the same, so the levels must match bit for bit.


def ref_upper_level(q: np.ndarray, phi: float) -> float:
    """Level theta with sum(max(q - theta, 0)) == phi (cut from the top)."""
    v = np.sort(q)[::-1]
    csum = np.cumsum(v)
    k = np.arange(1, q.size + 1)
    theta = (csum - phi) / k
    below = np.concatenate([v[1:], [-np.inf]])
    valid = np.nonzero(theta >= below)[0]
    return float(theta[valid[0]])


def ref_lower_level(q: np.ndarray, phi: float) -> float:
    """Level theta with sum(max(theta - q, 0)) == phi (fill from the bottom)."""
    u = np.sort(q)
    csum = np.cumsum(u)
    k = np.arange(1, q.size + 1)
    theta = (phi + csum) / k
    above = np.concatenate([u[1:], [np.inf]])
    valid = np.nonzero(theta <= above)[0]
    return float(theta[valid[0]])


PROFILE_KINDS = ("one-slot", "two-slot", "uniform", "near-uniform", "tied", "dirichlet-0.05")


def drawn_profile(kind, n, rng):
    if kind == "one-slot":
        q = np.zeros(n)
        q[rng.integers(n)] = 1.0
    elif kind == "two-slot":
        q = np.zeros(n)
        q[rng.choice(n, size=2, replace=False)] = rng.dirichlet([1.0, 1.0])
    elif kind == "uniform":
        q = uniform_pmf(n)
    elif kind == "near-uniform":
        q = uniform_pmf(n) * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, n))
        q /= q.sum()
    elif kind == "tied":
        q = rng.dirichlet(np.ones(max(1, n // 3)))[rng.integers(max(1, n // 3), size=n)]
        q /= q.sum()
    else:
        q = rng.dirichlet(np.full(n, 0.05))
    return profile(q)


def rate_grid(prof, rng):
    """Zero, small, interior, exactly critical and beyond-critical rates."""
    pc = critical_rate(prof)
    return [0.0, min(1e-9, pc), float(rng.uniform(0.0, pc)), pc, min(0.999, pc + 0.1), 0.5]


def assert_matches_reference(profs, rng):
    grids = [rate_grid(prof, rng) for prof in profs]
    eff = np.array([np.minimum(g, critical_rate(p)) for p, g in zip(profs, grids)])
    theta_lo, theta_hi = waterfill(np.array([p.q for p in profs]), eff)
    assert theta_lo.shape == theta_hi.shape == eff.shape
    for u, prof in enumerate(profs):
        for k, phi in enumerate(eff[u]):
            assert theta_hi[u, k] == ref_upper_level(prof.q, phi)
            assert theta_lo[u, k] == ref_lower_level(prof.q, phi)
            assert np.signbit(theta_lo[u, k]) == np.signbit(ref_lower_level(prof.q, phi))
        if entropy(prof.q) == 0.0:
            continue  # no gain is defined; TestCurveEdges covers the error
        assert curve_outcome(prof, grids[u]) == loop_outcome(prof, grids[u])


def curve_outcome(prof, grid):
    try:
        return [(pt.phi, pt.entropy_bits, pt.gain_pct) for pt in privacy_deferral_curve(prof, grid)]
    except ValueError as exc:
        return str(exc)


def loop_outcome(prof, grid):
    """The curve point by point, as ``solve_optimal`` gives it."""
    try:
        bits = [solve_optimal(prof, phi).entropy_bits() for phi in grid]
    except ValueError as exc:
        return str(exc)
    return [(phi, h, relative_privacy_gain(prof, h)) for phi, h in zip(grid, bits)]


class TestWaterfillKernel:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(PROFILE_KINDS), min_size=1, max_size=4),
        n=st.sampled_from([2, 3, 24, 168]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_reference(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference([drawn_profile(kind, n, rng) for kind in kinds], rng)

    def test_minute_resolution(self):
        rng = np.random.default_rng(1440)
        assert_matches_reference([drawn_profile(kind, 1440, rng) for kind in PROFILE_KINDS], rng)

    @pytest.mark.parametrize("n", [2, 3, 9, 24, 129, 168, 1440])
    def test_accepts_each_rows_critical_rate(self, n):
        # the rate check sums contiguous rows, as a profile does: in another
        # memory order the sum of a row may move by an ulp
        profs = random_profiles(n, 6, seed=n)
        Q, crit = np.array([p.q for p in profs]), [[critical_rate(p)] for p in profs]
        for order in ("C", "F"):
            theta_lo, theta_hi = waterfill(np.asarray(Q, order=order), crit)
            assert np.allclose(theta_lo, 1 / n) and np.allclose(theta_hi, 1 / n)

    def test_solver_levels_are_the_kernel_levels(self):
        prof = random_profiles(24, 1, seed=9)[0]
        strat = solve_optimal(prof, 0.3)
        theta_lo, theta_hi = waterfill(prof.q[None, :], [[strat.phi]])
        assert (strat.theta_lo, strat.theta_hi) == (theta_lo[0, 0], theta_hi[0, 0])


def ref_waterfill(Q, phi):
    """The kernel in one stage, as it ran before profiles kept their prefix:
    sort, prefix sums, scan and gather on every call."""
    u = np.sort(np.asarray(Q, dtype=float), axis=1)
    phi = np.asarray(phi, dtype=float)
    U, n = u.shape
    v = np.concatenate([u[:, ::-1], -u])
    k = np.arange(1, n + 1)
    theta = (np.cumsum(v, axis=1)[:, None, :] - np.concatenate([phi, phi])[:, :, None]) / k
    valid = np.empty(theta.shape, dtype=bool)
    valid[:, :, -1] = True
    np.greater_equal(theta[:, :, :-1], v[:, None, 1:], out=valid[:, :, :-1])
    first = valid.argmax(axis=2)
    level = theta.reshape(-1, n)[np.arange(first.size), first.ravel()].reshape(first.shape)
    return -level[U:], level[:U]


ROW_KINDS = ("dirichlet-0.02", "dirichlet-1", "rounded")
TINY_RATES = [1e-14, 1e-13, 1e-12, 1e-11]


def drawn_rows(kinds, n, rng):
    """Profiles of each kind; a rounded row has ties wherever two slots round alike."""
    rows = []
    for kind in kinds:
        q = rng.dirichlet(np.full(n, 0.02 if kind == "dirichlet-0.02" else 1.0))
        if kind == "rounded":
            q = np.round(q, 2)
        rows.append(profile(q / q.sum() if q.sum() > 0 else uniform_pmf(n)))
    return rows


def assert_two_stages_match_one(profs, rng):
    """Batched levels, and every solver's levels, ``s``, ``r`` and apparent
    profile, are those of the one-stage scan, bit for bit: ``[s; r]`` is
    ``max([q; -q] - [theta_hi; -theta_lo], 0)``, snapped."""
    fractions = rng.uniform(0.0, 1.5, size=4).tolist() + [0.0, 1.0]
    phi = np.array([
        np.minimum(TINY_RATES + [f * critical_rate(p) for f in fractions], critical_rate(p))
        for p in profs
    ])
    Q = np.array([p.q for p in profs])
    want_lo, want_hi = ref_waterfill(Q, phi)
    for got, want in zip(waterfill(Q, phi), (want_lo, want_hi)):
        assert_same_bits(got, want)
    for u, prof in enumerate(profs):
        for k, rate in enumerate(phi[u]):
            strat = solve_optimal(prof, rate)
            got = np.array([strat.theta_lo, strat.theta_hi])
            assert_same_bits(got, np.array([want_lo[u, k], want_hi[u, k]]))
            level = np.array([[want_hi[u, k]], [-want_lo[u, k]]])
            s, r = np.maximum(np.array([prof.q, -prof.q]) - level, 0.0)
            want = ref_strategy(prof, s, r, rate)
            for got, expected in zip((strat.s, strat.r, strat.apparent()), want):
                assert_same_bits(got, expected)


class TestTwoStageKernel:
    """``waterfill`` in two stages, the per-profile prefix and the per-rate
    levels, against the one-stage scan it replaced."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
        n=st.sampled_from([2, 3, 24, 168]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_levels_are_the_one_stage_levels(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        assert_two_stages_match_one(drawn_rows(kinds, n, rng), rng)

    def test_minute_resolution(self):
        rng = np.random.default_rng(1440)
        assert_two_stages_match_one(drawn_rows(ROW_KINDS, 1440, rng), rng)

    def test_prefix_is_built_once_per_profile(self, monkeypatch):
        calls = []
        build = strategies._prefix

        def counted(Q):
            calls.append(np.shape(Q))
            return build(Q)

        monkeypatch.setattr(strategies, "_prefix", counted)
        prof = random_profiles(24, 1, seed=5)[0]
        grid = np.linspace(0.05, 0.7, 14)
        for phi in [*grid, critical_rate(prof)]:
            solve_optimal(prof, float(phi))
        privacy_deferral_curve(prof, grid)
        assert calls == [(1, 24)]

    def test_solving_leaves_the_profile_as_it_was(self):
        profs = [random_profiles(24, 1, seed=6)[0], profile(THREE)]
        seen = [(repr(prof), prof.to_dict(), dict(vars(prof))) for prof in profs]
        for prof in profs:
            solve_optimal(prof, 0.2)
            privacy_deferral_curve(prof, [0.1, 0.3])
            solve_numerical_oracle(prof, 0.05)
        solve_grid_oracle(profs[1], 0.1, step=1e-2)
        assert [(repr(prof), prof.to_dict(), vars(prof)) for prof in profs] == seen

    def test_replaced_profile_solves_as_its_new_q(self):
        prof, other = random_profiles(24, 2, seed=7)
        solve_optimal(prof, 0.2)
        moved = dataclasses.replace(prof, q=other.q)
        assert solve_optimal(moved, 0.2).to_dict() == solve_optimal(other, 0.2).to_dict()

    def test_at_most_one_prefix_is_kept(self):
        for prof in random_profiles(24, 3, seed=8):
            solve_optimal(prof, 0.2)
            privacy_deferral_curve(prof, [0.1])
            assert strategies._profile_prefix.cache_info().currsize <= 1


def test_grid_oracle_block_equals_full_scan():
    # reference: the scan over every grid point that the block scan replaces
    rng = np.random.default_rng(11)
    grid, ent, _ = _candidate_grid(3, 100)
    for _ in range(60):
        prof = profile(rng.dirichlet(np.full(3, rng.choice([0.3, 1.0, 5.0]))))
        phi = min(0.999, critical_rate(prof) * rng.choice([0.0, 0.05, rng.uniform(), 1.0, 1.5]))
        feasible = 0.5 * np.abs(grid - prof.q).sum(axis=1) <= min(phi, critical_rate(prof)) + 1e-12
        if not feasible.any():
            with pytest.raises(RuntimeError, match="grid too coarse"):
                solve_grid_oracle(prof, phi, step=1e-2)
            continue
        idx = int(np.argmax(np.where(feasible, ent, -np.inf)))
        t, h = solve_grid_oracle(prof, phi, step=1e-2)
        assert np.array_equal(t, grid[idx]) and h == ent[idx]


# -- scalar reference: the ordered checks -------------------------------------
# Validation as it ran before the fast accept, every check on every call.  The
# fast accept must give the same verdict and the same message on any input.


def ref_feasibility_violation(q, s, r, phi):
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    if s.shape != q.shape or r.shape != q.shape:
        if q.ndim == s.ndim == r.ndim == 1:
            return f"shape mismatch: q has {q.shape[0]} slots, s {s.shape[0]}, r {r.shape[0]}"
        return f"shape mismatch: q has shape {q.shape}, s {s.shape}, r {r.shape}"
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(r))):
        return "s or r has non-finite entries"
    if np.any(s < 0):
        i = int(np.argmin(s))
        return f"s[{i}] = {float(s[i])!r} is negative"
    if np.any(r < 0):
        i = int(np.argmin(r))
        return f"r[{i}] = {float(r[i])!r} is negative"
    if not abs(s.sum() - phi) <= MASS_ATOL:  # NaN fails
        return f"sum(s) = {float(s.sum())!r} differs from phi = {float(phi)!r}"
    if not abs(r.sum() - phi) <= MASS_ATOL:
        return f"sum(r) = {float(r.sum())!r} differs from phi = {float(phi)!r}"
    over = s - q
    if not np.all(over <= ZERO_ATOL):
        i = int(np.argmax(over))
        return f"s[{i}] = {float(s[i])!r} exceeds q[{i}] = {float(q[i])!r}"
    t = q - s + r
    if np.any(t < -ZERO_ATOL):
        i = int(np.argmin(t))
        return f"apparent profile is negative at slot {i}: {t[i]!r}"
    return None


def ref_validate_pmf(p, name="input"):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"not a PMF: {name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"not a PMF: {name} has non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"not a PMF: {name} has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > profiles.PMF_ATOL:
        raise ValueError(f"not a PMF: {name} sums to {total!r}")
    return p


def ref_snap(values):
    out = np.asarray(values, dtype=float).copy()
    out[np.abs(out) <= ZERO_ATOL] = 0.0
    return out


def ref_strategy(prof, s, r, phi):
    """``(s, r, t)`` as the constructor built them, or its error text."""
    s, r = ref_snap(s), ref_snap(r)
    violation = ref_feasibility_violation(prof.q, s, r, phi)
    if violation:
        return f"infeasible strategy: {violation}"
    return s, r, np.clip(prof.q - s + r, 0.0, None)


def outcome(f, *args, **kwargs):
    """``(result or error text, warning texts)`` of a call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = f(*args, **kwargs)
        except ValueError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros included


def assert_same_pmf_outcome(p):
    (got, got_warned), (want, warned) = outcome(profiles._validate_pmf, p), outcome(ref_validate_pmf, p)
    assert got_warned == warned
    if isinstance(want, str):
        assert got == want
        assert outcome(entropy, p) == (want, warned)
    else:
        assert_same_bits(got, want)


PERTURBATIONS = (
    "none", "nan", "+inf", "-inf", "negative", "mass-within", "mass-beyond",
    "over-q-within", "over-q-beyond", "negative-q", "overflow",
)


def perturbed(kind, x, rng, atol):
    """A copy of ``x`` with one fault of ``kind``; ``atol`` scales the mass
    faults, just inside or just outside their tolerance."""
    x = np.array(x, dtype=float)
    i, j = rng.integers(x.size), rng.integers(x.size)
    if kind == "nan":
        x[i] = np.nan
    elif kind in ("+inf", "-inf"):
        x[i] = float(kind)
    elif kind == "negative":
        x[i] = -rng.choice([0.5 * ZERO_ATOL, 1e-9, 0.3])
    elif kind.startswith("mass"):
        scale = rng.choice([0.4, 0.9]) if kind.endswith("within") else rng.choice([1.5, 3.0])
        x[i] += rng.choice([-1.0, 1.0]) * scale * atol
    elif kind == "overflow":
        x[i] = x[j] = 1e308  # finite entries, infinite sum when i != j
    return x


class TestFastAcceptMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(PROFILE_KINDS + ("dirichlet-1",)),
        n=st.sampled_from([2, 3, 24, 168, 1440]),
        fault=st.sampled_from(PERTURBATIONS),
        target=st.sampled_from(["s", "r"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_verdict_message_and_bits(self, kind, n, fault, target, seed):
        rng = np.random.default_rng(seed)
        prof = drawn_profile(kind, n, rng) if kind != "dirichlet-1" else random_profiles(n, 1, seed)[0]
        q = prof.q
        phi = float(rng.choice(rate_grid(prof, rng)))
        strat = solve_optimal(prof, phi)
        eff = strat.phi

        # solver output: the fast path, the snap and the clip change no bit
        theta_lo, theta_hi = waterfill(q[None, :], [[eff]])
        s = np.clip(q - theta_hi[0, 0], 0.0, None)
        r = np.clip(theta_lo[0, 0] - q, 0.0, None)
        want_s, want_r, want_t = ref_strategy(prof, s, r, eff)
        for got, want in ((strat.s, want_s), (strat.r, want_r), (strat.apparent(), want_t)):
            assert_same_bits(got, want)
            assert not got.flags.writeable
        assert feasibility_violation(q, s, r, eff) == ref_feasibility_violation(q, s, r, eff)
        assert outcome(strat.entropy_bits) == outcome(entropy, want_t)  # both may refuse t

        # one fault in s, r or q: the same message from the ordered checks
        if fault in ("over-q-within", "over-q-beyond"):
            s = s.copy()
            i = rng.integers(n)
            s[i] = q[i] + rng.choice([0.4, 0.9] if fault.endswith("within") else [1.5, 1e3]) * ZERO_ATOL
        elif fault == "negative-q":
            q = perturbed("negative", q, rng, MASS_ATOL)
        elif target == "s":
            s = perturbed(fault, s, rng, MASS_ATOL)
        else:
            r = perturbed(fault, r, rng, MASS_ATOL)
        args = (q, s, r, eff)
        assert outcome(feasibility_violation, *args) == outcome(ref_feasibility_violation, *args)
        (got, got_warned), (want, warned) = (
            outcome(DeferralStrategy, s=s, r=r, phi=eff, q_ref=prof),
            outcome(ref_strategy, prof, s, r, eff),
        )
        assert got_warned == warned
        if isinstance(want, str):
            assert got == want
        else:
            for arr, ref in zip((got.s, got.r, got.apparent()), want):
                assert_same_bits(arr, ref)
                assert not arr.flags.writeable

        # the apparent profile, and the same fault in it, as a PMF
        t = want_t if fault == "negative-q" else perturbed(fault, want_t, rng, profiles.PMF_ATOL)
        assert_same_pmf_outcome(t)

    @pytest.mark.parametrize(
        "q, s, r, phi",
        [
            ([], [], [], 0.0),
            ([], [], [], 0.1),
            (0.5, 0.1, 0.1, 0.1),
            ([0.5, 0.5], [0.1, 0.0], [0.0, 0.1], float("nan")),
            ([0.5, 0.5], [0.1, 0.0], [0.0, 0.1], float("inf")),
            ([0.5, float("nan")], [0.1, 0.0], [0.0, 0.1], 0.1),
            ([0.5, float("inf")], [0.1, 0.0], [0.0, 0.1], 0.1),
            ([0.5, -float("inf")], [0.1, 0.0], [0.0, 0.1], 0.1),
            ([0.5, 0.5], [float("inf"), -float("inf")], [0.0, 0.1], 0.1),
            ([[0.5, 0.5]], [[0.1, 0.0]], [[0.0, 0.1]], 0.1),
            ([[0.5, 0.5]], [[0.1, 0.0]], [[0.0, 0.2]], 0.1),
            (THREE, 0.1, [0.0, 0.0, 0.1], 0.1),
            (THREE, [[0.1, 0.0, 0.0]], [0.0, 0.0, 0.1], 0.1),
            (THREE, [0.1, 0.0], [0.0, 0.0, 0.1], 0.1),
        ],
    )
    def test_edge_inputs(self, q, s, r, phi):
        args = (q, s, r, phi)
        assert outcome(feasibility_violation, *args) == outcome(ref_feasibility_violation, *args)

    @pytest.mark.parametrize(
        "p",
        [[], [[0.5, 0.5]], [1.0], [0.5, 0.5], [-0.0, 1.0], [1.0, -0.0], [2.0, -1.0],
         [1e308, 1e308], [1e308, 1e308, -np.inf], [np.nan, 1.0], [np.inf, 0.0],
         [0.5, 0.5 + 0.9e-9], [0.5, 0.5 + 1.1e-9]],
    )
    def test_edge_pmfs(self, p):
        assert_same_pmf_outcome(p)


class TestNaNIsInfeasible:
    """A NaN rate or a NaN entry of ``q`` is named, not accepted."""

    def test_nan_rate(self):
        zeros = np.zeros(3)
        assert feasibility_violation(THREE, zeros, zeros, float("nan")) == (
            "sum(s) = 0.0 differs from phi = nan"
        )
        with pytest.raises(ValueError, match=r"^deferral rate must lie in \[0, 1\), got nan$"):
            DeferralStrategy(s=zeros, r=zeros, phi=float("nan"), q_ref=profile(THREE))

    def test_nan_in_q(self):
        zeros = np.zeros(3)
        assert feasibility_violation([0.5, float("nan"), 0.5], zeros, zeros, 0.0) == (
            "s[1] = 0.0 exceeds q[1] = nan"
        )


def _ulps_around(x, k=3):
    """``x`` and the ``k`` floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


TINY = 5e-324  # the smallest subnormal
HUGE = float(np.finfo(float).max)
EDGE_VALUES = (
    [0.0, -0.0, TINY, -TINY, 1e308, -1e308, HUGE, -HUGE]
    + _ulps_around(ZERO_ATOL) + _ulps_around(-ZERO_ATOL)
)
SLOT_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
FORWARDED = st.one_of(
    st.sampled_from([v for v in EDGE_VALUES if v >= 0]),
    st.floats(min_value=0.0, allow_infinity=False),
)


class TestImpliedApparentCheck:
    """The fast accept has no ``(q - s + r).min() >= -ZERO_ATOL`` reduction:
    for finite entries, ``r.min() >= 0`` and ``(s - q).max() <= ZERO_ATOL``
    imply it.  ``q - s`` is exactly ``-(s - q)``, and adding ``r >= 0``
    rounds to no less."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(slots=st.lists(st.tuples(SLOT_VALUES, SLOT_VALUES, FORWARDED), min_size=1, max_size=8))
    @example(slots=[(0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)])
    @example(slots=[(TINY, 0.0, 0.0), (0.0, TINY, 0.0), (-TINY, 0.0, TINY), (0.0, -TINY, TINY)])
    @example(slots=[(0.0, v, 0.0) for v in _ulps_around(ZERO_ATOL)])
    @example(slots=[(0.0, v, TINY) for v in _ulps_around(ZERO_ATOL)])
    @example(slots=[(-v, 0.0, 0.0) for v in _ulps_around(ZERO_ATOL)])
    @example(slots=[(1.0, 1.0 + v, 0.0) for v in _ulps_around(ZERO_ATOL)])
    @example(slots=[(0.0, v, 0.0) for v in _ulps_around(-ZERO_ATOL)])
    @example(slots=[(1e308, 1e308, 0.0), (-1e308, 1e308, 1e308), (1e308, -1e308, HUGE)])
    @example(slots=[(HUGE, -HUGE, 0.0), (-HUGE, HUGE, HUGE), (-HUGE, -HUGE, TINY)])
    def test_apparent_bound_follows(self, slots):
        a, b, r = (np.array(col) for col in zip(*slots))
        with np.errstate(all="ignore"):  # b - a may overflow
            swap = b - a > ZERO_ATOL  # order each pair so that s - q <= ZERO_ATOL
            q, s = np.where(swap, b, a), np.where(swap, a, b)
            assert r.min() >= 0 and (s - q).max() <= ZERO_ATOL
            assert (q - s + r).min() >= -ZERO_ATOL

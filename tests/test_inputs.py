"""The input contract: every public scalar parameter refuses a bad value with
a ``ValueError`` that names the parameter."""

import json
import math

import numpy as np
import pytest

from deferral import (
    ActivityProfile,
    DeferralStrategy,
    SimConfig,
    SlotScheme,
    TimestampRecord,
    entropy,
    entropy_rows,
    ingest,
    kl_divergence,
    privacy_deferral_curve,
    relative_privacy_gain,
    solve_grid_oracle,
    solve_optimal,
    steady_state,
    study,
    synth_population,
    total_variation,
    uniform_pmf,
    waterfill,
)
from deferral.cli import main
from deferral.population import nearest_rank_percentile

NAN, INF = math.nan, math.inf
SCHEME = SlotScheme(4, 100.0)
PROFILE = ActivityProfile(SCHEME, [0.1, 0.2, 0.3, 0.4], count=10.0)
STRATEGY = solve_optimal(PROFILE, 0.1)


def simulation(**kwargs):
    return SimConfig(**{"profile": PROFILE, "strategy": STRATEGY, "alpha": 10, "cycles": 10, **kwargs})


def strategy(phi):
    return DeferralStrategy(s=[0.1, 0, 0, 0], r=[0, 0, 0, 0.1], phi=phi, q_ref=PROFILE)


#: (call with the value, parameter as its messages name it, bad values), and
#: a label naming the callable: of the rows that check parameters of one name,
#: every row but one carries a label, so that no two cases share an id (which
#: pytest would number, renaming cases as rows are added).  No bad value
#: allocates: a log path that does not exist is never opened, and an alpha of
#: 10**9 is refused before any draw.
PARAMETERS = [
    (uniform_pmf, "n", [True, 0, -1, 2.5, NAN, INF, "2"]),
    (lambda v: SlotScheme(v, 100.0), "slot count", [True, 1, -3, 2.5, NAN, INF, "4"]),
    (lambda v: SlotScheme(4, v), "period", [True, 0, -1.0, NAN, INF, -INF, "100"]),
    (SCHEME.slot_of, "timestamp", [NAN, INF, -INF, [0.0, NAN], True, "60", ["60"], None], "slot_of "),
    (lambda v: TimestampRecord("u", v), "timestamp", [True, -1.0, NAN, INF, "60"]),
    (lambda v: ActivityProfile(SCHEME, PROFILE.q, count=v), "message count", [True, -1, NAN, INF, "3"]),
    (lambda v: ingest("absent.csv", tz_offset=v), "tz_offset", [True, NAN, INF, -INF, "3600"]),
    (lambda v: ingest("absent.csv", min_count=v), "min_count", [True, -5, 2.5, NAN, INF, "1"]),
    (synth_population, "n_users", [True, 0, -1, 2.5, NAN, INF, "3"]),
    (lambda v: synth_population(2, concentration=v), "concentration", [True, 0, -1.0, NAN, INF, "1", 1e308]),
    (lambda v: synth_population(2, mean_messages=v), "mean_messages", [True, 0, -1.0, NAN, INF, "9", 1e19]),
    (lambda v: synth_population(2, seed=v), "seed", [True, -1, 1.5, NAN, INF, "0"]),
    (lambda v: nearest_rank_percentile([1, 2], v), "percentile pct", [True, -5, 150, NAN, INF, "50", 1e300]),
    (lambda v: nearest_rank_percentile(v, 50), "values", [5.0, True, None, ["a", "b"], [True, False], [], np.empty((0, 3))]),
    (lambda v: solve_optimal(PROFILE, v), "deferral rate", [True, -0.1, 1.0, NAN, INF, "0.1", 1e300]),
    (strategy, "deferral rate", [True, -0.1, 1.0, NAN, INF, "0.1"], "DeferralStrategy "),
    (lambda v: study({"u": PROFILE}, v), "phi_grid", [0.1, None, True, np.array(0.1)]),
    (lambda v: privacy_deferral_curve(PROFILE, v), "phis", [0.1, None, True, np.array(0.1)]),
    (lambda v: relative_privacy_gain(PROFILE, v), "entropy_bits", [True, NAN, INF, -INF, "1.5", None, [1.0, NAN]]),
    (lambda v: steady_state(STRATEGY, v), "alpha", [True, 0, -1.0, NAN, INF, -INF, "10", 10**400]),
    (lambda v: simulation(alpha=v), "alpha", [True, 0, -1, 10.0, NAN, INF, "10", 10**9], "SimConfig "),
    (lambda v: simulation(cycles=v), "cycles", [True, 0, -1, 2.5, NAN, INF, "10"]),
    (lambda v: simulation(warmup_cycles=v), "warmup_cycles", [True, -1, 10, 1.5, NAN, "2"]),
    (lambda v: simulation(seed=v), "seed", [True, -1, 1.0, NAN, INF, "0"], "SimConfig "),
    (lambda v: simulation(alpha=v, cycles=4, warmup_cycles=1, discipline="fifo"), "alpha * (cycles - warmup_cycles)",
     [4 * 10**18, 2**63]),
    (lambda v: simulation(alpha=10**9 - 1, cycles=v, warmup_cycles=0), "alpha * (cycles - warmup_cycles)",
     [10**10], "SimConfig "),
    (lambda v: simulation(cycles=v, warmup_cycles=0), "cycles - warmup_cycles", [10**7 + 1], "SimConfig "),
    (lambda v: solve_grid_oracle(PROFILE, 0.1, step=v), "step", [True, 0, -1e-3, 0.6, NAN, INF, "0.01", 1e300]),
    (lambda v: waterfill(v, [[0.1]]), "Q",
     [[0.7, 0.3], 0.5, np.empty((0, 0)), np.ones((1, 2, 2)), [["a", "b"]], [["0.5", "0.5"]], [[True, False]]]),
    (entropy_rows, "P", [[0.5, 0.5], [["0.5", "0.5"]], [[True, False]], [[0.5, None]]]),
    # [0.7, 0.3] has critical rate 0.19999999999999998: 0.2 is past it
    (lambda v: waterfill([[0.7, 0.3]], v), "phi",
     [[[0.5]], [[0.2]], [[-0.1]], [[NAN]], [[INF]], [[True]], "0.1", [0.1], [[0.1], [0.1]], 0.1]),
]
IDS = [f"{''.join(label)}{name}={bad!r}" for _, name, values, *label in PARAMETERS for bad in values]
assert len(set(IDS)) == len(IDS), sorted({i for i in IDS if IDS.count(i) > 1})


@pytest.mark.parametrize(
    "call, name, bad",
    [(call, name, bad) for call, name, values, *_ in PARAMETERS for bad in values],
    ids=IDS,
)
def test_bad_value_refused_by_name(call, name, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} "), str(info.value)


@pytest.mark.parametrize(
    "Q, message",
    [
        ([[0.5, 0.5], [2.0, -1.0]], "not a PMF: Q[1] has negative entries"),
        ([[NAN, 1.0], [2.0, -1.0]], "not a PMF: Q[0] has non-finite entries"),
        ([[0.5, 0.5], [0.5, 0.4]], "not a PMF: Q[1] sums to 0.9"),
        (np.empty((2, 0)), "not a PMF: Q[0] must be a nonempty 1-d vector"),
    ],
)
def test_waterfill_names_the_first_row_that_is_no_pmf(Q, message):
    with pytest.raises(ValueError) as info:
        waterfill(Q, np.zeros((len(Q), 1)))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ActivityProfile(SlotScheme(2, 100.0), ["0.5", "0.5"]), "input must hold numbers, got dtype <U3"),
        (lambda: ActivityProfile(SlotScheme(2, 100.0), [True, False]), "input must hold numbers, got dtype bool"),
        (lambda: entropy(["0.5", "0.5"]), "input must hold numbers, got dtype <U3"),
        (lambda: entropy([0.5, None, 0.5]), "input must hold numbers, got dtype object"),
        (lambda: kl_divergence(["0.5", "0.5"], [0.5, 0.5]), "t must hold numbers, got dtype <U3"),
        (lambda: kl_divergence([0.5, 0.5], [True, False]), "p must hold numbers, got dtype bool"),
        (lambda: total_variation([0.5, 0.5], ["0.5", "0.5"]), "q must hold numbers, got dtype <U3"),
    ],
)
def test_pmf_of_non_numbers_refused_by_name(call, message):
    # a float cast would take numeric strings and bools as PMF entries
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"not a PMF: {message}"


@pytest.mark.parametrize(
    "source, message",
    [
        (["--synth", "3", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["--input", "absent.csv", "--min-count", "-5"], "min_count must be a non-negative integer, got -5"),
    ],
)
def test_cli_refuses_by_name(tmp_path, capsys, source, message):
    out = tmp_path / "out"
    assert main(["population", "study", *source, "--phi-grid", "0.1:0.5:3", "--out-dir", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ValueError"}
    assert not out.exists()

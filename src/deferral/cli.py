"""Command-line surface.

Subcommands mirror the library: ``profile build`` turns a timestamp log
into a profile JSON, ``strategy solve`` computes an optimal deferral
strategy, ``curve`` tabulates the privacy-deferral trade-off, ``buffer
analyze`` reports capacity and delay, ``simulate`` runs the Monte Carlo
simulator, and ``population study`` writes the population tables.

Successful runs exit 0; failures print a machine-readable JSON object on
stderr and exit nonzero.  All outputs are deterministic functions of the
inputs and seeds.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from .buffer import analyze_buffer
from .population import ingest, study, synth_population
from .profiles import ActivityProfile, SlotScheme, _write_json, _write_table
from .simulate import SimConfig, empirical_vs_analytic, run_simulation
from .strategies import (
    _check_rates,
    privacy_deferral_curve,
    solve_numerical_oracle,
    solve_optimal,
)

_PERIODS = {"day": SlotScheme.day, "week": SlotScheme.week}


def _scheme(args) -> SlotScheme:
    return _PERIODS[args.period](args.slots)


def _parse_phi_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, steps = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise ValueError(f"bad phi grid {spec!r}; expected start:stop:steps") from exc
    if grid.size == 0:
        raise ValueError(f"bad phi grid {spec!r}: no points")
    _check_rates("phi_grid", grid)
    return grid


def _cmd_profile_build(args) -> int:
    scheme = _scheme(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            users = ingest(args.input, format=args.format, scheme=scheme, tz_offset=args.tz_offset)
        finally:  # the row warnings come before any error
            for warning in caught:
                print(json.dumps({"warning": str(warning.message)}), file=sys.stderr)
    if len(users) > 1:
        raise ValueError(f"heterogeneous input: records carry {len(users)} distinct user ids")
    (profile,) = users.values()
    profile.save(args.out)
    return 0


def _cmd_strategy_solve(args) -> int:
    profile = ActivityProfile.load(args.profile)
    solver = solve_numerical_oracle if args.oracle else solve_optimal
    strat = solver(profile, args.phi)
    payload = strat.to_dict()
    payload["method"] = "numerical-oracle" if args.oracle else "water-filling"
    _write_json(args.out, payload)
    return 0


def _cmd_curve(args) -> int:
    profile = ActivityProfile.load(args.profile)
    points = privacy_deferral_curve(profile, _parse_phi_grid(args.phi_grid))
    rows = ([pt.phi, pt.entropy_bits, pt.gain_pct] for pt in points)
    _write_table(args.out, ["phi", "entropy_bits", "gain_pct"], rows)
    return 0


def _cmd_buffer_analyze(args) -> int:
    profile = ActivityProfile.load(args.profile)
    strat = solve_optimal(profile, args.phi)
    pattern, cap, dist = analyze_buffer(strat, alpha=args.alpha)
    payload = pattern.to_dict()
    payload["requested_phi"] = strat.requested_phi
    payload["clamped"] = strat.clamped
    payload["capacity_messages"] = cap
    payload["delay"] = dist.to_dict()
    _write_json(args.out, payload)
    return 0


def _cmd_simulate(args) -> int:
    profile = ActivityProfile.load(args.profile)
    strat = solve_optimal(profile, args.phi)
    discipline = {"uniform": "uniform_random", "fifo": "fifo", "lifo": "lifo"}[
        args.discipline
    ]
    cfg = SimConfig(
        profile=profile,
        strategy=strat,
        alpha=args.alpha,
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        discipline=discipline,
        seed=args.seed,
    )
    if args.compare:
        payload = empirical_vs_analytic(cfg).to_dict()
    else:
        payload = run_simulation(cfg).to_dict()
    _write_json(args.out, payload)
    return 0


def _cmd_population_study(args) -> int:
    scheme = _scheme(args)
    phi_grid = _parse_phi_grid(args.phi_grid)  # refused before a long ingest
    if args.synth is not None:
        users = synth_population(
            args.synth,
            scheme=scheme,
            concentration=args.concentration,
            mean_messages=args.mean_messages,
            seed=args.seed,
        )
    else:
        users = ingest(
            args.input,
            format=args.format,
            scheme=scheme,
            min_count=args.min_count,
            tz_offset=args.tz_offset,
        )
    result = study(users, phi_grid)
    result.write_csvs(args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferral",
        description="Privacy-preserving message deferral: strategies, buffers, simulations.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    # The options of a timestamp log and of its slots, shared by both readers.
    log_options = argparse.ArgumentParser(add_help=False)
    log_options.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    log_options.add_argument("--slots", type=int, default=24)
    log_options.add_argument("--period", choices=list(_PERIODS), default="day")
    log_options.add_argument(
        "--tz-offset", type=float, default=0.0,
        help="seconds added to every timestamp (shift UTC to local time)",
    )
    # The output file of every command but the study, and the profile that four of them read.
    out_option = argparse.ArgumentParser(add_help=False)
    out_option.add_argument("--out", required=True)
    profile_options = argparse.ArgumentParser(add_help=False, parents=[out_option])
    profile_options.add_argument("--profile", required=True)

    p_profile = top.add_parser("profile", help="activity profile tools")
    profile_sub = p_profile.add_subparsers(dest="subcommand", required=True)
    p_build = profile_sub.add_parser(
        "build", parents=[log_options, out_option], help="build a profile from a timestamp log"
    )
    p_build.add_argument("--input", required=True)
    p_build.set_defaults(func=_cmd_profile_build)

    p_strategy = top.add_parser("strategy", help="deferral strategy tools")
    strategy_sub = p_strategy.add_subparsers(dest="subcommand", required=True)
    p_solve = strategy_sub.add_parser(
        "solve", parents=[profile_options], help="solve for the optimal strategy"
    )
    p_solve.add_argument("--phi", type=float, required=True)
    p_solve.add_argument(
        "--oracle",
        action="store_true",
        help="solve with the generic numerical oracle instead of the closed form",
    )
    p_solve.set_defaults(func=_cmd_strategy_solve)

    p_curve = top.add_parser(
        "curve", parents=[profile_options], help="tabulate the privacy-deferral curve"
    )
    p_curve.add_argument("--phi-grid", required=True, metavar="A:B:STEPS")
    p_curve.set_defaults(func=_cmd_curve)

    p_buffer = top.add_parser("buffer", help="buffer analysis tools")
    buffer_sub = p_buffer.add_subparsers(dest="subcommand", required=True)
    p_analyze = buffer_sub.add_parser(
        "analyze", parents=[profile_options], help="steady-state capacity and delay"
    )
    p_analyze.add_argument("--phi", type=float, required=True)
    p_analyze.add_argument("--alpha", type=float, required=True)
    p_analyze.set_defaults(func=_cmd_buffer_analyze)

    p_sim = top.add_parser(
        "simulate", parents=[profile_options], help="run the Monte Carlo simulator"
    )
    p_sim.add_argument("--phi", type=float, required=True)
    p_sim.add_argument("--alpha", type=int, required=True)
    p_sim.add_argument("--cycles", type=int, required=True)
    p_sim.add_argument("--warmup", type=int, default=2)
    p_sim.add_argument("--discipline", choices=["uniform", "fifo", "lifo"], default="uniform")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--compare",
        action="store_true",
        help="also compare against the closed-form delay and capacity",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_pop = top.add_parser("population", help="population experiment tools")
    pop_sub = p_pop.add_subparsers(dest="subcommand", required=True)
    p_study = pop_sub.add_parser("study", parents=[log_options], help="run the population study")
    source = p_study.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="timestamp log with many users")
    source.add_argument("--synth", type=int, metavar="N", help="synthesize N users")
    p_study.add_argument("--phi-grid", required=True, metavar="A:B:STEPS")
    p_study.add_argument("--out-dir", required=True)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--concentration", type=float, default=1.0)
    p_study.add_argument("--mean-messages", type=float, default=1879.42)
    p_study.add_argument("--min-count", type=int, default=1)
    p_study.set_defaults(func=_cmd_population_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(
            json.dumps({"error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1

"""Benchmark of the deferral library: one workload per invocation.

    python3 bench/run.py --workload cohort-day --seed 0 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Runs from the root of a checkout and imports ``deferral`` from its ``src``
directory.  With ``--trace 0`` it makes whole passes over the workload's
input pool, operations back to back, until ``--seconds`` have passed, and
reports the end-to-end metrics that ``BENCHMARK.json`` lists, scaled to the
reference host's speed (see ``HostSpeed``); with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
Every output is checked; the last line of standard output is one JSON
object, and the exit code is nonzero when a check failed or an operation
raised an error that is not a known defect.
``--workload all`` runs each workload in a fresh process.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed per run for ``setup_s``, spread evenly over the
#: run so that their median covers the whole of it (after one untimed
#: warm-up import that also leaves compiled bytecode behind, as an installed
#: package has).
SETUP_REPEATS = 7
SETUP_PROBE = (
    "import os, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import deferral.cli\n"
    "dt = time.perf_counter() - t\n"
    "if os.path.dirname(os.path.dirname(deferral.cli.__file__)) != sys.argv[1]:\n"
    "    sys.exit('deferral imported from ' + deferral.cli.__file__)\n"
    "print(repr(dt))\n"
)

#: Untimed operations before measuring, so that lazy set-up has finished.
WARMUP_OPS = 1

#: Wall time of ``reference_work`` on the reference host, which fixes the
#: scale of every reported timing: near the fast end of its medians on a
#: shared 2-vCPU Intel Xeon virtual machine (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 1.2e-3

#: Time spent on ``reference_work`` after each operation, as a share of the
#: operation's own time (at least one call after every operation).
REFERENCE_SHARE = 0.2

#: Self time expected to dominate the traced run of each workload: a layer,
#: or functions that together should outweigh every other layer.
PREDICTED = {
    "cohort-day": ("strategies",),
    "profile-week": ("buffer",),
    "log-ingest": ("population.read_records", "population.ingest"),
    "sim-validate": ("simulate.run_simulation",),
}


def reference_work() -> float:
    """A fixed mix of the work the library does: small numpy arrays, Python
    arithmetic and calls, and parsing a CSV field.  It never changes and
    never calls the library, so its time measures the host's speed alone."""
    import numpy as np  # after main() has set the BLAS thread counts

    a = np.linspace(0.0, 1.0, 96)
    acc = 0.0
    for i in range(60):
        b = np.sort((a * (i % 7 + 1)) % 1.0)
        acc += float(np.cumsum(b)[-1]) + float(np.abs(b - b.mean()).sum())
        user, stamp = f"user{i:03d},{1_700_000_000 + 37 * i}".split(",")
        acc += float(stamp) * 1e-9 + len(user)
        acc += sum(x * 0.5 for x in range(40))
    return acc


class HostSpeed:
    """How fast the shared host runs around each operation, from ``reference_work``.

    A shared host's speed changes by tens of percent within seconds, with
    other load on the same physical machine: far more than a change to the
    program worth detecting.  After every operation (and
    once before the first) the benchmark times a block of ``reference_work``.
    An operation's wall time is scaled by ``REFERENCE_S`` over the median
    of the two blocks before it and the two after it, which reads it as it
    would take at the reference host's speed.  A change to the program moves
    its scaled times in proportion; the host's changes move the program and
    the reference work alike, and cancel.
    """

    def __init__(self):
        self.blocks: list[list[float]] = []

    def track(self, op_s: float = 0.0) -> None:
        """Time ``reference_work`` for about ``REFERENCE_SHARE`` of ``op_s``."""
        block = []
        while not block or sum(block) < REFERENCE_SHARE * op_s:
            start = time.perf_counter()
            reference_work()
            block.append(time.perf_counter() - start)
        self.blocks.append(block)

    def scale(self, j: int) -> float:
        """Factor that turns the wall time of operation ``j`` (timed between
        blocks ``j`` and ``j + 1``) into reference time."""
        window = [t for block in self.blocks[max(0, j - 1): j + 3] for t in block]
        return REFERENCE_S / statistics.median(window)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value covering ``pct`` percent."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


class Tally:
    """Operations attempted, their times, work done, failures and problems.

    An operation that raised or failed a check has infinite latency, and an
    input that failed once does no work.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops: list[tuple[int, float, bool]] = []  # (input, wall time, succeeded)
        self.input_work: dict[int, Counter] = {}  # input -> work; None once it failed
        self.errors = Counter()
        self.problems = []

    def add(self, wl, i, elapsed, out, error, stderr):
        k = i % wl.pool
        self.attempted += 1
        if error:
            problems = [] if wl.known_error(i, error) else [f"raised {error}"]
        else:
            problems = wl.check(i, out, stderr)
        ok = not (error or problems)
        self.ops.append((k, elapsed, ok))
        if ok:
            self.input_work.setdefault(k, wl.work(i))
        else:
            self.failed += 1
            self.input_work[k] = None
            if error:
                self.errors[error] += 1
            self.problems += [f"op {i} (input {k}): {p}" for p in problems]

    def merge(self, other: "Tally") -> None:
        """Add another tally's operations, failures and problems to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.problems += other.problems

    def latencies(self, scales=None) -> list[float]:
        """Every operation's time, each times its scale; infinite if it failed."""
        scales = scales or [1.0] * len(self.ops)
        return [t * s if ok else math.inf for (_, t, ok), s in zip(self.ops, scales)]

    def pass_s(self, scales=None) -> float:
        """One pass over the pool, every input at the median of its scaled times."""
        scales = scales or [1.0] * len(self.ops)
        by_input: dict[int, list[float]] = {}
        for (k, t, _), s in zip(self.ops, scales):
            by_input.setdefault(k, []).append(t * s)
        return sum(statistics.median(times) for times in by_input.values())

    def pass_work(self) -> Counter:
        """Work of one pass over the pool; failed inputs do none."""
        done = Counter()
        for work in self.input_work.values():
            done += work or Counter()
        return done


def run_op(wl, i, tracer=None):
    """One operation with the library's warnings captured from stderr.

    ``catch_warnings`` restores the filters unchanged on exit; entering it
    also resets the once-per-location registries, so every operation emits
    its warnings in full, as a fresh CLI process would.
    """
    stderr = io.StringIO()
    error = out = None
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(i)
            else:
                with tracer.recording(i):
                    out = wl.run(i)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, out, error, stderr.getvalue()


def setup_probe() -> float:
    """Wall time of ``import deferral.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def warm_up(wl) -> list[str]:
    """Run the first operations untimed; returns their check problems."""
    warm = Tally()
    for i in range(WARMUP_OPS):
        warm.add(wl, i, *run_op(wl, i))
    return warm.problems


def end_to_end(wl, args) -> tuple[Tally, dict, list[str]]:
    """Whole passes over the pool until ``--seconds`` have passed, with the
    host's speed tracked around every operation and the set-up probes spread
    over the run; every timing is scaled to the reference host's speed."""
    tally = Tally()
    tally.problems = warm_up(wl)
    setup_probe()  # untimed
    speed = HostSpeed()
    setup = []  # (wall time, the operation it followed)
    i = WARMUP_OPS
    start = time.perf_counter()
    speed.track()
    while i == WARMUP_OPS or time.perf_counter() - start < args.seconds:
        for _ in range(wl.pool):
            elapsed, out, error, stderr = run_op(wl, i)
            speed.track(elapsed)
            tally.add(wl, i, elapsed, out, error, stderr)
            i += 1
            due = SETUP_REPEATS * (time.perf_counter() - start) / args.seconds
            while len(setup) < min(SETUP_REPEATS, due):
                setup.append((setup_probe(), len(tally.ops) - 1))
    while len(setup) < SETUP_REPEATS:
        setup.append((setup_probe(), len(tally.ops) - 1))

    scales = [speed.scale(j) for j in range(len(tally.ops))]
    pass_s, wall_pass_s, work = tally.pass_s(scales), tally.pass_s(), tally.pass_work()
    latencies, wall = sorted(tally.latencies(scales)), sorted(tally.latencies())
    p90 = percentile(latencies, 90)
    lines = [
        f"{tally.attempted} operations in {tally.attempted // wl.pool} passes over {wl.pool} inputs, "
        f"{sum(1 for x in latencies if x > p90)} beyond p90",
        f"host speed: scale to the reference host median {statistics.median(scales)!r}, "
        f"range {min(scales)!r} to {max(scales)!r}",
    ]
    lines += [f"{unit}_per_s {count / pass_s!r} 1/s (wall: {count / wall_pass_s!r})" for unit, count in work.items()]
    lines.append(f"latency wall p50 {1e3 * percentile(wall, 50)!r} ms p90 {1e3 * percentile(wall, 90)!r} ms")
    lines.append(f"setup probes {' '.join(f'{t:.4f}' for t, _ in setup)} s (wall)")
    metrics = {
        "users_per_s": work["users"] / pass_s,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t * scales[j] for t, j in setup),
    }
    return tally, metrics, lines


def traced(wl, args) -> tuple[Tally, dict, list[str]]:
    """Untraced and traced passes over the pool in turn, until ``--seconds``
    have passed (at least one pair)."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced_ops = Tally(), Tally()
    plain.problems = warm_up(wl)
    passes = []
    i = WARMUP_OPS
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        for _ in range(wl.pool):
            plain.add(wl, i, *run_op(wl, i))
            i += 1
        first_span, counts = len(tracer.spans), Counter()
        for _ in range(wl.pool):
            result = run_op(wl, i, tracer)
            counts += tracing.observed_counts(tracer.observed)
            tracer.observed.clear()
            traced_ops.add(wl, i, *result)
            i += 1
        spans = tracer.spans[first_span:]
        counts.update(f"{name}.calls" for _, _, _, name, _, _ in spans)
        passes.append((counts, tracing.self_times(spans)))

    # Counts repeat exactly from pass to pass; self times are medians over passes.
    metrics = dict(passes[0][0])
    self_s = {
        name: statistics.median(times.get(name, 0.0) for _, times in passes)
        for name in set().union(*(times for _, times in passes))
    }
    metrics.update((f"{name}.self_s", t) for name, t in self_s.items())
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
    plain_s, traced_s = plain.pass_s(), traced_ops.pass_s()
    metrics["tracing_overhead_frac"] = traced_s / plain_s - 1.0
    lines = [f"{len(passes)} untraced and {len(passes)} traced passes over {wl.pool} inputs; "
             f"a pass at median times takes {plain_s!r} s untraced, {traced_s!r} s traced"]
    lines += attribution(wl.name, self_s)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": wl.name, "seed": args.seed, "machine": machine(), "shape": wl.shape})
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    plain.merge(traced_ops)
    return plain, metrics, lines


def attribution(workload: str, self_s: dict) -> list[str]:
    """Does the predicted group of functions own the largest self time?"""
    import tracing

    group = PREDICTED[workload]

    def in_group(name):
        return any(name == g or name.startswith(g + ".") for g in group)

    total = sum(self_s.values())
    mine = sum(t for name, t in self_s.items() if in_group(name))
    others = {layer: 0.0 for layer in (*tracing.LAYERS, tracing.OP_SPAN)}
    for name, t in self_s.items():
        if not in_group(name):
            others[name.split(".")[0]] += t
    rival, rival_t = max(others.items(), key=lambda kv: kv[1])
    verdict = "holds" if mine > rival_t else "does NOT hold"
    shares = ", ".join(f"{k} {v / total:.3f}" for k, v in sorted(others.items(), key=lambda kv: -kv[1]) if v)
    return [
        f"attribution {workload}: {'+'.join(group)} {mine / total:.3f} of traced op time, "
        f"next {rival} {rival_t / total:.3f}: prediction {verdict}",
        f"self-time shares outside the prediction: {shares}",
    ]


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_all(args, spec) -> int:
    """Each workload in its own fresh process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", name["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name['name']}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # Single-threaded BLAS and OpenMP, set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "deferral" / "__init__.py").is_file():
        print(f"error: no deferral package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, spec)

    import workloads  # imports numpy and deferral, after the settings above

    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(names)} or 'all'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"machine {json.dumps(machine())}")
        print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
              f"shape {json.dumps(wl.shape)}")
        if args.trace:
            tally, metrics, lines = traced(wl, args)
        else:
            tally, metrics, lines = end_to_end(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(line)
    for error, count in tally.errors.most_common():
        print(f"raised {count}x {error}")
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"fail_frac {tally.failed / tally.attempted!r} ({tally.failed}/{tally.attempted} operations)")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"metric {m['name']} {result[m['name']]['value']!r} {m['unit']}")
    correct = not tally.problems and tally.failed < tally.attempted
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

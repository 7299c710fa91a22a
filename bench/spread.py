"""Run the benchmark over seeds 0..runs-1 and report each metric's spread.

    python3 bench/spread.py --runs 10
    python3 bench/spread.py --runs 5 --workloads log-ingest

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartiles
(``statistics.quantiles`` with n=4) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is marked, since two medians of such runs may then differ by more
than the bound, and the exit code is then 1.  Runs are sequential, one
fresh process each, untraced, at ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed) for seed in range(args.runs)]
        print(f"{workload}: attempted {[r['attempted'] for r in runs]} failed {[r['failed'] for r in runs]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = ""
            if spread > bound / 3:
                mark = "  <-- above bound/3"
                steady = False
            print(f"  {name:16s} median {median:12.6g} {runs[0]['metrics'][name]['unit']:4s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {bound}{mark}")
            print(f"  {'':16s} values {' '.join(f'{v:.4g}' for v in values)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite the golden CLI outputs kept in this directory.

Run ``python tests/golden/regen.py`` from the repository root; it uses this
checkout's ``src/``.  Each output is a file that ``python -m deferral``
writes for one entry of ``COMMANDS`` or ``STUDIES``, from the checked-in
inputs ``INPUTS``:

- ``profile.json``, a 24-slot Dirichlet(1) profile (critical rate 0.3445),
  for ``strategy solve``, ``curve``, ``buffer analyze`` and the seeded
  ``simulate`` runs;
- ``log.csv``, a timestamp log of epoch and ISO-8601 times with each kind
  of malformed row the ``log-ingest`` benchmark writes, a non-ASCII user
  id, the ids ``u1`` and ``u10``, a user below ``--min-count`` and one seen
  only on refused rows; every kept user is active in at least 2 slots;
- ``user.csv``, a one-user log for ``profile build``.

A command's JSON stderr lines, if it prints any, are kept as
``<stem>.stderr`` with this directory's path removed from them.  The logs
hold only timestamp forms that every supported Python parses alike.
``tests/test_golden.py`` reruns the lists and compares the bytes, so a change
that moves any output byte fails tier-1; regenerate only on purpose, and
list every moved file in CHANGES.md.
"""

import contextlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = ("regen.py", "profile.json", "log.csv", "user.csv")
PROFILE, LOG, USER = (str(HERE / name) for name in INPUTS[1:])

# alpha = 10,000 at 87% of the critical rate: partial releases drawn by the
# scalar chain and by multivariate_hypergeometric, and a drain every cycle,
# which the chain takes without drawing
_SIM = ["simulate", "--profile", PROFILE, "--phi", "0.3", "--alpha", "10000",
        "--cycles", "30", "--seed", "7"]

#: output file name -> the ``deferral`` arguments that write it, ``--out`` aside
COMMANDS = {
    "simulate_uniform_compare.json": [*_SIM, "--discipline", "uniform", "--compare"],
    "simulate_fifo.json": [*_SIM, "--discipline", "fifo"],
    "simulate_lifo.json": [*_SIM, "--discipline", "lifo"],
    "profile_build.json": ["profile", "build", "--input", USER],
    "strategy_solve.json": ["strategy", "solve", "--profile", PROFILE, "--phi", "0.2"],
    # past the critical rate: clamped to it
    "strategy_solve_clamped.json": ["strategy", "solve", "--profile", PROFILE, "--phi", "0.5"],
    "curve.csv": ["curve", "--profile", PROFILE, "--phi-grid", "0:0.4:9"],
    "buffer_analyze.json": ["buffer", "analyze", "--profile", PROFILE, "--phi", "0.3",
                            "--alpha", "10000"],
}

#: output directory -> the ``deferral`` arguments that write its tables,
#: ``--out-dir`` aside
STUDIES = {
    "study_log": ["population", "study", "--input", LOG, "--min-count", "3",
                  "--phi-grid", "0.1:0.6:6"],
    "study_synth_day": ["population", "study", "--synth", "40", "--phi-grid", "0.05:0.7:14",
                        "--seed", "5"],
    "study_synth_week": ["population", "study", "--synth", "30", "--slots", "168",
                         "--period", "week", "--concentration", "0.1",
                         "--phi-grid", "0.1:0.7:4", "--seed", "9"],
}
#: the tables ``population study`` writes into its ``--out-dir``
STUDY_TABLES = ("phicrit_hist.csv", "gain_percentiles.csv", "delay_pmf.csv",
                "capacity_pmf.csv", "aggregate_profiles.csv")


def write(out_dir, main) -> None:
    """Run every command through the CLI entry point ``main`` into ``out_dir``."""
    out_dir = Path(out_dir)
    runs = [(name, [*args, "--out", str(out_dir / name)], False)
            for name, args in COMMANDS.items()]
    runs += [(name, [*args, "--out-dir", str(out_dir / name)], True)
             for name, args in STUDIES.items()]
    here = json.dumps(f"{HERE}{os.sep}")[1:-1]  # as it appears inside a JSON string
    for name, args, study in runs:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            if study:  # its row warnings and exclusions are not among its outputs
                warnings.filterwarnings("ignore", message=re.escape(f"{LOG}:"))
                warnings.filterwarnings("ignore", message="excluding user ")
            code = main(args)
        if code:
            raise SystemExit(f"{name}: deferral exited with {code}")
        if stderr.getvalue():
            text = stderr.getvalue().replace(here, "")
            (out_dir / name).with_suffix(".stderr").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from deferral.cli import main

    write(HERE, main)

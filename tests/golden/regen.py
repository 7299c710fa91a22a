"""Rewrite the golden seeded ``simulate`` outputs kept in this directory.

Run ``python tests/golden/regen.py`` from the repository root; it uses this
checkout's ``src/``.  Each output is the file that ``python -m deferral``
writes for one entry of ``COMMANDS``, all on the checked-in 24-slot
Dirichlet(1) profile ``profile.json`` (critical rate 0.3445).
``tests/test_golden.py`` reruns the list and compares the bytes, so a change
that moves any seeded output byte fails tier-1; regenerate only on purpose,
and list every moved file in CHANGES.md.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROFILE = str(HERE / "profile.json")

# alpha = 10,000 at 87% of the critical rate: partial releases drawn by the
# scalar chain and by multivariate_hypergeometric, and a drain every cycle
_SIM = ["simulate", "--profile", PROFILE, "--phi", "0.3", "--alpha", "10000",
        "--cycles", "30", "--seed", "7"]

#: output file name -> the ``deferral`` arguments that write it, ``--out`` aside
COMMANDS = {
    "simulate_uniform_compare.json": [*_SIM, "--discipline", "uniform", "--compare"],
    "simulate_fifo.json": [*_SIM, "--discipline", "fifo"],
    "simulate_lifo.json": [*_SIM, "--discipline", "lifo"],
}


def write(out_dir, main) -> None:
    """Run every command through the CLI entry point ``main`` into ``out_dir``."""
    for name, args in COMMANDS.items():
        code = main([*args, "--out", str(Path(out_dir) / name)])
        if code:
            raise SystemExit(f"{name}: deferral exited with {code}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from deferral.cli import main

    write(HERE, main)

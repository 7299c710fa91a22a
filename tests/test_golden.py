"""CLI outputs equal the checked-in golden copies byte for byte.

The commands and the inputs they read are in ``tests/golden/``; rewrite
the copies with ``python tests/golden/regen.py`` only when an output is
meant to move.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

from deferral.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def outputs(root: Path) -> set[str]:
    """The output files under ``root``, as paths relative to it."""
    found = {p.relative_to(root).as_posix() for p in root.rglob("*")
             if p.suffix in (".json", ".csv", ".stderr")}
    return found - set(regen.INPUTS)


def test_every_golden_file_has_its_command():
    named = set(regen.COMMANDS)
    named |= {f"{d}/{table}" for d in regen.STUDIES for table in regen.STUDY_TABLES}
    found = outputs(GOLDEN)
    stderr = {name for name in found if name.endswith(".stderr")}
    assert found - stderr == named
    assert {Path(name).stem for name in stderr} <= {Path(name).stem for name in regen.COMMANDS}


def test_outputs_match_golden(tmp_path):
    regen.write(tmp_path, main)
    assert outputs(tmp_path) == outputs(GOLDEN)
    for name in sorted(outputs(GOLDEN)):
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        if got != want:
            diff = difflib.unified_diff(
                want.decode("utf-8").splitlines(keepends=True),
                got.decode("utf-8").splitlines(keepends=True),
                f"golden/{name}",
                f"rerun/{name}",
            )
            pytest.fail(f"{name} differs from its golden copy:\n{''.join(diff)}")

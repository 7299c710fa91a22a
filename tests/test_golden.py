"""CLI outputs equal the checked-in golden copies byte for byte.

The commands and the inputs they read are in ``tests/golden/``; rewrite
the copies with ``python tests/golden/regen.py`` only when an output is
meant to move.  The tables of a study too large to keep are pinned by their
SHA-256 digests (``<name>.sha256``), so a moved table shows as a changed
digest line.
"""

import difflib
import importlib.util
import re
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
             if p.suffix in (".json", ".csv", ".stderr", ".sha256")}
    return found - set(regen.INPUTS)


def test_every_golden_file_has_its_command():
    named = set(regen.COMMANDS)
    named |= {f"{d}/{table}" for d in regen.STUDIES for table in regen.STUDY_TABLES}
    named |= {f"{name}.sha256" for name in regen.DIGESTED}
    found = outputs(GOLDEN)
    stderr = {name for name in found if name.endswith(".stderr")}
    assert found - stderr == named
    assert {Path(name).stem for name in stderr} <= {Path(name).stem for name in regen.COMMANDS}


@pytest.mark.parametrize("name", sorted(regen.DIGESTED))
def test_digest_pins_name_every_table(name):
    lines = (GOLDEN / f"{name}.sha256").read_text(encoding="utf-8").splitlines()
    assert [line.split("  ")[1] for line in lines] == list(regen.STUDY_TABLES)
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split("  ")[0]) for line in lines)


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

"""Seeded CLI outputs equal the checked-in golden copies byte for byte.

The commands and the profile they read are in ``tests/golden/``; rewrite
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


def test_every_golden_file_has_its_command():
    outputs = {p.name for p in GOLDEN.glob("*.json")} - {"profile.json"}
    assert outputs == set(regen.COMMANDS)


def test_outputs_match_golden(tmp_path):
    regen.write(tmp_path, main)
    for name in regen.COMMANDS:
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        if got != want:
            diff = difflib.unified_diff(
                want.decode().splitlines(keepends=True),
                got.decode().splitlines(keepends=True),
                f"golden/{name}",
                f"rerun/{name}",
            )
            pytest.fail(f"{name} differs from its golden copy:\n{''.join(diff)}")

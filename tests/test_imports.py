"""Every name a module of ``src/`` imports is used in it or exported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that it never loads and does
    not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_finds_an_unused_import():
    source = "from typing import Iterable, Optional\nimport os.path\n\ndef f(x: Optional[int]): pass\n"
    assert unused_imports(source) == ["Iterable (line 1)", "os (line 2)"]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

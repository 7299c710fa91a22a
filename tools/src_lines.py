"""Print the code, docstring, comment and blank lines of each module of a tree.

A blank line holds nothing, a docstring line is any other line of a
module's, class's or function's docstring, a code line holds any other token
and a comment line only a comment.  Standard library only.

    python tools/src_lines.py [DIR]    # DIR defaults to src
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> dict:
    """The number of lines of each of ``KINDS`` in the module at ``path``."""
    text = path.read_text(encoding="utf-8")
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL):  # a comment line holds only these
                code.update(range(tok.start[0], tok.end[0] + 1))
    tally = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            tally["blank"] += 1
        elif number in docstring:
            tally["docstring"] += 1
        else:
            tally["code" if number in code else "comment"] += 1
    return tally


def main(root: str = "src") -> None:
    paths = sorted(Path(root).rglob("*.py"))
    rows = [(str(path.relative_to(root)), counts(path)) for path in paths]
    rows.append(("total", {kind: sum(tally[kind] for _, tally in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':{width}}", *(f"{kind:>9}" for kind in KINDS))
    for name, tally in rows:
        print(f"{name:{width}}", *(f"{tally[kind]:>9}" for kind in KINDS))


if __name__ == "__main__":
    main(*sys.argv[1:])

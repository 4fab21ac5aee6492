"""The production modules keep every tolerance in a named, documented constant.

A threshold typed inline hides which decision it makes and lets two
modules drift apart on the same decision.  Each one therefore lives in a
module-level constant whose ``#:`` comment says what it decides.  The
same scan also checks that every module uses each name it imports.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lorentzsvd"


def _constant_lines(tree: ast.Module) -> dict[int, int]:
    """first line of each module-level UPPER_CASE assignment, by each of its lines"""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in targets):
            for line in range(node.lineno, node.end_lineno + 1):
                out[line] = node.lineno
    return out


def test_tolerance_literals_are_named_constants():
    inline, undocumented = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        constants = _constant_lines(ast.parse(source))
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.NUMBER or "e-" not in tok.string.lower():
                continue
            row = tok.start[0]
            if row not in constants:
                inline.append(f"{path.name}:{row}: {tok.string}")
            elif not lines[constants[row] - 2].lstrip().startswith("#:"):
                undocumented.append(f"{path.name}:{row}")
    assert inline == []
    assert undocumented == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """name bound by each import statement, with its line"""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_imports_are_used():
    """An import left behind by a deletion fails here."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert unused == []

"""The per-state path multiplies its 4x4 matrices through ``ndarray.dot``.

A 4x4 product costs about twice as much through ``@`` as through
``.dot``, which reach the same BLAS call for these operands, so the
functions every state runs through use ``.dot``.  The exceptions are
``_arrow``'s two products of W^T with a vector: ``read_state``'s Lambda
is the real part of a complex array, so W^T is strided and not BLAS-able,
and ``.dot`` would copy it and round differently from ``@``.  Each
exception carries a comment that says so, and this scan keeps the slow
form from coming back anywhere else.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lorentzsvd"

#: the functions on the per-state path, by module
PER_STATE = {
    "canonical.py": ("type1_canonical", "type2_canonical", "_arrow", "_accept"),
    "geigen.py": ("omega_matrices", "g_eigensystem"),
    "_quartic.py": ("quartic_real_roots",),
}

#: the products that keep ``@``, by function
KEPT = {"_arrow": {"work.T @ u", "work.T @ left[0]"}}


def _products(path: Path, names: tuple[str, ...]) -> list[tuple[str, str, int]]:
    """(function, product source, line) of every ``@`` in the named
    module-level functions; fails when a name is missing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(names) <= set(functions), f"{path.name}: {set(names) - set(functions)}"
    return [
        (name, ast.unparse(node), node.lineno)
        for name in names
        for node in ast.walk(functions[name])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]


def test_per_state_products_use_dot():
    slow, kept = [], []
    for module, names in PER_STATE.items():
        for function, product, line in _products(PACKAGE / module, names):
            if product in KEPT.get(function, ()):
                kept.append((module, function, product, line))
            else:
                slow.append(f"{module}:{line}: {function}: {product}")
    assert slow == []
    assert sorted(p for _, _, p, _ in kept) == sorted(p for ps in KEPT.values() for p in ps)
    # each kept product says why, on its line or in the comment block above it
    for module, function, product, line in kept:
        lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
        comment = lines[line - 1].partition("#")[2]
        above = line - 2
        while lines[above].lstrip().startswith("#"):
            comment += lines[above]
            above -= 1
        assert "BLAS" in comment, f"{module}:{line}: {product}"

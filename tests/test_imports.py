"""Every name a ``src/mafn`` module imports is used in that module.

A name counts as used where it is read as a variable, or where it appears
in a string annotation (``"OrderedDict[str, Tensor]"``).
``from __future__ import annotations`` binds no name and is exempt.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mafn"


def imported_names(tree) -> dict:
    """The name each import binds, and the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree) -> set:
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations(tree)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"imported and never used: {unused}"

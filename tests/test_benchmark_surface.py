"""The library names that the benchmark calls exist.

``perfbench/workloads.py`` imports names from ``mafn`` modules, reads
attributes of the ``mafn`` modules it imports under an alias, and looks up
preprocessing functions by name through ``pipeline("<name>")``.  If one of
those names goes, the benchmark fails when it runs; this test fails first.
Code under an ``if … is not None:`` guard is skipped: it calls a name only
where the library still has it (the ``save_window_cache`` branch).
"""
import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the modules ``workloads.pipeline`` searches, in its order
PIPELINE_MODULES = ("mafn.pipeline", "mafn.cli")


def is_none_guard(node) -> bool:
    """Whether ``node`` is ``if <x> is not None:``."""
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and [type(op) for op in test.ops] == [ast.IsNot]
            and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None)


def unguarded(node):
    """``node`` and every node under it, except the bodies of ``if … is not None:``."""
    yield node
    for field, value in ast.iter_fields(node):
        if field == "body" and is_none_guard(node):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from unguarded(child)


def library_names(tree) -> list:
    """``(line, modules, name)`` for each ``mafn`` name the source calls:
    ``name`` must be in one of ``modules``."""
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("mafn")}
    found = []
    for node in unguarded(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mafn"):
            found += [(node.lineno, (node.module,), alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append((node.lineno, (aliases[node.value.id],), node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pipeline"
              and node.args and isinstance(node.args[0], ast.Constant)):
            found.append((node.lineno, PIPELINE_MODULES, node.args[0].value))
    return found


def test_every_benchmark_name_resolves():
    found = library_names(ast.parse(WORKLOADS.read_text(), str(WORKLOADS)))
    names = {name for _, _, name in found}
    assert {"pack_windows", "LossWeights", "fit_pipeline", "TrainConfig"} <= names
    assert "window_config_key" not in names            # under the save_window_cache guard
    missing = [f"{WORKLOADS.name}:{line}: {name} in {' or '.join(modules)}" for line, modules, name in found
               if not any(hasattr(importlib.import_module(m), name) for m in modules)]
    assert not missing, missing


def test_each_form_is_read():
    source = "\n".join([
        "import numpy as np",
        "import mafn.data as D",
        "from mafn.training import LossWeights",
        "np.zeros(D.pack_windows(pipeline('fit_pipeline')).size)",
        "save = getattr(D, 'gone', None)",
        "if save is not None:",
        "    D.gone()",
        "else:",
        "    D.kept()",
    ])
    assert library_names(ast.parse(source)) == [
        (3, ("mafn.training",), "LossWeights"),
        (4, ("mafn.data",), "pack_windows"),
        (4, PIPELINE_MODULES, "fit_pipeline"),
        (9, ("mafn.data",), "kept"),
    ]

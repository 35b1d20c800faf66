"""The library names that the benchmark calls or wraps exist.

``perfbench/workloads.py`` imports names from ``mafn`` modules, reads
attributes of the ``mafn`` modules it imports under an alias, and looks up
preprocessing functions by name through ``pipeline("<name>")``.  If one of
those names goes, the benchmark fails when it runs; this test fails first.
Code under an ``if … is not None:`` guard is skipped: it calls a name only
where the library still has it (the ``save_window_cache`` branch).

``perfbench/tracing.py`` and the ``CUT_POINTS`` of ``workloads.py`` wrap
functions and methods by name, and ``MODEL_GROUPS`` names ``MafnModel``
attributes.  A wrapper skips a name that is gone, so a metric it feeds
reads 0 without any error; this test fails instead, unless the name is one
of the ``STALE`` targets the benchmark still lists.
"""
import ast
import importlib
from pathlib import Path

import numpy as np

from mafn.config import TrainConfig
from mafn.model import MafnModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
TRACING = PERFBENCH / "tracing.py"

# the tracer's targets that the library no longer has; the benchmark's next
# change drops or replaces them, and empties this set
STALE = {"LstmCell.step", "select_sensors", "save_window_cache"}

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


def module_aliases(tree) -> dict:
    """The ``mafn`` module each ``import mafn.x as A`` in ``tree`` binds to ``A``."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.startswith("mafn")}


def library_names(tree) -> list:
    """``(line, modules, name)`` for each ``mafn`` name the source calls:
    ``name`` must be in one of ``modules``."""
    aliases = module_aliases(tree)
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


def owner_of(node, aliases):
    """The module ``A`` or the class ``A.C`` that ``node`` names; None if gone."""
    if isinstance(node, ast.Name):
        return importlib.import_module(aliases[node.id])
    return getattr(owner_of(node.value, aliases), node.attr, None)


def wrap_target(owner, name) -> tuple:
    """(label, whether it resolves) of ``owner.name`` as ``Patcher`` looks it
    up: a method in the class's own ``__dict__``, a function in the module."""
    if isinstance(owner, type):
        return f"{owner.__name__}.{name}", name in vars(owner)
    return name, getattr(owner, name, None) is not None


def text_of(node, bindings) -> str:
    """A string constant, a loop variable, or an f-string of loop variables."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return bindings[node.id]
    return "".join(text_of(part.value if isinstance(part, ast.FormattedValue) else part, bindings)
                   for part in node.values)


def patch_calls(node, bindings=None):
    """``(owner node, name, bindings)`` of each ``p.function`` and
    ``p.method`` call under ``node``, once for each value of a literal
    ``for name in (...)`` loop around it."""
    bindings = bindings or {}
    if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple) and isinstance(node.target, ast.Name):
        for value in node.iter.elts:
            for stmt in node.body:
                yield from patch_calls(stmt, {**bindings, node.target.id: value.value})
        return
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("function", "method") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "p"):
        yield node.args[0], text_of(node.args[1], bindings)
    for child in ast.iter_child_nodes(node):
        yield from patch_calls(child, bindings)


def assigned(tree, name):
    """The value node of the module-level assignment to ``name``."""
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name])


def wrapped_targets() -> dict:
    """Whether each name that ``tracing.py`` and ``CUT_POINTS`` wrap, and
    each ``MODEL_GROUPS`` attribute of a built model, resolves."""
    tracing = ast.parse(TRACING.read_text(), str(TRACING))
    workloads = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    targets = {}
    aliases = module_aliases(tracing)
    for owner, name in patch_calls(tracing):
        label, ok = wrap_target(owner_of(owner, aliases), name)
        targets[label] = ok
    aliases = module_aliases(workloads)
    for point in assigned(workloads, "CUT_POINTS").elts:
        label, ok = wrap_target(owner_of(point.elts[0], aliases), point.elts[1].value)
        targets[label] = ok
    cfg = TrainConfig(window=4, horizon=2, k_states=2, embedding_dim=2, n_filters=2, lstm_hidden=2,
                      trend_dim=2, fusion_widths=(2, 2), rul_widths=(2, 2)).validate()
    model = MafnModel(cfg, 2, np.random.default_rng(0))
    for attr in ast.literal_eval(assigned(tracing, "MODEL_GROUPS")):
        targets[f"MafnModel.{attr}"] = getattr(model, attr, None) is not None
    return targets


def test_every_wrapped_target_resolves_but_the_stale():
    targets = wrapped_targets()
    assert {"total_loss", "relabel_canonical", "Adam.step", "fit_single_restart",
            "MafnModel.fusion_layers"} <= set(targets)
    assert {label for label, ok in targets.items() if not ok} == STALE


def test_loops_and_fstrings_expand():
    source = "\n".join([
        "def install(self):",
        "    import mafn.losses as L",
        "    p.function(L, 'rmse', None)",
        "    for name in ('state', 'rul'):",
        "        p.function(L, f'{name}_loss', self.span(f'losses.{name}'))",
        "    p.method(L.LossWeights, 'gone', None)",
    ])
    tree = ast.parse(source)
    found = [(owner.id if isinstance(owner, ast.Name) else owner.attr, name) for owner, name in patch_calls(tree)]
    assert found == [("L", "rmse"), ("L", "state_loss"), ("L", "rul_loss"), ("LossWeights", "gone")]
    import mafn.losses as L
    assert wrap_target(L, "rmse") == ("rmse", True)
    assert wrap_target(L.LossWeights, "gone") == ("LossWeights.gone", False)

"""The library's public surface has a library caller.

Every module-level public function and class in ``src/mafn``, and every
public method, property and dataclass field of a public class, must be
named somewhere other than its own definition, in ``src/mafn`` or in
``perfbench/``: a name only the tests use is surface with no caller.

A module-level name counts as used only where it resolves to its own
module: a bare name read in that module and bound by no enclosing
function (``matmul = np.matmul`` inside a function is not a caller of a
module-level ``matmul``), ``A.name`` where ``A`` is bound to the module
(``from . import tensor as T``, ``import mafn.tensor as T``), a
``from .module import name``, or a string by which ``perfbench/`` patches
or looks up a function of the module (``p.function(T, "name", ...)``,
``(T, "name")``, ``pipeline("name")``).  A method, property or field counts where its name
appears as a variable, an attribute, an imported name or a string.
``mafn.cli.main`` is called through ``[project.scripts]``.
"""
import ast
import re
from pathlib import Path

from tests.test_benchmark_surface import PIPELINE_MODULES, patch_calls

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mafn"


def script_targets() -> set:
    """``(module, name)`` of each console script in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return {(module.removeprefix("mafn."), name)
            for module, name in re.findall(r'^\s*[\w-]+\s*=\s*"([\w.]+):(\w+)"', section, re.M)}


def names_used(tree) -> list:
    """``(line, name)`` of every name, attribute, imported name and string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.lineno, node.value))
    return found


def imported_module(node) -> str:
    """The ``mafn`` module an ``ImportFrom`` reads from: ``""`` for the
    package itself (``from . import x``, ``from mafn import x``), None
    for a module outside it."""
    module = node.module or ""
    if node.level == 0 and module != "mafn" and not module.startswith("mafn."):
        return None
    return module.removeprefix("mafn").removeprefix(".")


def local_names(func) -> set:
    """The names ``func`` binds itself: its parameters, and each name it
    assigns, imports or defines outside its nested functions."""
    args = func.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.partition(".")[0])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            stack += node.decorator_list
            continue
        if isinstance(node, ast.Lambda):
            continue
        stack += ast.iter_child_nodes(node)
    return bound


def global_reads(node, local=frozenset()):
    """``(line, name)`` of each name read under ``node`` that no enclosing
    function binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.lineno, node.id
    for child in ast.iter_child_nodes(node):
        yield from global_reads(child, local)


def named_targets(tree, aliases: dict) -> set:
    """``(module, name, line)`` of each function the benchmark names by a
    string: ``p.function(A, "name", ...)``, through literal loops and
    f-strings, an ``(A, "name")`` pair such as a cut point, and
    ``pipeline("name")``.  Other strings are no callers: ``"matmul"`` may
    be a tape op's counter label."""
    found = {(aliases[owner.id], name, owner.lineno) for owner, name in patch_calls(tree)
             if isinstance(owner, ast.Name) and owner.id in aliases}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2 and isinstance(node.elts[0], ast.Name)
                and node.elts[0].id in aliases and isinstance(node.elts[1], ast.Constant)):
            found.add((aliases[node.elts[0].id], node.elts[1].value, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pipeline"
              and node.args and isinstance(node.args[0], ast.Constant)):
            found |= {(module.removeprefix("mafn."), node.args[0].value, node.lineno) for module in PIPELINE_MODULES}
    return found


def module_uses(tree, modules: set, perfbench: bool) -> set:
    """``(module, name, line)`` of each use in ``tree`` that resolves to a
    module-level ``name`` of the ``mafn`` module ``module``, other than a
    bare name; in ``perfbench``, each of its :func:`named_targets` too."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("mafn."):
                    aliases[alias.asname] = alias.name.removeprefix("mafn.")
        elif isinstance(node, ast.ImportFrom) and (module := imported_module(node)) is not None:
            for alias in node.names:
                if not module and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.add((module, alias.name, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr, node.lineno))
    return found | named_targets(tree, aliases) if perfbench else found


def public_definitions(tree):
    """``(qualified name, node)`` of each public module-level function and
    class, and of each public method, property and annotated field of a
    public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", member


def orphans(package=PACKAGE, perfbench=ROOT / "perfbench") -> list:
    sources = [*sorted(package.glob("*.py")), *sorted(perfbench.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    used = {path: names_used(tree) for path, tree in trees.items()}
    modules = {path.stem for path in package.glob("*.py")}
    resolved = {(module, name, path, line) for path, tree in trees.items()
                for module, name, line in module_uses(tree, modules, path.parent == perfbench)}
    resolved |= {(path.stem, name, path, line)
                 for path in package.glob("*.py") for line, name in global_reads(trees[path])}
    entry = script_targets()
    missing = []
    for path in sorted(package.glob("*.py")):
        for qualified, node in public_definitions(trees[path]):
            if (path.stem, qualified) in entry:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if "." in qualified:
                name = qualified.rpartition(".")[2]
                called = any(found == name and not (where == path and line in own)
                             for where, names in used.items() for line, found in names)
            else:
                called = any(name == qualified and module == path.stem and not (where == path and line in own)
                             for module, name, where, line in resolved)
            if not called:
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_has_a_library_caller():
    found = orphans()
    assert not found, f"public names that no library or benchmark code uses: {found}"


def test_a_same_named_numpy_call_is_no_caller(tmp_path):
    package, perfbench = tmp_path / "mafn", tmp_path / "perfbench"
    package.mkdir()
    perfbench.mkdir()
    (package / "ops.py").write_text("\n".join([
        "import numpy as np",
        "def matmul(a, b):",
        "    return a @ b",
        "def scan(x):",
        "    matmul = np.matmul",
        "    return matmul(x, x).sum() + np.mean(x)",
        "def mean(x):",
        "    return x",
        "def used(x):",
        "    return scan(x)",
    ]))
    (package / "model.py").write_text("from . import ops as O\nfrom .ops import used\nO.scan(used)\n")
    (perfbench / "bench.py").write_text("\n".join([
        "import numpy as np",
        "import mafn.ops as O",
        "np.matmul(1, 1)",
        "np.mean([1])",
        "for op in ('matmul', 'mean'):",
        "    print(op)",
        "p.function(O, 'used', None)",
    ]))
    assert orphans(package, perfbench) == ["ops.matmul", "ops.mean"]

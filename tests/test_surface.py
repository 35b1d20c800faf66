"""The library's public surface has a library caller.

Every module-level public function and class in ``src/mafn``, and every
public method, property and dataclass field of a public class, must be
named somewhere other than its own definition, in ``src/mafn`` or in
``perfbench/``: a name only the tests use is surface with no caller.  A
name counts when it appears as a variable, an attribute, an imported name
or a string (``perfbench`` patches functions by name).  ``mafn.cli.main``
is called through ``[project.scripts]``.
"""
import ast
import re
from pathlib import Path

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


def orphans() -> list:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]}
    used = {path: names_used(tree) for path, tree in trees.items()}
    entry = script_targets()
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in public_definitions(trees[path]):
            if (path.stem, qualified) in entry:
                continue
            name = qualified.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(found == name and not (where == path and line in own)
                       for where, names in used.items() for line, found in names):
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_has_a_library_caller():
    found = orphans()
    assert not found, f"public names that no library or benchmark code uses: {found}"

"""Every name a module of the package imports is used in that module, and
every public definition is named by the package, the acceptance tests or a
README example."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lzcross"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Sequence, Mapping\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Mapping (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _names(nodes) -> set[str]:
    """Every name and attribute the given syntax trees mention."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def unreferenced_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Public top-level functions and classes that no code names.

    A definition is referenced when its name appears in a module outside the
    definition itself, or anywhere in the reader sources.  Imports do not
    count, so a name that is only imported somewhere stays unreferenced.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    mentions = [(stmt, _names([stmt])) for stmt in statements]
    read = _names(ast.parse(source) for source in readers)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in read:
                continue
            if not any(node.name in names for stmt, names in mentions if stmt is not node):
                dead.append(f"{module}.{node.name}")
    return dead


def test_scan_finds_an_unreferenced_definition():
    modules = {
        "a": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n"
             "\nclass Unused:\n    pass\n\ndef _private():\n    pass\n",
        "b": "from .a import Unused\n\ndef caller():\n    return used()\n",
    }
    readers = ["from pkg.b import caller\ncaller()\n"]
    assert unreferenced_definitions(modules, readers) == ["a.recursive", "a.Unused"]


def test_every_public_definition_is_referenced():
    root = PACKAGE.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    readers = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    readers.append((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(modules, readers) == []

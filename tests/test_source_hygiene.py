"""Every name a module of the package imports is used in that module, no
module imports scipy, no top-level function but the documented quadrature
one keeps a memo between calls, every public definition is named by the
package, the acceptance tests or a README example, every private one by the
package, every public method, property and dataclass field is read there
(an override of a standard-library base's method counts as read, as that
library calls it), no two modules define the same top-level name, and
README's lemma parameter table lists the keys each lemma case reads."""

import ast
import importlib
import re
import sys
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


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy or any submodule of it; the package depends on numpy alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{n} (line {node.lineno})" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_scan_finds_scipy_imports():
    source = (
        "import numpy as np\nimport scipy.fft\nfrom scipy.special import gamma\n"
        "from .scipy_like import dct\nimport scipyx\nimport os, scipy as sp\n"
    )
    assert scipy_imports(source) == [
        "scipy.fft (line 2)", "scipy.special (line 3)", "scipy (line 6)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


# (module, function): the one memo kept between calls, the quadrature
# weights of norms.cell_weights, which depend on four numbers alone
KEPT_MEMOS = {("norms", "_cell_weights")}


def memoized_functions(source: str) -> list[str]:
    """Top-level functions under a functools cache or lru_cache decorator,
    bare or called, by attribute or by name: a memo that lives as long as
    the module.  A memo of a nested function lives for one call of its
    enclosing function and does not count, nor does a method's."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in ("cache", "lru_cache"):
                found.append(node.name)
    return found


def test_scan_finds_memoized_functions():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "\n@functools.cache\ndef a(k):\n    return k\n"
        "\n@functools.lru_cache(maxsize=128)\ndef b(k):\n    return k\n"
        "\n@cache\ndef c(k):\n    return k\n"
        "\n@lru_cache()\ndef d(k):\n    return k\n"
        "\ndef per_call(ks):\n    @functools.cache\n    def f(k):\n        return k\n"
        "    return list(map(f, ks))\n"
        "\nclass Table:\n    @functools.cached_property\n    def rows(self):\n"
        "        return 1\n\n    @functools.cache\n    def method(self):\n"
        "        return 2\n"
        "\n@staticmethod\ndef e(k):\n    return k\n"
    )
    assert memoized_functions(source) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_memo_outlives_its_call(path):
    found = memoized_functions(path.read_text(encoding="utf-8"))
    assert [name for name in found if (path.stem, name) not in KEPT_MEMOS] == []


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
    """Top-level functions and classes that no code names.

    A definition is referenced when its name appears in a module outside the
    definition itself, or, for a public name, anywhere in the reader sources.
    A private name (a leading underscore) must be named by the modules.
    Imports do not count, so a name that is only imported somewhere stays
    unreferenced.
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
            if not node.name.startswith("_") and node.name in read:
                continue
            if not any(node.name in names for stmt, names in mentions if stmt is not node):
                dead.append(f"{module}.{node.name}")
    return dead


def test_scan_finds_an_unreferenced_definition():
    modules = {
        "a": "def used():\n    return _helper()\n\ndef _helper():\n    return 1\n"
             "\ndef recursive(n):\n    return recursive(n - 1)\n"
             "\nclass Unused:\n    pass\n\ndef _private():\n    pass\n"
             "\nclass _Tested:\n    pass\n",
        "b": "from .a import Unused\n\ndef caller():\n    return used()\n",
    }
    # a reader naming a private definition does not keep it
    readers = ["from pkg.b import caller\ncaller()\nfrom pkg.a import _Tested\n_Tested()\n"]
    assert unreferenced_definitions(modules, readers) == [
        "a.recursive", "a.Unused", "a._private", "a._Tested"
    ]


def repeated_definitions(modules: dict[str, str]) -> list[str]:
    """Top-level names that two or more modules define, by a function, a
    class or an assignment, each with the modules that define it.  Imports,
    methods and names local to a function do not count."""
    where: dict[str, list[str]] = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                where.setdefault(name, []).append(module)
    return [f"{name} ({', '.join(mods)})" for name, mods in where.items() if len(mods) > 1]


def test_scan_finds_a_helper_defined_twice():
    modules = {
        "a": "_ROWS = 256\n\ndef _distinct(v):\n    return v\n"
             "\nclass Grid:\n    def norm(self):\n        width = 1\n",
        "b": "from .a import Grid\n\n_ROWS: int = 128\n\ndef _distinct(v):\n    return v\n"
             "\ndef norm():\n    width = 2\n",
        "c": "from .b import _distinct\n\nGrid = None\n",
    }
    assert repeated_definitions(modules) == [
        "_ROWS (a, b)", "_distinct (a, b)", "Grid (a, c)"
    ]


def test_no_two_modules_define_the_same_name():
    modules, _ = _package_and_readers()
    assert repeated_definitions(modules) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _members(cls: ast.ClassDef):
    """(name, node) of every method and property, and of every dataclass field."""
    fields = _is_dataclass(cls)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif fields and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _dumped_classes(trees) -> set[str]:
    """Classes whose instances some function hands whole to asdict.

    The argument is a constructor call, or a name that the same function
    binds to one.
    """
    dumped = set()
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            built = {
                target.id: node.value.func.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(fn):
                if not (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "asdict"
                    and len(node.args) == 1
                ):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
                    dumped.add(arg.func.id)
                elif isinstance(arg, ast.Name) and arg.id in built:
                    dumped.add(built[arg.id])
    return dumped


def _stdlib_bases(cls: ast.ClassDef, tree: ast.Module) -> list[type]:
    """The bases of cls that are standard-library classes, resolved through
    the module's top-level imports: `import argparse` then
    argparse.ArgumentParser, or `from argparse import ArgumentParser`, with
    or without `as`.  A base of the package or of another library is not
    resolved."""
    imported = {}  # bound name -> (module, attribute or None)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    imported[alias.asname or alias.name] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    found = []
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in imported:
            module, attr = imported[base.id]
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and imported.get(base.value.id, (None, ""))[1] is None):
            module, attr = imported[base.value.id][0], base.attr
        else:
            continue
        if attr is not None and module.split(".")[0] in sys.stdlib_module_names:
            found.append(getattr(importlib.import_module(module), attr))
    return found


def unread_members(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Public methods, properties and dataclass fields that no code reads.

    A member is read where code loads an attribute of its name outside the
    member itself, in a module or in the reader sources.  Passing a field as
    a constructor keyword or assigning to it does not count; a dataclass
    handed whole to asdict has every field read.  A method whose name a
    standard-library base of its class defines (_stdlib_bases) is an
    override that library calls, and counts as read.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    everything = [*trees.values(), *(ast.parse(source) for source in readers)]
    loads: dict[str, list[ast.Attribute]] = {}
    for tree in everything:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(node)
    dumped = _dumped_classes(everything)
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = _stdlib_bases(cls, tree)
            for name, member in _members(cls):
                if name.startswith("_"):
                    continue
                if isinstance(member, ast.AnnAssign) and cls.name in dumped:
                    continue
                if isinstance(member, ast.FunctionDef) and any(
                    hasattr(base, name) for base in bases
                ):
                    continue
                own = {id(node) for node in ast.walk(member)}
                if not any(id(node) not in own for node in loads.get(name, [])):
                    dead.append(f"{module}.{cls.name}.{name}")
    return dead


def test_scan_finds_unread_members():
    modules = {
        "a": "from dataclasses import asdict, dataclass\n"
             "\n@dataclass\nclass Fit:\n    slope: float\n    spare: float\n"
             "\n    @property\n    def doubled(self):\n        return 2 * self.slope\n"
             "\n    def again(self):\n        return self.again()\n"
             "\n    def used(self):\n        return self.spare\n"
             "\n    def _private(self):\n        pass\n"
             "\n@dataclass\nclass Dump:\n    kept: int\n"
             "\nclass Plain:\n    count: int\n",
        "b": "from .a import Dump, Fit, asdict\n"
             "\ndef fit():\n    f = Fit(slope=1.0, spare=2.0)\n    f.spare = 3.0\n"
             "    return f.slope\n"
             "\ndef dump():\n    d = Dump(kept=1)\n    return asdict(d)\n",
    }
    readers = ["from pkg.a import Fit\nFit(1.0, 2.0).used()\n"]
    # spare is read only inside used(), and used() only by a reader
    assert unread_members(modules, readers) == ["a.Fit.doubled", "a.Fit.again"]
    # a field only passed as a keyword or assigned, and a dataclass no
    # longer handed to asdict
    modules["b"] = (
        modules["b"].replace("return f.slope", "return f.doubled").replace("asdict(d)", "d")
    )
    modules["a"] = modules["a"].replace("return self.spare", "return 0")
    assert unread_members(modules, []) == [
        "a.Fit.spare", "a.Fit.again", "a.Fit.used", "a.Dump.kept"
    ]
    # an override of a standard-library base's method is read by that
    # library; a new public method of the same class, a name the base does
    # not define, and a base of the package or of another library are not
    modules = {
        "a": "import argparse\nimport numpy as np\n"
             "from argparse import ArgumentParser as Parser\n"
             "from collections import OrderedDict\nfrom .b import Local\n"
             "\nclass Lazy(argparse.ArgumentParser):\n"
             "    def parse_known_args(self, args=None, namespace=None):\n"
             "        return super().parse_known_args(args, namespace)\n"
             "\n    def populate(self):\n        pass\n"
             "\nclass Named(Parser):\n    def format_help(self):\n        return ''\n"
             "\nclass Table(OrderedDict):\n    def move_to_start(self):\n"
             "        pass\n\n    def popitem(self, last=True):\n        pass\n"
             "\nclass Near(Local):\n    def format_help(self):\n        return ''\n"
             "\nclass Samples(np.ndarray):\n    def sum(self):\n        return 0\n",
        "b": "class Local:\n    pass\n",
    }
    assert unread_members(modules, []) == [
        "a.Lazy.populate", "a.Table.move_to_start", "a.Near.format_help",
        "a.Samples.sum",
    ]


def _package_and_readers() -> tuple[dict[str, str], list[str]]:
    root = PACKAGE.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    readers = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    readers.append((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    return modules, readers


def test_every_public_definition_is_referenced():
    modules, readers = _package_and_readers()
    assert unreferenced_definitions(modules, readers) == []


def test_every_public_member_is_read():
    modules, readers = _package_and_readers()
    assert unread_members(modules, readers) == []


def test_readme_lemma_table_lists_the_keys_each_case_reads():
    from lzcross.cli import _LEMMAS

    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| lemma | parameter keys |\n| --- | --- |\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        which, keys = row.strip("|").split("|")
        # "1, cases 1 and 2" names lemma 1 and two of its cases, "2" every case
        lemma_id, *cases = map(int, re.findall(r"\d+", which))
        keys = set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", keys)))
        for case in cases or _LEMMAS[lemma_id][2]:
            listed[lemma_id, case] = keys
    read = {
        (lemma_id, case): set(defaults) | ({"case"} if case is not None else set())
        for lemma_id, (*_, cases) in _LEMMAS.items()
        for case, (_, _, defaults, _) in cases.items()
    }
    assert listed == read

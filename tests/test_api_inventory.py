"""The public surface of `src/`: every top-level public name has a reader.

A top-level name without a leading underscore must be read somewhere in
`src/` or be re-exported by `densegrover/__init__.py`, whose `from .x
import (...)` lines are the package's declared API (there is no
`__all__` to keep beside them).  A wrapper that only tests call fails
here; delete it, or export it and say why it is API.

The scan reads the AST, not the text: a name in a docstring, a comment
or a string is no reference.  `module.name` counts as a read of `name`
in `module`, and a bare name as a read of what it is bound to, through
the module's own `from .x import` lines.

Tests check `src/` through that surface.  Only the inventory files
(`test_*_inventory.py`), which pin mechanisms that are themselves the
contract, may read a private name of the package.
"""

import ast
from pathlib import Path

import densegrover

PACKAGE = Path(densegrover.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def package_sources() -> dict:
    """Each module's text by its stem, `__init__` included."""
    return {path.stem: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def imported_names(tree: ast.Module) -> dict:
    """Local name -> (module, name) for each `from .module import name [as local]`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def public_definitions(stem: str, tree: ast.Module) -> set:
    """(module, name) of each top-level def, class or assigned name without a leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {(stem, name) for name in names if not name.startswith("_")}


def references(stem: str, tree: ast.Module, modules: set) -> set:
    """(module, name) of each name `stem` reads, bare or as `module.name`."""
    bound = imported_names(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(bound.get(node.id, (stem, node.id)))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((node.value.id, node.attr))
    return found


def unreferenced(sources: dict) -> set:
    """(module, name) of the public names no module reads and `__init__` does not re-export."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    modules = set(trees) - {"__init__"}
    defined, read = set(), set()
    for stem in modules:
        defined |= public_definitions(stem, trees[stem])
        read |= references(stem, trees[stem], modules)
    return defined - read - set(imported_names(trees["__init__"]).values())


def test_every_public_name_is_read_in_src_or_exported():
    assert unreferenced(package_sources()) == set()


def test_the_scan_sees_definitions_reads_and_exports():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            '"""The module docstring names in_docstring and in_comment."""\n'
            "def unused_function(): pass\n"
            "class UnusedClass: pass\n"
            "def in_docstring(): pass\n"
            "# in_comment is only named here\n"
            "def in_comment(): pass\n"
            "IN_STRING = 1\n"
            "TEXT = 'IN_STRING'\n"
            "def exported(): pass\n"
            "def read_bare(): pass\n"
            "def read_here(): return read_bare()\n"
            "def _private(): pass\n"
            "class Holder:\n    def method(self): return unused_method_name\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import read_here as alias\n"
            "def caller(): return alias(), a.Holder, a.TEXT\n"
            "x = caller()\n"
        ),
    }
    assert unreferenced(sources) == {
        ("a", "unused_function"), ("a", "UnusedClass"), ("a", "in_docstring"),
        ("a", "in_comment"), ("a", "IN_STRING"), ("b", "x"),
    }


def private(name: str) -> bool:
    """A leading underscore, dunder names exempt."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_src_names(sources: dict) -> set:
    """Each private top-level name of `src/`, and each name a `_store` call writes."""
    names = set()
    for text in sources.values():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        names.update(keyword.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "_store" for keyword in node.keywords)
    return set(filter(private, filter(None, names)))


def private_reads(source: str, modules: set, names: set) -> list:
    """(line, text) of each private read of the package in a test's source.

    The three forms: `module._name` on a package module, by a name it is
    bound to or as `densegrover.module`, `from densegrover[.x] import _name`,
    and a string equal to one of `names`.
    """
    tree, bound, found = ast.parse(source), {f"densegrover.{module}" for module in modules}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "densegrover":
            for alias in node.names:
                if node.module == "densegrover" and alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names
                         if alias.asname and alias.name.startswith("densegrover."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound and private(node.attr):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Constant) and node.value in names:
            found.append((node.lineno, repr(node.value)))
    return sorted(found)


def test_no_test_outside_the_inventories_reads_a_private_name():
    sources = package_sources()
    modules, names = set(sources) - {"__init__"}, private_src_names(sources)
    found = [f"{path.name}:{line}: {text}" for path in sorted(TESTS.glob("*.py"))
             if not path.stem.endswith("_inventory")
             for line, text in private_reads(path.read_text("utf-8"), modules, names)]
    assert found == []


def test_the_private_read_scan_sees_each_form():
    sources = {"m": ("_TABLE = 1\ndef _helper(): pass\nclass K:\n"
                     "    def __post_init__(self): _store(self, _built=1)\n"
                     "    def f(self): _store(self, _kept=1, shown=2)\n")}
    names = private_src_names(sources)
    assert names == {"_TABLE", "_helper", "_built", "_kept"}
    source = (
        "import densegrover.m as alias\nfrom densegrover import m, other as o\n"
        "from densegrover.m import _helper, K\nfrom densegrover import _TABLE\n"
        "x = m._TABLE, o._kept, alias._helper, m.__file__, m.K, obj._TABLE, 'shown'\n"
        "y = getattr(m, '_helper'), vars(obj)['_kept'], '_other', '__init__', densegrover.m._built\n"
    )
    assert private_reads(source, {"m", "other"}, names) == [
        (3, "from densegrover.m import _helper"), (4, "from densegrover import _TABLE"),
        (5, "alias._helper"), (5, "m._TABLE"), (5, "o._kept"),
        (6, "'_helper'"), (6, "'_kept'"), (6, "densegrover.m._built"),
    ]

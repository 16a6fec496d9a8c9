"""The memos in `src/`: exactly the three `nmr` keeps for repeated protocol
runs, and the four values `nmr` stores on an object after it is built.
Beside them, the work a fresh-constants `verify --all` does: it builds no
`Operator4` and adds no memo entry.

A new `lru_cache` (or `functools.cache`), or a new `_store` outside a
`__post_init__`, changes this inventory, so it has to change this test
and say why.
"""

import ast
from pathlib import Path

import densegrover
from densegrover import nmr, qstate

SOURCES = sorted(Path(densegrover.__file__).resolve().parent.glob("*.py"))

MEMOS = {
    ("nmr", "_simulate"),
    ("nmr", "protocol_sequence"),
    ("nmr", "equilibrium_state"),
}

# (module, function that stores, name stored): each is kept on the object it
# was read from, on the first call that asks for it.
LAZY_STORES = {
    ("nmr", "verify_realization", "_check"),
    ("nmr", "_amplitudes", "_pairs"),
    ("nmr", "_lines", "_lines"),
    ("nmr", "spectrum_fingerprint", "_fingerprint"),
}


def called_name(target: ast.expr) -> str | None:
    """The name a decorator or call target ends in, bare or as an attribute."""
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def memo_decorated(source: str) -> set:
    """Names of the functions decorated by lru_cache or cache, called or bare, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if called_name(target) in ("lru_cache", "cache"):
                found.add(node.name)
    return found


def lazy_stores(source: str) -> set:
    """(innermost function, keyword) of each `_store` call outside a `__post_init__`.

    A call at module level has the function None, and a `**mapping` the keyword None.
    """
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Call) and called_name(node.func) == "_store"
              and function != "__post_init__"):
            found.update((function, keyword.arg) for keyword in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_three_nmr_memos_are_the_only_ones():
    found = {(path.stem, name) for path in SOURCES for name in memo_decorated(path.read_text("utf-8"))}
    assert found == MEMOS


def test_the_scan_sees_each_decorator_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=4)\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "class K:\n    @cache\n    def d(self): pass\n"
        "@staticmethod\ndef e(): pass\n"
    )
    assert memo_decorated(source) == {"a", "b", "c", "d"}


def test_the_four_lazy_stores_are_the_only_ones():
    found = {(path.stem, *store) for path in SOURCES for store in lazy_stores(path.read_text("utf-8"))}
    assert found == LAZY_STORES


def test_the_store_scan_sees_each_call_form():
    source = (
        "class K:\n    def __post_init__(self):\n        _store(self, a=1)\n"
        "        def later():\n            _store(self, b=1)\n"
        "def f(x):\n    _store(x, c=1, d=2)\n"
        "    def inner():\n        nmr._store(x, e=1)\n"
        "    _store(x, **{'g': 1})\n    store(x, h=1)\n"
        "_store(obj, i=1)\n"
    )
    assert lazy_stores(source) == {("later", "b"), ("f", "c"), ("f", "d"), ("inner", "e"),
                                   ("f", None), (None, "i")}


def test_fresh_constants_verify_all_builds_no_operator_and_no_memo_entry(monkeypatch):
    # The 13 checks read their stored fits, and the prep folds spin 2's
    # populations with no 4x4 before its tail, so nothing is checked unitary as a 4x4.
    built, post_init = [], qstate.Operator4.__post_init__
    monkeypatch.setattr(qstate.Operator4, "__post_init__", lambda op: built.append(op) or post_init(op))
    memos = (nmr._simulate, nmr.protocol_sequence, nmr.equilibrium_state)
    before = [memo.cache_info() for memo in memos]
    consts = nmr.PhysicalConstants(nu1_hz=71e6, nu2_hz=433e6, j_hz=181.5, gamma_ratio=6.125)
    for name, gate in nmr.GATES.items():
        if gate.ideal is not None:
            assert nmr.verify_realization(name, consts=consts).ok
    assert isinstance(nmr.prepare_pseudo_pure(consts), nmr.DeviationMatrix)
    assert built == [] and [memo.cache_info() for memo in memos] == before

"""The memos in `src/`: exactly the three `nmr` keeps for repeated protocol runs.

A new `lru_cache` (or `functools.cache`) changes this inventory, so it
has to change this test and say why.
"""

import ast
from pathlib import Path

import densegrover

SOURCES = sorted(Path(densegrover.__file__).resolve().parent.glob("*.py"))

MEMOS = {
    ("nmr", "_simulate"),
    ("nmr", "protocol_sequence"),
    ("nmr", "equilibrium_state"),
}


def memo_decorated(source: str) -> set:
    """Names of the functions decorated by lru_cache or cache, called or bare, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                found.add(node.name)
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

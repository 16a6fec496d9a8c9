"""Mechanisms that are themselves the contract, pinned by private name:
the three `nmr` memos and the four values `nmr` stores on an object after
it is built; what a fresh-constants `verify --all` or a second call of an
entry point (`WARM_CALLS`) skips where no public name shows it; and values
built at import: `_pipeline`'s 36 runs and 12 `U`s, the bijection check, the
one Table-2 grid, the prep tail, read only after the prep's thermal checks,
and a state's one read-out.

A new `lru_cache` (or `functools.cache`), or a new `_store` outside a
`__post_init__`, changes this inventory, so it has to change this test
and say why.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densegrover
from densegrover import coding, grover, nmr, qstate
from densegrover.qstate import BasisLabel

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


def assert_runs_none(recorded, call, targets):
    """call() builds no Operator4, misses no memo and runs none of targets."""
    memos = (nmr._simulate, nmr.protocol_sequence, nmr.equilibrium_state)
    before = [memo.cache_info()[1:] for memo in memos]  # misses, maxsize, currsize
    ran = recorded((qstate.Operator4, "__post_init__"), *targets)
    call()
    assert ran == [] and [memo.cache_info()[1:] for memo in memos] == before


UNITARY_GATES = [name for name, gate in nmr.GATES.items() if gate.ideal is not None]


def test_fresh_constants_verify_all_builds_no_operator_and_no_memo_entry(recorded):
    # The 13 checks read their stored fits, and the prep folds spin 2's
    # populations with no 4x4 before its tail, so nothing is checked unitary as a 4x4.
    def verify_all():
        consts = nmr.PhysicalConstants(nu1_hz=71e6, nu2_hz=433e6, j_hz=181.5, gamma_ratio=6.125)
        assert all(nmr.verify_realization(name, consts=consts).ok for name in UNITARY_GATES)
        assert isinstance(nmr.prepare_pseudo_pure(consts), nmr.DeviationMatrix)

    assert_runs_none(recorded, verify_all, [])


READ_OUT = nmr.basis_pseudo_pure(BasisLabel.DU)

# Each entry point, called once and then again: the second call runs none of these.
WARM_CALLS = {
    "simulate_sequence": (
        lambda: [nmr.simulate_sequence(nmr.protocol_sequence(j, k), nmr.equilibrium_state())
                 for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)],
        [(nmr, name) for name in ("lower", "_lower_run", "_after_crush", "_fold")]),
    "verify_realization": (lambda: [nmr.verify_realization(name) for name in UNITARY_GATES], [(nmr, "_lower_run")]),
    "read-out": (
        lambda: [nmr.predict_spectrum(READ_OUT, 1), nmr.predict_spectrum(READ_OUT, 2),
                 nmr.spectrum_fingerprint(READ_OUT)],
        [(nmr, "_amplitudes"), (nmr, "lower")]),
}


@pytest.mark.parametrize("entry", WARM_CALLS)
def test_a_warm_call_runs_none_of_its_listed_functions(entry, recorded):
    call, targets = WARM_CALLS[entry]
    call()
    assert_runs_none(recorded, call, targets)


IMPORT_COUNT = """
import sys
runs = []
def count(frame, event, arg):
    if event == "call" and frame.f_code.co_name in ("_pipeline", "build_U"):
        runs.append(frame.f_code.co_name)
sys.setprofile(count)
import densegrover
sys.setprofile(None)
print(runs.count("_pipeline"), runs.count("build_U"))
"""


def test_import_runs_the_pipeline_thirty_six_times():
    # The 32 preset runs and the four x-set ancilla runs, the y-set ancilla runs being
    # preset y1's; and 12 Us: one per preset's G pair, which every run reads, and one per U gate.
    src = Path(densegrover.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_COUNT], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "36 12\n"


@pytest.mark.parametrize("kind", ["x", "y"])
def test_the_builder_checks_the_bijection(kind, monkeypatch):
    # The import-time check, reached through a duplicated encoder in the kind's set.
    ops = coding._ENCODER_SETS[kind]
    monkeypatch.setitem(coding._ENCODER_SETS, kind, (ops[0], ops[0], ops[2], ops[3]))
    for j in (1, 2, 3, 4):
        with pytest.raises(AssertionError, match=re.escape(f"preset {j} ({kind}) is not a bijection")):
            coding._preset_runs(kind, j)


def test_decoder_and_table_read_one_value(monkeypatch):
    # Swapping preset x3's first two cells in the stored x grid shows in both readers.
    grid, column = coding._GRIDS["x"], coding._COLUMNS["x", 3]
    first, second = grid[column, 1], grid[column, 2]
    monkeypatch.setitem(grid, (column, 1), second)
    monkeypatch.setitem(grid, (column, 2), first)
    assert [coding.decode(label, grover.preset("x", 3)) for label in (second, first)] == [1, 2]
    assert [coding.table2("x")[column, k] for k in (1, 2)] == [second, first]


def test_one_state_is_read_out_once(monkeypatch):
    # Each product with a spin's readout rows records the rows; a second read-out reads none.
    reads = []

    class Rows(np.ndarray):
        def __matmul__(self, v):
            return reads.append(self) or np.asarray(self) @ v

    rows = tuple(np.asarray(r).view(Rows) for r in nmr._READOUT_ROWS)
    monkeypatch.setattr(nmr, "_READOUT_ROWS", rows)
    rho = nmr.basis_pseudo_pure(BasisLabel.DU)
    for _ in range(2):
        nmr.predict_spectrum(rho, 1), nmr.predict_spectrum(rho, 2), nmr.spectrum_fingerprint(rho)
    assert [id(r) for r in reads] == [id(r) for r in rows]


def test_the_prep_tail_is_one_read_only_value_at_every_gamma_ratio():
    # The prep's runs after its first crush read no gamma_ratio and no J != 0.
    tail = nmr._PREP_TAIL
    assert tail.shape == (16, 4) and not tail.flags.writeable
    with pytest.raises(ValueError):
        tail[0, 0] = 0.0
    for consts in (nmr.PhysicalConstants(gamma_ratio=0.75), nmr.PhysicalConstants(gamma_ratio=9.0),
                   nmr.PhysicalConstants(j_hz=37.5)):
        _, *rest = nmr.gate_library("pseudo-pure-prep", consts=consts).segments
        assert rest == list(nmr._PREP_AFTER_ALPHA.segments[1:])
        assert nmr._after_crush(tuple(rest), consts).tobytes() == tail.tobytes()


def test_the_prep_checks_its_thermal_start_before_reading_its_tail(monkeypatch):
    # gamma_ratio = inf, forged past `PhysicalConstants`' check, is refused as a deviation
    # matrix with a non-finite entry is: after J, and with no tail to read.
    monkeypatch.setattr(nmr, "_PREP_TAIL", None)
    for j_hz, message in ((97.5, "^deviation matrix must be Hermitian$"), (0.0, "uncoupled pair")):
        consts = object.__new__(nmr.PhysicalConstants)
        vars(consts).update(vars(nmr.DEFAULT_CONSTANTS), j_hz=j_hz, gamma_ratio=np.inf)
        with pytest.raises(ValueError, match=message):
            nmr.prepare_pseudo_pure(consts)

"""The tolerances in `src/`: each named once, in `qstate`, and read by name.

A float literal below 1e-3 anywhere else in the package is a tolerance
without a name, and a new name in `qstate` changes this inventory, so
either has to change this test and say why.
"""

import ast
from pathlib import Path

import densegrover
from densegrover import qstate

SOURCES = sorted(Path(densegrover.__file__).resolve().parent.glob("*.py"))

TOLERANCES = {
    "EXACT_TOL": 1e-12,
    "VERIFY_TOL": 1e-9,
    "REFERENCE_TOL": 1e-9,
    "CLASSIFY_TOL": 1e-9,
    "DISPLAY_ZERO": 1e-9,
    "PRESET_TOL": 1e-15,
    "SIGN_TOL": 1e-6,
}


def small_floats(tree: ast.AST) -> list:
    """Each float literal of magnitude below 1e-3, other than 0, in any expression of tree."""
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and type(node.value) is float and 0 < abs(node.value) < 1e-3]


def named_small_floats(tree: ast.Module) -> dict:
    """Module-level names bound to such a literal itself, by plain or annotated assignment."""
    named = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if small_floats(node.value):
                named.update({target.id: node.value.value for target in targets})
    return named


def test_no_small_float_literal_outside_qstate():
    found = {path.name: small_floats(ast.parse(path.read_text("utf-8")))
             for path in SOURCES if path.stem != "qstate"}
    assert {name: literals for name, literals in found.items() if literals} == {}


def test_qstate_names_exactly_the_expected_tolerances():
    tree = ast.parse(Path(qstate.__file__).read_text("utf-8"))
    assert named_small_floats(tree) == TOLERANCES
    # Each small literal in qstate is one of these bindings, and each reads as written.
    assert sorted(small_floats(tree)) == sorted(TOLERANCES.values())
    assert {name: getattr(qstate, name) for name in TOLERANCES} == TOLERANCES


def test_only_the_phase_match_and_the_verifier_take_a_tolerance():
    takes = {(path.stem, node.name) for path in SOURCES for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.FunctionDef) and "tol" in [a.arg for a in node.args.args + node.args.kwonlyargs]}
    assert takes == {("qstate", "equal_up_to_phase"), ("nmr", "verify_realization")}


def test_the_scan_sees_each_literal_form():
    tree = ast.parse(
        "A = 1e-9\nB: float = 2e-12\nC = 0.5\nZERO = 0.0\nN = 7\n"
        "def f(x, tol=1e-6):\n    return abs(x) < 1e-15 or x > -3e-4 or x == 1e-3\n"
        "g = lambda x: x * 5e-10\n"
    )
    assert sorted(small_floats(tree)) == sorted([1e-9, 2e-12, 1e-6, 1e-15, 3e-4, 5e-10])
    assert named_small_floats(tree) == {"A": 1e-9, "B": 2e-12}

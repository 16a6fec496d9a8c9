"""Span tracer installed from outside the program.

`Tracer.install` replaces each traced callable of `densegrover` with a
wrapper that records a span, and also rebinds every alias another
module imported by name (for example `coding.build_G`, `grover.compose`)
and the package re-exports.  `uninstall` restores the originals, so an
untraced pass runs the unmodified program.

A span is (name, op id, parent span id, start, end).  Spans stay in
memory, in compact arrays, until `summary` reduces them.  A span's self
time is its duration minus the time its child spans cover; spans of one
thread nest, so the children's durations add up to their coverage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

# Traced callables per layer, as attribute paths inside the module.
# `Class.__post_init__` is reported as `Class.init`.  A callable the
# program no longer has is skipped and reports zero.
TRACED = {
    "qstate": (
        "Operator4.__post_init__",
        "compose",
        "apply",
        "scaled",
        "single_spin_rotation",
        "measure_basis",
    ),
    "bell": ("to_bell_coords",),
    "grover": ("build_U", "build_G", "build_G_inverse", "table1"),
    "coding": ("run_protocol", "run_ancilla_protocol", "table2", "decode", "encoder"),
    "nmr": (
        "DeviationMatrix.__post_init__",
        "element_unitary",
        "element_channel",
        "simulate_sequence",
        "verify_realization",
        "prepare_pseudo_pure",
        "gate_library",
        "ideal_gate_unitary",
        "predict_spectrum",
        "spectrum_fingerprint",
        "protocol_sequence",
    ),
    "cli": ("main",),
}

OP = "op"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('.__post_init__', '.init')}"


SPAN_NAMES = tuple(span_name(m, p) for m, paths in TRACED.items() for p in paths)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Records spans of the traced callables while installed."""

    def __init__(self):
        self.names = [OP, *SPAN_NAMES]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.op_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._op = -1
        self._patches = []
        # Layer counters recorded at the same boundaries as the spans.
        self.elements = 0
        self.unitary_calls = 0
        self.unitary_repeats = 0
        self._seen_elements = set()

    # -- spans -------------------------------------------------------------

    def _begin(self, name_id: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(name_id)
        self.op_ids.append(self._op)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _end(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark operation."""
        self._op = op_id
        return self._begin(0)

    def end_op(self, sid: int) -> None:
        self._end(sid)

    def start_pass(self) -> None:
        """Forget which (element, constants) pairs were seen."""
        self._seen_elements.clear()

    # -- layer counters ----------------------------------------------------

    def _count_elements(self, args, kwargs):
        self.elements += len(_first_arg(args, kwargs, "seq"))

    def _note_unitary(self, default_consts, args, kwargs):
        element = _first_arg(args, kwargs, "e")
        consts = args[1] if len(args) > 1 else kwargs.get("consts", default_consts)
        key = (element, consts)
        self.unitary_calls += 1
        if key in self._seen_elements:
            self.unitary_repeats += 1
        else:
            self._seen_elements.add(key)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        name_id = self._ids[name]
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            sid = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)

        return wrapper

    def _note_for(self, name: str, fn):
        if name == "nmr.simulate_sequence":
            return self._count_elements
        if name == "nmr.element_unitary":
            consts = inspect.signature(fn).parameters.get("consts")
            default = None if consts is None else consts.default
            return functools.partial(self._note_unitary, default)
        return None

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "densegrover" or n.startswith("densegrover."))]
        for module_name, paths in TRACED.items():
            module = importlib.import_module(f"densegrover.{module_name}")
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                name = span_name(module_name, path)
                wrapper = self._wrap(name, original, self._note_for(name, original))
                self._patch(owner, attr, wrapper)
                if owner_name:
                    continue
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, alias, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the layer counters.

        The result is additive: summaries of separate processes merge
        with `merge_summaries`.
        """
        n = len(self.starts)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                covered[parent] += ends[sid] - starts[sid]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        op_s = 0.0
        for sid in range(n):
            name = self.names[self.name_ids[sid]]
            duration = ends[sid] - starts[sid]
            calls[name] += 1
            self_s[name] += duration - covered[sid]
            if parents[sid] < 0:
                op_s += duration
        return {
            "calls": calls,
            "self_s": self_s,
            "op_s": op_s,
            "elements": self.elements,
            "unitary_calls": self.unitary_calls,
            "unitary_repeats": self.unitary_repeats,
        }


def merge_summaries(summaries) -> dict:
    merged = {"calls": {}, "self_s": {}, "op_s": 0.0, "elements": 0,
              "unitary_calls": 0, "unitary_repeats": 0}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("op_s", "elements", "unitary_calls", "unitary_repeats"):
            merged[key] += s[key]
    return merged

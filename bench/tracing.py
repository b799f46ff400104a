"""Span tracing of qcorr from outside, for the benchmark's traced runs.

qcorr's modules import each other's functions by name, so a function is
wrapped in every module namespace that holds it (``qcorr.dynamics.evolved_vector``
as well as ``qcorr.channels.evolved_vector``), one wrapper per function.  The
validation hooks of CorrelationVector and XState and numpy's eigen and SVD
routines are wrapped the same way.  A span is recorded only while an op is
open, so the benchmark's own reference checks stay out of the figures.

Aggregates (calls, inclusive and self time per span name, layer times and
counters) cover every span; the spans themselves are kept in memory up to
SPAN_CAP and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "verify", "oracles", "sampling", "dynamics", "relations", "quantifiers", "channels", "states")
SPAN_CAP = 100_000
_LINALG = ("eigvalsh", "eigh", "svd")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.op_id: int | None = None
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op id)
        self.dropped = 0
        self.calls = Counter()
        self.incl = defaultdict(float)      # inclusive seconds per span name
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.layer_incl = defaultdict(float)  # outermost spans of each layer
        self.top_time = 0.0  # seconds covered by spans without a parent
        self.counters = Counter()
        self._stack: list[list] = []  # [span id, name, start, covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, covered = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - covered
        if parent is not None:
            parent[3] += dur
        else:
            self.top_time += dur
        if parent is None or _layer(parent[1]) != _layer(name):
            self.layer_incl[_layer(name)] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else None, name, start, end, self.op_id))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, namer=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    # ------------------------------------------------------------ installing

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every qcorr layer in every namespace that holds them."""
        mods = {layer: importlib.import_module("qcorr." + layer) for layer in LAYERS}
        from qcorr.oracles import OracleResult
        from qcorr.states import CorrelationVector, XState

        def count_evaluations(result, args):
            if isinstance(result, OracleResult):
                self.counters["oracle_evaluations"] += result.evaluations

        def count_draw(result, args):
            if self.parent_name() == "sampling.random_entangled_xstate":
                self.counters["entangled_draws"] += 1

        def classical_name(args, kwargs):
            norm = kwargs.get("norm", args[1] if len(args) > 1 else None)
            return "oracles.closest_classical.%s" % norm.value

        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("qcorr.") or not (
                    isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                ):
                    continue
                if obj not in wrappers:
                    name = "%s.%s" % (home.split(".", 1)[1], obj.__name__)
                    hooks = {}
                    if name.startswith("oracles."):
                        hooks["on_result"] = count_evaluations
                    if name == "oracles.closest_classical":
                        hooks["namer"] = classical_name
                    if name == "sampling.random_xstate":
                        hooks["on_result"] = count_draw
                    wrappers[obj] = self.wrap(name, obj, **hooks)
                self._set(mod, attr, wrappers[obj])

        for cls in (CorrelationVector, XState):
            self._set(cls, "__post_init__", self.wrap("states.%s.validate" % cls.__name__, cls.__post_init__))

        for fname in _LINALG:
            original = getattr(np.linalg, fname)

            def counted(a, *args, _fn=original, _name="numpy.linalg." + fname, **kwargs):
                if self.op_id is None:
                    return _fn(a, *args, **kwargs)
                shape = np.shape(a)
                self.counters["eig_matrices"] += int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
                self.counters["eig_calls"] += 1
                frame = self._enter(_name)
                try:
                    return _fn(a, *args, **kwargs)
                finally:
                    self._exit(frame)

            self._set(np.linalg, fname, counted)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def layer_self(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, t in self.self_time.items():
            out[_layer(name)] += t
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")

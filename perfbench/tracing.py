"""Per-layer tracing of relspan from outside the program.

install() wraps every public function of each relspan module, plus the
graph and edge-sink methods named in METHODS, and patches each wrapped name
wherever a relspan module binds it (``from .graph_core import ...`` makes a
second binding).  Each wrapper records calls, total time and self time: its
own duration minus the time of wrapped calls made inside it.  A few wrappers
also count work from their arguments or results (COUNTERS).

A name the benchmark expects but the program no longer has is reported as
absent, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

MODULES = ("graph_core", "streams", "expanders", "spanner1d", "shadow", "quadtree",
           "lso", "spanner_euclidean", "harness", "cli")

_SINKS = ("DenseEdgeSink", "SparseEdgeSink")
# group name -> methods it covers, as (module, class, method)
METHODS = {
    "graph_core.from_pairs": [("graph_core", "WeightedGraph", "from_pairs")],
    "graph_core.right_bits": [("graph_core", "WeightedGraph", "right_bits")],
    "graph_core.save_edges": [("graph_core", "WeightedGraph", "save_edges")],
    "graph_core.sink_add": [("graph_core", cls, meth) for cls in _SINKS
                            for meth in ("add_pairs", "add_block", "add_index_block",
                                         "add_band")],
    "graph_core.sink_extract": [("graph_core", cls, "extract") for cls in _SINKS],
}


def _band_pairs(n: int, width: int) -> int:
    return int(np.minimum(np.arange(n, dtype=np.int64), width).sum())


# name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "graph_core.shortest_path_matrix":
        lambda a, k, r: {"sources": int(np.size(k.get("sources", a[2] if len(a) > 2 else ())))},
    "harness.certify": lambda a, k, r: {"pairs_checked": int(r.pairs_checked)},
    "quadtree.build_wspd": lambda a, k, r: {"pairs": len(r)},
    "graph_core.sink_extract": lambda a, k, r: {"edges": int(len(r[0]))},
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._child_time: list[float] = []  # one slot per open wrapped call
        self._sink_depth = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, name: str, fn, count=None):
        stat = self.stat(name)
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + inc
            return result

        return wrapper

    def _wrap_sink_add(self, name: str, fn, method: str):
        """Sink adds count emitted pairs at the outermost add only, since
        one sink method may call another."""
        inner = self._wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(sink, *args, **kwargs):
            outer = tracer._sink_depth == 0
            tracer._sink_depth += 1
            try:
                result = inner(sink, *args, **kwargs)
            finally:
                tracer._sink_depth -= 1
            if outer:
                stat = tracer.stats[name]
                pairs = _emitted(sink, method, args, kwargs)
                stat.counters["pairs"] = stat.counters.get("pairs", 0) + pairs
            return result

        return wrapper

    def install(self, package: str = "relspan") -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                self.absent.append(short)
        originals = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                originals[id(obj)] = self._wrap(name, obj, COUNTERS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(mod, attr, wrapper)
        for group, targets in METHODS.items():
            found = 0
            for short, cls_name, meth in targets:
                cls = getattr(modules.get(short), cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    self.absent.append(f"{short}.{cls_name}.{meth}")
                    continue
                found += 1
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if group == "graph_core.sink_add":
                    wrapped = self._wrap_sink_add(group, fn, meth)
                else:
                    wrapped = self._wrap(group, fn, COUNTERS.get(group))
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
            if not found:
                self.stats.pop(group, None)

    def per_round(self, rounds: int) -> dict:
        """Every recorded stat divided by the number of rounds run."""
        out = {}
        for name, st in sorted(self.stats.items()):
            entry = {"calls": st.calls / rounds, "total_s": st.total_s / rounds,
                     "self_s": st.self_s / rounds}
            entry.update({key: val / rounds for key, val in st.counters.items()})
            out[name] = entry
        return out


def _emitted(sink, method: str, args, kwargs) -> int:
    """Pairs one top-level add_* call emits, from its arguments."""
    vals = list(args) + list(kwargs.values())
    if method == "add_block":
        a0, a1, b0, b1 = vals
        return max(0, a1 - a0) * max(0, b1 - b0)
    if method == "add_band":
        return _band_pairs(sink.n, vals[0])
    if method == "add_index_block":
        return len(vals[0]) * len(vals[1])
    return len(vals[0])  # add_pairs

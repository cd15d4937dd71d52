"""Spans around the public functions of eqknot's modules, recorded from
outside the program.

A wrapper replaces a function in every eqknot module namespace that
holds it (a name imported with `from .lattice import signature` is a
separate binding in the importing module, and a call through it would
bypass a wrapper installed only in the defining module). Spans are kept
in flat arrays and written out at the end; self time and the per-layer
counts are derived from them.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from array import array

MODULES = ("lattice", "checkerboard", "embedsearch", "gsignature", "bounds",
           "cli")

# Counts recorded at the same boundary as the span: name -> f(result).
COUNTERS = {
    "embedsearch.enumerate_embeddings": ("embeddings", len),
    "embedsearch.enumerate_vectors": ("vectors", len),
    "embedsearch.orbit_classes": ("classes", len),
    "embedsearch.equivariant_delta": ("found", lambda r: r is not None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.stack = [-1]
        self.op = -1
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self._saved = []

    # -------------------------------------------------------- recording
    def _wrap(self, name, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.stack[-1])
            tr.span_op.append(tr.op)
            tr.span_end.append(0.0)
            tr.stack.append(idx)
            tr.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = clock()
                tr.stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                tr.counts[key] = tr.counts.get(key, 0) + counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def install(self):
        """Wrap every public function defined in MODULES, in every eqknot
        namespace that refers to it."""
        spaces = [m for n, m in sys.modules.items()
                  if n == "eqknot" or n.startswith("eqknot.")]
        for short in MODULES:
            mod = sys.modules[f"eqknot.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for space in spaces:
                    for key, value in list(vars(space).items()):
                        if value is fn:
                            self._saved.append((space, key, fn))
                            setattr(space, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for space, key, fn in reversed(self._saved):
            setattr(space, key, fn)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)

    # ---------------------------------------------------------- derived
    def self_times(self):
        """Per span: duration minus the durations of its direct children
        (calls are nested and single-threaded, so children never overlap)."""
        n = len(self.span_start)
        self_t = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                self_t[p] -= self.span_end[i] - self.span_start[i]
        return self_t

    def totals(self):
        """name -> (calls, self seconds)."""
        out = {name: [0, 0.0] for name in self.names}
        for i, t in enumerate(self.self_times()):
            entry = out[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += t
        return out

    def children(self, parent):
        return [i for i in range(len(self.span_start))
                if self.span_parent[i] == parent]

    def write(self, path):
        with open(path, "w") as f:
            f.write("op,span,parent,name,start,end\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.span_op[i]},{i},{self.span_parent[i]},"
                        f"{self.names[self.span_name[i]]},"
                        f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")


def span_tree_problem(tracer, class_count):
    """Check the spans of one `obstruct` call in strict sign mode: one
    donaldson_obstruction call leads to one enumerate_embeddings, one
    orbit_classes and class_count equivariant_delta calls. Returns None
    when the tree is as expected, else what is wrong."""
    name = tracer.names
    top = "embedsearch.donaldson_obstruction"
    tops = [i for i in range(len(tracer.span_start))
            if name[tracer.span_name[i]] == top]
    if len(tops) != 1:
        return f"{len(tops)} donaldson_obstruction spans, expected 1"
    kids = [name[tracer.span_name[i]] for i in tracer.children(tops[0])]
    want = {"embedsearch.enumerate_embeddings": 1,
            "embedsearch.orbit_classes": 1,
            "embedsearch.equivariant_delta": class_count}
    got = {n: kids.count(n) for n in want}
    if got != want:
        return f"donaldson_obstruction children {got}, expected {want}"
    return None

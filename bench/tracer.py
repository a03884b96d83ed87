"""Span tracer that wraps the public functions of the package's layers from outside.

``Tracer.install()`` replaces every public function defined in a layer module
with a wrapper that records a span (name, start, end, parent, request).  The
function is re-bound wherever a module of the package holds it, for example
both ``entrobell.bell.binned_joint`` and ``entrobell.entropy.binned_joint``,
so calls between layers are seen too.  ``uninstall()`` restores every binding.
The package's own files are not modified.

Spans live in flat arrays while tracing and are reduced at the end: a span's
self time is its duration less the durations of its direct children.  The
program is traced in one thread; the benchmark unsets ENTROBELL_THREADS so the
package runs serially.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "entrobell"
LAYERS = ("cli", "bell", "entropy", "coarse_grain", "gaussian_core", "experiment_sim")


# Counters taken at the same boundary as the span, from arguments or result.
COUNTERS = {
    "coarse_grain.binned_joint": lambda args, kwargs, result: {"cells": result.probs.size},
    "entropy.shannon": lambda args, kwargs, result: {"entries": np.asarray(args[0]).size},
    "bell.minimize": lambda args, kwargs, result: {"nfev": result.n_evaluations},
    "experiment_sim.sample_pairs": lambda args, kwargs, result: {"shots": result.n},
    "experiment_sim.bin_counts": lambda args, kwargs, result: {"cells": result.size},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict[str, dict[str, int]] = {}
        self.request_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    yield f"{layer}.{attr}", fn

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self._targets()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {})
        stack, t0s, t1s = self._stack, self.t0, self.t1
        span_names, parents, requests = self.span_name, self.parent, self.request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0s)
            parents.append(stack[-1] if stack else -1)
            span_names.append(nid)
            requests.append(self.request_id)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + int(inc)
            return result

        return traced

    # -- reduction ------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        return {
            "t0": np.array(self.t0, dtype=float),
            "t1": np.array(self.t1, dtype=float),
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict]:
        """Per traced function: calls, total and self seconds, p50 ms, counters."""
        s = self.spans()
        n = len(s["t0"])
        dur = s["t1"] - s["t0"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = s["name"] == nid
            calls = int(mask.sum())
            out[name] = {
                "calls": calls,
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "p50_ms": float(np.median(dur[mask]) * 1e3) if calls else 0.0,
                **self.counts.get(name, {}),
            }
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Spans and counts as one .npz file; `extra` is stored as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans(),
                 summary=json.dumps({"functions": self.summary(), **extra}))

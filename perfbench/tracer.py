"""Spans around pfcert's public functions, recorded from outside the package.

install() replaces every public function of every pfcert module with a
timing wrapper, in every pfcert module namespace that binds it, so calls
made through `from .stress import compute_stress` are seen as well. Spans
stay in memory until the benchmark writes them out. A function that calls
itself (dumps_stable) records only its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import pfcert


def reduction_bytes(red) -> int:
    """Computed bytes of the dense n x n arrays a GridReduction holds (shared arrays once)."""
    arrays = {id(v): v for v in vars(red).values() if isinstance(v, np.ndarray) and v.ndim == 2}
    return sum(a.nbytes for a in arrays.values())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op, iterations, converged, bytes)
        self.op = -1  # operation index the next spans belong to; -1 is set-up
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._active.add(name)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._active.discard(name)
                tracer._stack.pop()
                nbytes = reduction_bytes(result) if type(result).__name__ == "GridReduction" else None
                tracer.spans[index] = (name, start, end, parent, tracer.op, getattr(result, "iterations", None),
                                       getattr(result, "converged", None), nbytes)

        return traced

    def install(self) -> None:
        modules = [pfcert] + [
            importlib.import_module(f"pfcert.{info.name}") for info in pkgutil.iter_modules(pfcert.__path__)
        ]
        originals = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", "") or "").startswith("pfcert"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, op, iterations, converged, nbytes = span
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op,
                                     "iterations": iterations, "converged": converged, "bytes": nbytes}) + "\n")

    def absorb(self, path: Path) -> None:
        """Append the spans a child process wrote to `path`, as part of the current operation."""
        base = len(self.spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                s = json.loads(line)
                parent = s["parent"] + base if s["parent"] >= 0 else -1
                self.spans.append((s["name"], s["start"], s["end"], parent, self.op,
                                   s["iterations"], s["converged"], s["bytes"]))
        path.unlink()

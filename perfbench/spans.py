"""Span tracing of the program's layers, recorded from outside the program.

``Tracer.install`` wraps every public function of the layers ``params``,
``observables``, ``fock``, ``lindblad`` and ``cli`` (module-level functions
and public methods of the classes defined there), under every module name
that binds it: ``cli.evolve_trajectory`` and ``lindblad.evolve_trajectory``
are the same function and get the same wrapper, so a call through either
binding is one span named ``lindblad.evolve_trajectory``.  ``uninstall``
puts the originals back.

Spans live in flat arrays while the traced pass runs and are written out
once at the end.  Each span keeps its parent, so self time is the span's
duration minus the durations of its direct children; every span of one
benchmark operation carries that operation's index.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

LAYERS = ("params", "observables", "fock", "lindblad", "cli")
PACKAGE = "ioncavity"


def _layer_targets() -> Dict[object, Tuple[str, object, str]]:
    """Map each public function of the layers to (span name, owner, attribute).

    The owner is the class for methods and None for module-level functions,
    whose bindings are found by scanning the package's modules.
    """
    targets = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                targets[value] = (f"{layer}.{attr}", None, attr)
            elif inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets[fn] = (f"{layer}.{attr}.{meth}", value, meth)
    return targets


class Tracer:
    """Records nested spans around the program's public functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.op_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        perf = time.perf_counter
        stack, starts, ends, open_span = self._stack, self.start, self.end, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self) -> None:
        targets = _layer_targets()
        wrappers = {fn: self._wrap(name, fn) for fn, (name, _, _) in targets.items()}
        for fn, (_, owner, attr) in targets.items():
            if owner is not None:
                self._patch(owner, attr, fn, wrappers[fn])
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, value, wrappers[value])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, index: int, name: str) -> Iterator[None]:
        """Root span of one benchmark operation; its spans share ``index``."""
        self._op = index
        idx = self._open(self._name_id(f"op.{name}"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self._op = -1

    def summary(self) -> Dict[str, float]:
        """Per-function and per-layer calls, total and self seconds.

        ``<fn>.s`` counts each span once even when the function calls itself
        (only spans with no ancestor of the same function are summed).
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        label = [self.names[k] for k in self.name_of]
        out: Dict[str, float] = defaultdict(float)
        for i in range(n):
            name = label[i]
            if name.startswith("op."):
                continue
            layer = name.split(".", 1)[0]
            self_s = dur[i] - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            p = self.parent[i]
            while p >= 0 and label[p] != name:
                p = self.parent[p]
            if p < 0:
                out[f"{name}.s"] += dur[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV: op, span, parent, name, start and end (s)."""
        t_ref = min(self.start) if len(self.start) else 0.0
        lines = ["op,span,parent,name,start_s,end_s"]
        for i in range(len(self.start)):
            lines.append(
                f"{self.op_of[i]},{i},{self.parent[i]},{self.names[self.name_of[i]]},"
                f"{self.start[i] - t_ref:.9f},{self.end[i] - t_ref:.9f}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

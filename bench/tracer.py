"""Span tracing of critheat's public functions, installed from outside.

`install` wraps every public function of the critheat modules under every
module name that binds it (`transform_inverse`, for example, is bound in
`spectral`, `evolution`, `diagnostics` and the package itself),
so a call is traced whichever namespace it is looked up in. Each call
appends one span (name, parent span, start, end, bytes) to an in-memory
list; nothing is written until `Tracer.dump` at the end of the run.

`aggregate` turns a span list into per-function totals: calls, inclusive
time, self time (inclusive time minus the time of directly nested traced
calls) and, for the transforms, the computed size of their input arrays.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = ("spectral", "evolution", "diagnostics", "experiments", "decay", "bubble", "config")

# transforms whose input array size is recorded as the span's byte count
_BYTE_ARGS = {
    "spectral.transform_forward": lambda field: field.values.nbytes,
    "spectral.transform_inverse": lambda field: field.coefficients.nbytes,
}


class Tracer:
    """Collects spans in memory; a stack of open span indices gives the parent."""

    def __init__(self) -> None:
        # one span: [name, parent index or -1, start, end, bytes]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        nbytes = _BYTE_ARGS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    nbytes(args[0]) if nbytes else 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap the public critheat functions in place."""
    package = importlib.import_module("critheat")
    namespaces = [package] + [importlib.import_module(f"critheat.{m}") for m in MODULES]
    wrapped: dict[int, object] = {}
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("critheat."):
                continue
            if id(obj) not in wrapped:
                short = obj.__module__.removeprefix("critheat.")
                wrapped[id(obj)] = tracer.wrap(f"{short}.{obj.__name__}", obj)
            setattr(ns, attr, wrapped[id(obj)])


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-function calls, inclusive seconds, self seconds and input bytes.

    Spans nest strictly (one thread, wrappers close in order), so the part
    of a span covered by its children is the sum of the children's lengths.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, parent, start, end, nbytes) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["bytes"] += nbytes
    return totals


def count_children(spans: list[list], child: str, parent: str) -> int:
    """Number of `child` spans whose direct parent is a `parent` span."""
    return sum(
        1 for name, p, *_ in spans if name == child and p >= 0 and spans[p][0] == parent
    )

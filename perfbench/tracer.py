"""Spans around the calls into tachys, recorded from outside the package.

``Tracer.enable`` replaces every public function of the package modules by a
timing wrapper, in every module namespace that binds it.  Rebinding only
``tachys.smallmat.propagator`` would miss the calls that ``opendyn``,
``brachistochrone`` and ``dilation`` make through their own
``from .smallmat import propagator`` bindings, so the wrapper goes wherever
the function object is found.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

#: the layers, in the order reports list them; ``tachys`` itself is set-up
LAYERS = ("smallmat", "brachistochrone", "metric", "opendyn", "dilation", "gates", "cli")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, sizers=None):
        """``sizers`` maps a function name to ``f(result)``, the work one
        call did (rows, samples, hits); calls of other functions count 1."""
        self.sizers = sizers or {}
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1, operation id, size)
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[int] = []
        # (module, attribute, original, wrapper)
        self._bindings: list[tuple] = []

    def install(self) -> None:
        """Find every binding of a public function and build its wrapper;
        ``enable`` and ``disable`` then swap the bindings in and out."""
        package = importlib.import_module("tachys")
        modules = [importlib.import_module(f"tachys.{name}") for name in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            public = getattr(mod, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for mod in [package, *modules]:
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    self._bindings.append((mod, attr, value, wrappers[id(value)]))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        sizer = self.sizers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, returned = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                size = sizer(result) if sizer is not None and returned else 1
                spans[idx] = (name_id, start, end, parent, self.op_id, size)

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Calls are strictly nested on one thread, so children never overlap
        and the covered time is the sum of the direct children's durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [span[2] - span[1] - covered[i] for i, span in enumerate(self.spans)]

    def by_function(self) -> dict[str, dict]:
        """Per function name: call count, total self time, and per call its
        duration, operation id and size."""
        out = {name: {"calls": 0, "self_s": 0.0, "durations": [], "ops": [], "sizes": []}
               for name in self.names}
        for span, own in zip(self.spans, self.self_times()):
            name_id, start, end, _, op_id, size = span
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(end - start)
            entry["ops"].append(op_id)
            entry["sizes"].append(size)
        return out

    def write_spans(self, path) -> None:
        """Write spans as CSV, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op,size\n")
            for name_id, start, end, parent, op_id, size in self.spans:
                fh.write(f"{self.names[name_id]},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{op_id},{size}\n")


def median_us(durations) -> float:
    return 1e6 * statistics.median(durations) if durations else 0.0

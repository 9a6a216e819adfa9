"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the given modules with
a wrapper that records a span (name, start, end, parent, step) around the
call. Calls between the program's modules go through module attributes
(``hyena.forward``, ``dln.extract_features``) and calls inside a module go
through its globals, so both reach the wrappers; private helpers
(``hyena._backward``) are timed as part of their public caller. ``uninstall``
puts the original functions back. The wrappers only pass arguments and
results through, so a traced run computes bit-identical results; the
benchmark checks that.

With ``memory=True`` each span also records the peak ``tracemalloc``
allocation during the call, above what was allocated at entry. tracemalloc
slows allocation-heavy Python code by about 2x, so the benchmark takes
timings and peaks in separate passes.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict


class _Frame:
    __slots__ = ("span", "child_s", "entry_bytes", "peak_bytes")

    def __init__(self, span: dict, entry_bytes: int):
        self.span = span
        self.child_s = 0.0
        self.entry_bytes = entry_bytes
        self.peak_bytes = 0


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.step = -1
        self._stack: list[_Frame] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(fn, f"{short}.{name}"))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, fn, label: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _enter(self, label: str) -> None:
        entry_bytes = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                # Resetting the peak below would lose the caller's peak so far.
                parent = self._stack[-1]
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
            entry_bytes = current
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1].span["id"] if self._stack else None,
            "name": label,
            "step": self.step,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(_Frame(span, entry_bytes))

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        span = frame.span
        span["end"] = end
        duration = end - span["start"]
        span["self"] = duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if self.memory:
            peak = max(frame.peak_bytes, tracemalloc.get_traced_memory()[1])
            span["peak_alloc"] = peak - frame.entry_bytes
            if self._stack:
                parent = self._stack[-1]
                parent.peak_bytes = max(parent.peak_bytes, peak)


def summarize(spans: list[dict], per: int, prefix: str) -> dict[str, float]:
    """Per-step figures for every traced function, keyed ``<prefix>.<name>_<unit>``.

    ``_ms`` is inclusive time, ``_self_ms`` excludes child spans, ``_calls``
    is the call count; all three are divided by ``per`` (the steps or batches
    in the pass). ``_peak_alloc_mb`` is the largest per-call peak, when the
    spans carry one.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    peak = defaultdict(int)
    for s in spans:
        name = s["name"]
        total[name] += s["end"] - s["start"]
        own[name] += s["self"]
        calls[name] += 1
        if "peak_alloc" in s:
            peak[name] = max(peak[name], s["peak_alloc"])
    out = {}
    for name in total:
        key = f"{prefix}.{name}"
        out[key + "_ms"] = 1e3 * total[name] / per
        out[key + "_self_ms"] = 1e3 * own[name] / per
        out[key + "_calls"] = calls[name] / per
        if name in peak:
            out[key + "_peak_alloc_mb"] = peak[name] / 2**20
    return out

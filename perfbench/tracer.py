"""Span tracer that wraps the program's functions from outside.

Targets are named by module attribute (``eoscatter.model1.interior_step_m1``,
``eoscatter.history.DelayBuffer.query_each``) and replaced in place for the
life of the tracer.  A target that no longer exists is reported as missing
instead of failing, so the trace survives refactors that move code.

Each thread keeps its own stack of open spans.  A span's self time is its
duration minus the durations of the spans it opened on the same thread;
spans opened on other threads (the stability pool) are top-level spans of
their own thread and are never subtracted from the span that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time


def resolve(target: str):
    """``(owner, attribute name)`` of a dotted target, or None if missing."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class _Frame:
    __slots__ = ("layer", "start", "child", "n", "extra", "cpu")

    def __init__(self, layer, start, n):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.n = n
        self.extra = 0.0
        self.cpu = 0.0


class Tracer:
    """Aggregates calls, total time and self time per (layer, grid size).

    Layers listed in ``keep`` also keep every span as
    ``(layer, thread id, start, end, n, extra, thread cpu s)``; the thread's
    CPU time is read only for them, so it costs nothing on hot layers.
    """

    def __init__(self, clock=time.perf_counter, keep=(),
                 cpu_clock=time.thread_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._keep = frozenset(keep)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict = {}      # (layer, n) -> [calls, total, self]
        self.counts: dict = {}     # counter name -> int
        self.spans: list = []
        self.missing: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def stack(self) -> list:
        """Open spans of the calling thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self):
        """Innermost open span of the calling thread, or None."""
        stack = self.stack()
        return stack[-1] if stack else None

    def enter(self, layer: str, n=None) -> _Frame:
        stack = self.stack()
        if n is None and stack:
            n = stack[-1].n
        frame = _Frame(layer, self._clock(), n)
        if layer in self._keep:
            frame.cpu = self._cpu_clock()
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> None:
        end = self._clock()
        if frame.layer in self._keep:
            frame.cpu = self._cpu_clock() - frame.cpu
        stack = self.stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        key = (frame.layer, frame.n)
        with self._lock:
            row = self.stats.get(key)
            if row is None:
                row = self.stats[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - frame.child
            if frame.layer in self._keep:
                self.spans.append((frame.layer, threading.get_ident(),
                                   frame.start, end, frame.n, frame.extra,
                                   frame.cpu))

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, fn, grid_n=None):
        """Wrap ``fn`` in a span.  ``grid_n(*args, **kw)`` names the grid
        size the span and its children run at; otherwise it is inherited."""

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            n = grid_n(*args, **kw) if grid_n is not None else None
            frame = self.enter(layer, n)
            try:
                return fn(*args, **kw)
            finally:
                self.leave(frame)

        return wrapper

    def counter(self, name: str, fn, hook=None):
        """Wrap ``fn`` to count calls; ``hook(result, *args, **kw)`` may
        count more."""

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            self.count(name)
            if hook is not None:
                hook(out, *args, **kw)
            return out

        return wrapper

    def patch(self, target: str, make) -> bool:
        """Replace ``target`` by ``make(original)``; False if it is missing."""
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return False
        owner, name = found
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (staticmethod, classmethod)):
            self.missing.append(target)
            return False
        self._patched.append((owner, name, original))
        setattr(owner, name, make(getattr(owner, name)))
        return True

    def unpatch(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- reading -----------------------------------------------------------

    def layer(self, layer: str, n=...):
        """``(calls, total s, self s)`` of a layer, summed over grid sizes
        unless ``n`` is given."""
        calls = total = self_s = 0
        with self._lock:
            for (name, size), row in self.stats.items():
                if name == layer and (n is ... or size == n):
                    calls += row[0]
                    total += row[1]
                    self_s += row[2]
        return calls, total, self_s

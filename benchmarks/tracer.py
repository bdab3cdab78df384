"""Spans around the calls into each layer of the program, from outside it.

``Tracer.install`` replaces module attributes that the library calls through
(``series.eval_series``, ``identities.duplicate``, ...) with wrappers that
record a span: name, start, end and parent. Aggregates are kept per phase of
the benchmark round; a bounded sample of raw spans is kept for the results
file. A span's self time is its duration minus the time its children cover
(the union of their intervals, since grid rows run on worker threads).

No file of the program changes; ``Tracer.restore`` puts every attribute back.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from time import perf_counter

#: (module, attribute, span name). The span is named after the function it
#: wraps, so calls reaching one function through two modules aggregate.
WRAPPED = (
    ("series", "eval_series", "series.eval_series"),
    ("series", "generate_series", "series.generate_series"),
    ("identities", "duplicate", "identities.duplicate"),
    ("evaluator", "reduce_to_fundamental", "evaluator.reduce_to_fundamental"),
    ("evaluator", "sm_cm", "evaluator.sm_cm"),
    ("evaluator", "wp", "evaluator.wp"),
    ("render", "sm_cm", "evaluator.sm_cm"),
    ("render", "wp", "evaluator.wp"),
    ("render", "sample_grid", "render.sample_grid"),
    ("render", "domain_color", "render.domain_color"),
    ("render", "grid_to_csv", "render.grid_to_csv"),
    ("inverse", "sm_cm_values", "evaluator.sm_cm_values"),
    ("inverse", "tanh_sinh", "quadrature.tanh_sinh"),
    ("inverse", "sm_inverse", "inverse.sm_inverse"),
    ("selftest", "run_selftest", "selftest.run_selftest"),
    ("cli", "main", "cli.main"),
)

RAW_SPANS_KEPT = 20000


class _Frame:
    __slots__ = ("name", "parent", "foreign", "start", "child_s", "intervals", "reductions", "sid")

    def __init__(self, name, parent, foreign, sid):
        self.name = name
        self.parent = parent
        self.foreign = foreign
        self.child_s = 0.0
        self.intervals = None
        self.reductions = 0
        self.sid = sid


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        #: (phase, span name) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        #: phase -> sm_cm spans with two reductions (the K - z mirror fallback)
        self.mirrors: dict[str, int] = {}
        self.raw: list[tuple] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _stack(self) -> list[_Frame]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, foreign = stack[-1], False
            else:
                # a worker thread: its spans belong to the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
                foreign = parent is not None
            frame = _Frame(name, parent, foreign, next(tracer._ids))
            stack.append(frame)
            frame.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame, end: float) -> None:
        dur = end - frame.start
        cover = frame.child_s + (_union_length(frame.intervals) if frame.intervals else 0.0)
        parent = frame.parent
        with self._lock:
            key = (self.phase, frame.name)
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - cover
            if parent is not None:
                if frame.foreign:
                    if parent.intervals is None:
                        parent.intervals = []
                    parent.intervals.append((frame.start, end))
                else:
                    parent.child_s += dur
                if frame.name == "evaluator.reduce_to_fundamental" and parent.name == "evaluator.sm_cm":
                    parent.reductions += 1
            if frame.name == "evaluator.sm_cm" and frame.reductions >= 2:
                self.mirrors[self.phase] = self.mirrors.get(self.phase, 0) + 1
            if len(self.raw) < RAW_SPANS_KEPT:
                self.raw.append((frame.sid, parent.sid if parent else None, frame.name, self.phase, frame.start, end))

    def install(self, modules: dict) -> None:
        """Wrap every attribute in WRAPPED, plus each registered selftest check."""
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig))
        selftest = modules["selftest"]
        checks = selftest._CHECKS
        self._saved.append((checks, None, list(checks)))
        checks[:] = [
            dataclasses.replace(c, fn=self.wrap(f"selftest.check.{c.name}", c.fn)) for c in checks
        ]

    def restore(self) -> None:
        for target, attr, orig in reversed(self._saved):
            if attr is None:
                target[:] = orig
            else:
                setattr(target, attr, orig)
        self._saved.clear()

    def totals(self, phases, name: str) -> tuple[int, float, float]:
        calls = total = self_s = 0.0
        for phase in phases:
            st = self.stats.get((phase, name))
            if st:
                calls += st[0]
                total += st[1]
                self_s += st[2]
        return int(calls), total, self_s

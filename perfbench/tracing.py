"""In-memory span tracing for the benchmark's traced runs.

The benchmark wraps the public entry points of each layer (a method of an
object it holds, or a call it makes itself) with :meth:`Tracer.wrap` /
:meth:`Tracer.span`.  Every span records its name, start, end, parent span,
thread and request id; spans stay in a list and are summarised after the
run.  In an untraced run no wrapper is installed at all, so the untraced
numbers carry no tracing cost.

Self time of a span is its duration minus the part of it that its child
spans cover.  Threads the benchmark does not own (serving drain threads,
transport reader threads) get a synthetic root spanning the traced window,
so each thread's self times add up to the window and the sum over all
threads is ``threads x window`` — :func:`summarize` reports how far the
measured sum is from that, which is the tolerance check of the traced run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "summarize", "span_metrics", "SELF_TIME_TOLERANCE"]

#: allowed relative gap between the summed self times and the traced wall
SELF_TIME_TOLERANCE = 0.01

#: name of the synthetic per-thread root of threads the benchmark does not own
IDLE = "idle"


@dataclass
class Span:
    span_id: int
    parent_id: "int | None"
    name: str
    start: float
    end: float
    thread: int
    request: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; thread-safe."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: "list[tuple[object, str, object, bool]]" = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: object = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, parent, name, start, end, threading.get_ident(), request)
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner: object, attribute: str, name: str, request_of=None) -> None:
        """Replace ``owner.attribute`` by a spanned call until :meth:`unwrap_all`.

        ``request_of(args, kwargs)`` may derive the span's request id from the
        call (for example a batch size or a request sequence number).
        """
        original = getattr(owner, attribute)
        had_own = attribute in getattr(owner, "__dict__", {})

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            request = request_of(args, kwargs) if request_of is not None else None
            with self.span(name, request):
                return original(*args, **kwargs)

        setattr(owner, attribute, spanned)
        self._undo.append((owner, attribute, original, had_own))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attribute, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _covered(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: "list[Span]", root: Span) -> dict:
    """Per-layer self time, span counts and the self-time sum check.

    ``root`` is the benchmark's own span around the traced window.  Spans of
    other threads are clipped to it; their top-level spans hang under one
    synthetic ``idle`` root per thread.
    """
    lo, hi = root.start, root.end
    spans = [span for span in spans if span.end > lo and span.start < hi]
    children: "dict[int, list[Span]]" = {}
    foreign_top: "dict[int, list[Span]]" = {}
    for span in spans:
        if span.span_id == root.span_id:
            continue
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
        elif span.thread == root.thread:
            children.setdefault(root.span_id, []).append(span)
        else:
            foreign_top.setdefault(span.thread, []).append(span)

    self_time: "dict[str, float]" = {}
    counts: "dict[str, int]" = {}
    for span in spans:
        start, end = max(span.start, lo), min(span.end, hi)
        kids = [(c.start, c.end) for c in children.get(span.span_id, [])]
        self_time[span.name] = self_time.get(span.name, 0.0) + (
            end - start - _covered(kids, start, end)
        )
        counts[span.name] = counts.get(span.name, 0) + 1
    for top in foreign_top.values():
        idle = hi - lo - _covered([(s.start, s.end) for s in top], lo, hi)
        self_time[IDLE] = self_time.get(IDLE, 0.0) + idle
    threads = 1 + len(foreign_top)
    thread_wall = threads * (hi - lo)
    self_sum = sum(self_time.values())
    return {
        "self_s": self_time,
        "counts": counts,
        "wall_s": hi - lo,
        "threads": threads,
        "thread_wall_s": thread_wall,
        "self_sum_s": self_sum,
        "self_sum_error": abs(self_sum - thread_wall) / thread_wall if thread_wall else 0.0,
    }


def span_metrics(summary: dict) -> "dict[str, float]":
    """The ``self_s.*`` / ``calls.*`` / ``trace.*`` per-layer values of a summary."""
    values: "dict[str, float]" = {
        "trace.wall_s": summary["wall_s"],
        "trace.threads": summary["threads"],
        "trace.spans": sum(summary["counts"].values()),
        "trace.self_sum_error": summary["self_sum_error"],
    }
    for layer, seconds in summary["self_s"].items():
        values[f"self_s.{layer}"] = seconds
    for layer, count in summary["counts"].items():
        values[f"calls.{layer}"] = count
    return values

"""The benchmark's own seeded load generator.

One thread runs a :class:`Scheduler`: it pops actions off a time-ordered
heap and runs each at its due instant.  Completion callbacks (which run on
the serving front-end's threads) push follow-up actions, so an open-loop
arrival process and closed-loop follow-ups share one clock.  Latency is
always measured from an action's *due* time, so a stalled generator or
server charges the delay to every request it held up, and the generator's
own lateness is recorded as ``lag``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.utils.exceptions import QueueFullError

__all__ = ["poisson_offsets", "Scheduler", "PhaseStats", "MAX_LAG_MS"]

#: a run whose generator fell further behind its schedule than this is invalid
MAX_LAG_MS = 250.0


def poisson_offsets(rate: float, duration: float, rng: np.random.Generator) -> "list[float]":
    """Arrival offsets (seconds from phase start) of a Poisson process at
    ``rate`` over ``duration``, conditioned on its expected count.

    Given its count, a Poisson process places its arrivals as sorted
    independent uniform draws; fixing the count keeps the bursts of an open
    loop while removing the run-to-run variance of the offered load.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(int(round(rate * duration)), 1)
    return sorted(float(x) for x in rng.uniform(0.0, duration, size=count))


@dataclass
class PhaseStats:
    """Accounting of one load phase: what was sent and how it ended."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0
    lag_max_ms: float = 0.0
    wall_s: float = 0.0
    latency_ms: "list[float]" = field(default_factory=list)
    completed_at: "list[float]" = field(default_factory=list)
    queue_wait_ms: "list[float]" = field(default_factory=list)
    service_ms: "list[float]" = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count_sent(self) -> None:
        with self._lock:
            self.sent += 1

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record(self, due: float, future) -> "object | None":
        """Account one finished request; returns its response or ``None``."""
        error = future.exception()
        with self._lock:
            if error is None:
                response = future.result()
                self.succeeded += 1
                self.latency_ms.append(1000.0 * (response.completed_at - due))
                self.completed_at.append(response.completed_at)
                self.queue_wait_ms.append(1000.0 * response.queue_wait_s)
                self.service_ms.append(1000.0 * response.service_s)
                return response
            if isinstance(error, QueueFullError):
                self.rejected += 1
            else:
                self.failed += 1
            return None

    #: the steady parts of a closed phase (one per slice), whose completions give its rate
    windows: "list[tuple[float, float]]" = field(default_factory=list)

    def steady_rate(self) -> float:
        """Completions per second inside :attr:`windows`, each window counted
        from its first to its last completion (completions of one micro-batch
        land together, so a count over a fixed window alone would step by
        whole batches); the windows' counts and spans add up."""
        completions, span = 0, 0.0
        for start, end in self.windows:
            inside = sorted(t for t in self.completed_at if start <= t < end)
            if len(inside) >= 2:
                completions += len(inside) - 1
                span += inside[-1] - inside[0]
        return completions / span if span > 0 else 0.0

    def summary(self) -> dict:
        return {
            "phase": self.name,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
            "wrong": self.wrong,
            "lag_max_ms": round(self.lag_max_ms, 3),
            "wall_s": round(self.wall_s, 3),
        }


class Scheduler:
    """Runs actions at absolute ``perf_counter`` instants on the calling thread.

    ``action(due)`` may send a request; :meth:`hold` / :meth:`release` mark
    work in flight that may still schedule follow-ups, and :meth:`run`
    returns once the heap is empty and nothing is in flight.
    """

    def __init__(self) -> None:
        self._heap: "list[tuple[float, int, object]]" = []
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._in_flight = 0
        self.lag_max_s = 0.0

    # The generator thread is woken only when its next deadline moves earlier
    # or the last work in flight ends: every needless wake-up makes a busy
    # serving thread hand over the interpreter lock.

    def at(self, due: float, action) -> None:
        with self._cond:
            heapq.heappush(self._heap, (due, next(self._seq), action))
            if self._heap[0][0] == due:
                self._cond.notify()

    def hold(self) -> None:
        with self._cond:
            self._in_flight += 1

    def release(self) -> None:
        with self._cond:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._cond.notify()

    def run(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._heap:
                        due = self._heap[0][0]
                        wait = due - time.perf_counter()
                        if wait <= 0:
                            _, _, action = heapq.heappop(self._heap)
                            break
                        self._cond.wait(wait)
                    elif self._in_flight == 0:
                        return
                    else:
                        self._cond.wait()
            self.lag_max_s = max(self.lag_max_s, time.perf_counter() - due)
            action(due)

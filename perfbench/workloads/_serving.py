"""Pieces shared by the two serving workloads."""

from __future__ import annotations

import time

import numpy as np

from repro.utils.exceptions import QueueFullError

from perfbench.loadgen import PhaseStats, Scheduler
from perfbench.report import percentile


def send(surface, sched: Scheduler, stats: PhaseStats, due: float, request, on_response) -> None:
    """Send one typed request due at ``due``; ``on_response(response_or_None)``
    runs on completion, before the scheduler may finish."""
    stats.count_sent()
    sched.hold()
    try:
        future = surface.serve(request)
    except QueueFullError:
        stats.count_rejected()
        try:
            on_response(None)
        finally:
            sched.release()
        return

    def done(finished) -> None:
        try:
            on_response(stats.record(due, finished))
        finally:
            sched.release()

    future.add_done_callback(done)


#: start of a saturation phase left out of its rate, while the window fills
SATURATION_WARMUP_S = 0.5


def steady_window(start: float, seconds: float) -> "tuple[float, float]":
    """The part of a saturation phase whose completions give its rate."""
    return (start + min(SATURATION_WARMUP_S, seconds / 5), start + seconds)


def run_phase(sched: Scheduler, stats: PhaseStats) -> None:
    """Run one slice of a phase; a phase run in several slices adds up their
    walls and keeps their largest lag."""
    started = time.perf_counter()
    sched.run()
    stats.wall_s += time.perf_counter() - started
    stats.lag_max_ms = max(stats.lag_max_ms, 1000.0 * sched.lag_max_s)


def eligible_objectives(split, min_interactions: int = 5) -> np.ndarray:
    """Items the paper's protocol may pick as objectives (§IV-B1)."""
    popularity = split.corpus.item_popularity()
    eligible = np.flatnonzero(popularity >= min_interactions)
    return eligible[eligible != 0]


def draw_context(split, eligible: np.ndarray, rng: np.random.Generator, window: int):
    """One ``(history, objective, user)`` serving context: a test user's
    recent history and an objective new to that user."""
    while True:
        instance = split.test[int(rng.integers(len(split.test)))]
        history = tuple(int(item) for item in instance.history[-window:])
        objective = int(eligible[int(rng.integers(len(eligible)))])
        if objective not in instance.history:
            return history, objective, int(instance.user_index)


def latency_values(stats: PhaseStats, slo_ms: float) -> "dict[str, float]":
    """The latency end-to-end metrics of an open-loop phase.

    A request that failed or was refused counts as missing the SLO.
    """
    within = sum(1 for value in stats.latency_ms if value <= slo_ms)
    return {
        "latency_p50_ms": percentile(stats.latency_ms, 50),
        "slo_attainment": within / stats.sent if stats.sent else 0.0,
    }


def tail_values(stats: PhaseStats) -> "dict[str, float]":
    """The latency tail of an untraced open-loop phase, with its sample count."""
    return {
        "loadgen.latency_p99_ms": percentile(stats.latency_ms, 99),
        "loadgen.latency_samples": len(stats.latency_ms),
    }


def response_layer_values(stats: PhaseStats) -> "dict[str, float]":
    return {
        "serve.queue_wait_ms.p50": percentile(stats.queue_wait_ms, 50),
        "serve.queue_wait_ms.p99": percentile(stats.queue_wait_ms, 99),
        "serve.service_ms.p50": percentile(stats.service_ms, 50),
        "serve.service_ms.p99": percentile(stats.service_ms, 99),
    }

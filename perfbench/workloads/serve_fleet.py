"""``serve_fleet``: full-vocabulary plans from a fleet of forked worker processes.

A :class:`RemoteReplicaSet` with one worker per core serves open-loop
``PlanRequest``s (Poisson, one fixed absolute rate) whose contexts never
repeat, so the plan cache never hits and every request is a full beam plan
over a 5000-item vocabulary: the IRN forward, the vocabulary projection and
top-k carry the work, with the wire codec and dispatch around them.  One hot
``refit()`` fires half way through the run; its factory reuses the fitted
IRN, so it costs artifact shipping, fork, flip and drain-dry.  Closed
saturation slices with a fixed outstanding window alternate with the open
loop, so both metrics sample the whole run, not one part of it: the host's
speed drifts over tens of seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.data.splitting import split_corpus
from repro.data.streaming import StreamingSyntheticConfig, build_streaming_store
from repro.distributed import RemoteReplicaSet
from repro.experiments.config import ExperimentConfig
from repro.serve import PlanRequest

from perfbench.loadgen import MAX_LAG_MS, PhaseStats, Scheduler, poisson_offsets
from perfbench.report import (
    WorkloadResult,
    median,
    peak_rss_mb,
    percentile,
    release_freed_memory,
    scratch_dir,
)
from perfbench.tracing import Tracer, span_metrics, summarize
from perfbench.workloads import _serving

NUM_ITEMS = 5000
NUM_USERS = 200
WORKERS = len(os.sched_getaffinity(0))
#: horizon of every planned path
PLAN_LENGTH = 3
#: plan requests per second in the open loop (a quarter of the saturation rate)
RATE = 20.0
#: requests kept outstanding in the saturation slices
SATURATION_WINDOW = 2 * WORKERS
#: open-loop then saturation slices, this many times over
CYCLES = 3
#: share of each cycle given to the open loop
OPEN_SHARE = 0.7
SLO_MS = 100.0
SETUP_REPEATS = 3
WINDOW = ExperimentConfig.default().history_window


@dataclass
class _Env:
    split: object
    irn: IRN
    fleet: RemoteReplicaSet
    load_split_s: float
    irn_fit_s: float


def _irn(config: ExperimentConfig) -> IRN:
    """The default profile's 2-layer IRN shape, trained for one epoch."""
    return IRN(
        embedding_dim=config.embedding_dim,
        user_dim=config.irn_user_dim,
        num_heads=config.irn_heads,
        num_layers=config.irn_layers,
        objective_weight=config.irn_objective_weight,
        objective_logit_scale=config.irn_objective_logit_scale,
        learning_rate=config.irn_learning_rate,
        max_sequence_length=config.max_sequence_length,
        epochs=1,
        # a smaller batch than the default 64 keeps the (batch, length,
        # vocabulary) training logits of a 5000-item vocabulary small
        batch_size=16,
        seed=config.seed,
    )


def _setup(store_dir: str) -> _Env:
    config = ExperimentConfig.default()
    started = time.perf_counter()
    store = build_streaming_store(
        StreamingSyntheticConfig(num_items=NUM_ITEMS, num_users=NUM_USERS, seed=config.seed),
        store_dir,
        name=f"fleet-{NUM_ITEMS}",
    )
    split = split_corpus(
        store.as_corpus(),
        l_min=config.l_min,
        l_max=config.l_max,
        validation_fraction=config.validation_fraction,
        seed=config.seed,
    )
    load_split_s = time.perf_counter() - started
    started = time.perf_counter()
    irn = _irn(config).fit(split)
    irn_fit_s = time.perf_counter() - started
    sys.stdout.flush()
    sys.stderr.flush()
    fleet = RemoteReplicaSet(lambda: _planner(irn, split), num_replicas=WORKERS).start()
    return _Env(split, irn, fleet, load_split_s, irn_fit_s)


def _planner(irn: IRN, split) -> BeamSearchPlanner:
    return BeamSearchPlanner(irn, max_length=PLAN_LENGTH).fit(split)


class _Pass:
    def __init__(
        self, env: _Env, seed: int, seconds: float, tracer: "Tracer | None", seen: set, index: int
    ) -> None:
        self.env = env
        self.tracer = tracer
        self.seconds = seconds
        self.arrival_rng = np.random.default_rng([seed, 1])
        self.context_rng = np.random.default_rng([seed, 2, index])
        self.eligible = _serving.eligible_objectives(env.split, min_interactions=1)
        self.seen = seen
        #: ``(context, response, phase stats)`` of every answered request
        self.answers: "list[tuple[tuple, object, PhaseStats]]" = []
        self.refits: "list[dict]" = []
        self.refit_errors = 0
        self.refit_s = 0.0
        self.enqueue_s: "list[float]" = []
        self._lock = threading.Lock()

    def _context(self) -> tuple:
        """A context never served before in this run (the plan cache cannot hit).

        Saturation draws from the transport's reader threads, hence the lock.
        """
        with self._lock:
            while True:
                context = _serving.draw_context(
                    self.env.split, self.eligible, self.context_rng, WINDOW
                )
                if context not in self.seen:
                    self.seen.add(context)
                    return context

    def _send(self, sched, stats, due, context, on_done=None) -> None:
        history, objective, user = context
        request = PlanRequest(history=history, objective=objective, user_index=user)

        def on_response(response) -> None:
            if response is not None:
                with self._lock:
                    self.answers.append((context, response, stats))
            if on_done is not None:
                on_done()

        fleet = self.env.fleet
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("distributed.serve"):
                _serving.send(fleet, sched, stats, due, request, on_response)
        else:
            _serving.send(fleet, sched, stats, due, request, on_response)
        self.enqueue_s.append(time.perf_counter() - started)

    def _refit(self) -> None:
        started = time.perf_counter()
        try:
            with self.tracer.span("replica.refit") if self.tracer is not None else nullcontext():
                self.refits.append(self.env.fleet.refit())
        except Exception as error:  # a failed refit is counted and reported, not fatal
            self.refit_errors += 1
            print(f"refit failed: {error!r}", file=sys.stderr)
        self.refit_s = time.perf_counter() - started

    def _open_slice(self, stats: PhaseStats, seconds: float, refit_at: "float | None") -> None:
        sched = Scheduler()
        start = time.perf_counter() + 0.01
        for offset in poisson_offsets(RATE, seconds, self.arrival_rng):
            context = self._context()
            sched.at(start + offset, lambda due, c=context: self._send(sched, stats, due, c))
        refit_thread = None
        if refit_at is not None:
            refit_thread = threading.Thread(target=self._refit, name="bench-refit")
            sched.at(start + refit_at, lambda due: refit_thread.start())
        _serving.run_phase(sched, stats)
        if refit_thread is not None:
            refit_thread.join()

    def _saturation_slice(self, stats: PhaseStats, seconds: float) -> None:
        sched = Scheduler()
        now = time.perf_counter()
        deadline = now + seconds
        stats.windows.append(_serving.steady_window(now, seconds))

        def next_request(due: float) -> None:
            def again() -> None:
                if time.perf_counter() < deadline:
                    next_request(time.perf_counter())

            self._send(sched, stats, due, self._context(), again)

        for _ in range(SATURATION_WINDOW):
            sched.at(now, next_request)
        _serving.run_phase(sched, stats)

    def run(self) -> dict:
        open_stats = PhaseStats("open")
        saturation = PhaseStats("saturation")
        stats_before = self.env.fleet.stats()["transport"]
        cycle = self.seconds / CYCLES
        with self.tracer.span("bench") if self.tracer is not None else nullcontext():
            for index in range(CYCLES):
                # the refit lands half way through the run, inside the middle
                # cycle's open slice (CYCLES is odd and OPEN_SHARE above 0.5)
                middle = index == CYCLES // 2
                refit_at = self.seconds / 2 - index * cycle if middle else None
                self._open_slice(open_stats, OPEN_SHARE * cycle, refit_at)
                self._saturation_slice(saturation, (1.0 - OPEN_SHARE) * cycle)
        fleet_stats = self.env.fleet.stats()
        stats_after = fleet_stats["transport"]
        return {
            "open": open_stats,
            "saturation": saturation,
            "fleet": fleet_stats,
            "transport": {k: stats_after[k] - stats_before[k] for k in ("requests_sent", "bytes_sent", "redispatched")},
        }


def _warm_up(env: _Env, seed: int, seen: set) -> None:
    """Untimed: two plans per worker, so no timed request meets a cold worker
    (the refit's new workers excepted, which are part of the workload)."""
    rng = np.random.default_rng([seed, 3])
    eligible = _serving.eligible_objectives(env.split, min_interactions=1)
    futures = []
    for _ in range(2 * WORKERS):
        context = _serving.draw_context(env.split, eligible, rng, WINDOW)
        seen.add(context)
        history, objective, user = context
        futures.append(env.fleet.serve(PlanRequest(history=history, objective=objective, user_index=user)))
    for future in futures:
        future.result()


def _check(env: _Env, answers) -> "dict[int, int]":
    """Count each answer that differs from a direct ``plan_paths_batch`` as
    wrong in its phase; returns the answers per served generation."""
    reference = _planner(env.irn, env.split)
    generations: "dict[int, int]" = {}
    for start in range(0, len(answers), 32):
        chunk = answers[start : start + 32]
        expected = reference.plan_paths_batch(
            [list(context[0]) for context, _, _ in chunk],
            [context[1] for context, _, _ in chunk],
            user_indices=[context[2] for context, _, _ in chunk],
            max_length=PLAN_LENGTH,
        )
        for (_, response, stats), path in zip(chunk, expected):
            if list(response.answer) != list(path):
                stats.wrong += 1
            generation = response.served_generation
            generations[generation] = generations.get(generation, 0) + 1
    return generations


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    workdir = tempfile.mkdtemp(prefix="fleet-", dir=scratch_dir())
    setup_times, split_times, fit_times = [], [], []
    env = None
    try:
        for repeat in range(SETUP_REPEATS):
            # Only the last set-up stays alive; collecting the previous one
            # and handing its freed pages back first keeps its garbage out
            # of this one's peak RSS.
            if env is not None:
                env.fleet.close()
                env = None
            release_freed_memory()
            started = time.perf_counter()
            env = _setup(os.path.join(workdir, f"store{repeat}"))
            setup_times.append(time.perf_counter() - started)
            split_times.append(env.load_split_s)
            fit_times.append(env.irn_fit_s)
        seen: set = set()
        _warm_up(env, seed, seen)
        passes = [_Pass(env, seed, seconds, None, seen, 0)]
        if trace:
            passes.append(_Pass(env, seed, seconds, Tracer(), seen, 1))
        outcomes = [p.run() for p in passes]
        # read before the output check, whose re-planning is the benchmark's own work
        peak_rss = peak_rss_mb()
    finally:
        if env is not None:
            env.fleet.close()
        shutil.rmtree(workdir, ignore_errors=True)

    check_started = time.perf_counter()
    for p, outcome in zip(passes, outcomes):
        generations = _check(env, p.answers)
        for phase in (outcome["open"], outcome["saturation"]):
            result.attempted += phase.sent
            result.failed += phase.failed + phase.rejected + phase.wrong
            result.phases.append(phase.summary())
        result.failed += p.refit_errors
        if len(generations) < 2:
            result.problems.append(f"answers of one generation only: {generations}")
        lag_max = max(outcome["open"].lag_max_ms, outcome["saturation"].lag_max_ms)
        if lag_max > MAX_LAG_MS:
            result.problems.append(f"load generator lagged {lag_max:.1f} ms")
        outcome["generations"] = generations

    result.notes["check_s"] = round(time.perf_counter() - check_started, 3)
    result.notes["setup_s"] = [round(t, 3) for t in setup_times]
    first = outcomes[0]
    if not trace:
        result.values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss,
            **_serving.latency_values(first["open"], SLO_MS),
            "saturation_rps": first["saturation"].steady_rate(),
        }
        return result

    traced_pass, traced = passes[1], outcomes[1]
    tracer = traced_pass.tracer
    root = next(span for span in tracer.spans if span.name == "bench")
    summary = summarize(tracer.spans, root)
    responses = [response for _, response, _ in traced_pass.answers]
    transport_ms = [
        1000.0 * (r.latency_s - r.queue_wait_s - r.service_s) for r in responses
    ]
    shares = []
    for generation in traced["generations"]:
        served = [r.replica_index for r in responses if r.served_generation == generation]
        shares.append(max(served.count(i) for i in set(served)) / len(served))
    transport = traced["transport"]
    untraced_rate = first["saturation"].steady_rate()
    traced_rate = traced["saturation"].steady_rate()
    result.values = {
        "data.load_split_s": median(split_times),
        "core.irn.fit_s": median(fit_times),
        "core.irn.fit_seq_per_s": len(env.split.train) * env.irn.epochs / median(fit_times),
        **_serving.response_layer_values(traced["open"]),
        "distributed.transport_ms.p50": percentile(transport_ms, 50),
        "distributed.transport_ms.p99": percentile(transport_ms, 99),
        "distributed.enqueue_us": 1e6 * float(np.mean(passes[0].enqueue_s)),
        "distributed.bytes_per_request": transport["bytes_sent"] / max(transport["requests_sent"], 1),
        "distributed.redispatched": transport["redispatched"],
        "replica.refit_s": traced_pass.refit_s,
        "replica.refit_errors": traced_pass.refit_errors,
        "replica.dispatch_share_max": max(shares) if shares else 0.0,
        "serve.batch_size_mean": traced["fleet"]["micro_batches"]["mean_size"],
        "serve.queue_depth_max": traced["fleet"]["queue_depth"]["max"],
        "serve.rejected": traced["fleet"]["admission"]["rejected"],
        # contexts never repeat, so no plan can come from a worker's plan cache
        "cache.plan_hit_rate": 1.0 - len({c for c, _, _ in traced_pass.answers}) / max(len(responses), 1),
        "loadgen.lag_ms.max": max(traced["open"].lag_max_ms, traced["saturation"].lag_max_ms),
        **_serving.tail_values(first["open"]),
        **span_metrics(summary),
        "trace.overhead_share": untraced_rate / traced_rate - 1.0,
    }
    result.notes.update(refits=traced_pass.refits, generations=traced["generations"])
    return result

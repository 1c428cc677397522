"""``serve_sessions``: influence-path sessions served by an in-process ServingLoop.

Sessions arrive open-loop (Poisson, at one fixed absolute rate); each then
walks its influence path closed-loop, one ``NextStepRequest`` per step with
a fixed think time.  The first request of a session is a cold beam plan; the
rest are answered from the planner's step cache, so admission, queueing,
the drain window and the cache do the work here, not the evaluator.  A
closed saturation phase then keeps a fixed number of sessions in flight,
each pausing an exponential think time between steps.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.beam import BeamSearchPlanner
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.serve import NextStepRequest, ServingLoop

from perfbench.loadgen import MAX_LAG_MS, PhaseStats, Scheduler, poisson_offsets
from perfbench.report import WorkloadResult, median, peak_rss_mb
from perfbench.tracing import Tracer, span_metrics, summarize
from perfbench.workloads import IRN_SCORERS, _serving, irn_values

#: sessions per second in the open-loop phase (about half the saturation rate)
SESSION_RATE = 6.0
#: think time between a step's answer and the session's next request
THINK_S = 0.010
#: sessions kept in flight, with exponential think times, in the saturation phase
SATURATION_WINDOW = 32
#: share of the run spent in the open-loop phase; the rest saturates
OPEN_SHARE = 0.3
#: latency objective of one step request
SLO_MS = 100.0
SETUP_REPEATS = 3
#: history window of a serving context (the default protocol's)
WINDOW = ExperimentConfig.default().history_window


@dataclass
class _Env:
    config: ExperimentConfig
    split: object
    irn: object
    load_split_s: float
    irn_fit_s: float


@dataclass
class _Session:
    history: tuple
    objective: int
    user: int
    stats: "PhaseStats | None" = None
    path: list = field(default_factory=list)
    broken: bool = False


def _setup() -> _Env:
    """The default reproduction corpus and its 2-layer IRN (training budget
    cut to one epoch without item2vec initialisation)."""
    config = replace(ExperimentConfig.default(), irn_epochs=1, item2vec_init=False)
    pipeline = ExperimentPipeline(config)
    started = time.perf_counter()
    split = pipeline.split
    load_split_s = time.perf_counter() - started
    started = time.perf_counter()
    irn = pipeline.irn()
    return _Env(config, split, irn, load_split_s, time.perf_counter() - started)


def _planner(env: _Env) -> BeamSearchPlanner:
    return BeamSearchPlanner(env.irn, max_length=env.config.max_path_length).fit(env.split)


class _Pass:
    """One open-loop phase plus one saturation phase on a fresh planner and loop."""

    def __init__(self, env: _Env, seed: int, seconds: float, tracer: "Tracer | None") -> None:
        self.env = env
        self.tracer = tracer
        self.max_length = env.config.max_path_length
        self.eligible = _serving.eligible_objectives(env.split)
        self.open_seconds = OPEN_SHARE * seconds
        self.saturation_seconds = seconds - self.open_seconds
        self.seed = seed
        self.arrival_rng = np.random.default_rng([seed, 1])
        self.context_rng = np.random.default_rng([seed, 2])
        self.sessions: "list[_Session]" = []
        self.live = 0
        self.live_max = 0

    def _new_session(self, stats: PhaseStats) -> _Session:
        history, objective, user = _serving.draw_context(
            self.env.split, self.eligible, self.context_rng, WINDOW
        )
        session = _Session(history, objective, user, stats)
        self.sessions.append(session)
        return session

    def _step(self, surface, sched, stats, session, due, think, on_finish) -> None:
        if not session.path:
            self.live += 1
            self.live_max = max(self.live_max, self.live)
        request = NextStepRequest(
            history=session.history,
            objective=session.objective,
            path_so_far=tuple(session.path),
            user_index=session.user,
        )

        def on_response(response) -> None:
            if self.tracer is not None:
                with self.tracer.span("loadgen.callback"):
                    self._advance(surface, sched, stats, session, response, think, on_finish)
            else:
                self._advance(surface, sched, stats, session, response, think, on_finish)

        _serving.send(surface, sched, stats, due, request, on_response)

    def _advance(self, surface, sched, stats, session, response, think, on_finish) -> None:
        """Record a step's answer and schedule the session's next step, or end it."""
        if response is None:
            session.broken = True
        elif response.answer is not None:
            item = int(response.answer)
            session.path.append(item)
            if item != session.objective and len(session.path) < self.max_length:
                pause = think() if callable(think) else think
                sched.at(
                    response.completed_at + pause,
                    lambda due: self._step(surface, sched, stats, session, due, think, on_finish),
                )
                return
        self.live -= 1
        on_finish()

    def run(self) -> dict:
        env = self.env
        planner = _planner(env)
        irn = env.irn
        tracer = self.tracer
        decode_before = irn.decode_stats.snapshot()
        loop = ServingLoop(planner).start()
        if tracer is not None:
            tracer.wrap(planner, "plan_for_requests", "core.beam.plan", lambda a, k: len(a[0]))
            for name in IRN_SCORERS:
                tracer.wrap(irn, name, "core.irn.score")
            tracer.wrap(loop, "serve", "serve.serve")
        open_stats = PhaseStats("open")
        saturation = PhaseStats("saturation")
        try:
            with (tracer.span("bench") if tracer is not None else nullcontext()):
                self._open_phase(loop, open_stats)
                self._saturation_phase(loop, saturation)
        finally:
            loop.close()
            if tracer is not None:
                tracer.unwrap_all()
        return {
            "open": open_stats,
            "saturation": saturation,
            "loop_stats": loop.stats(),
            "cache": planner.cache_info(),
            "decode": (decode_before, irn.decode_stats.snapshot()),
        }

    def _open_phase(self, loop, stats: PhaseStats) -> None:
        sched = Scheduler()
        start = time.perf_counter() + 0.01
        for offset in poisson_offsets(SESSION_RATE, self.open_seconds, self.arrival_rng):
            session = self._new_session(stats)
            sched.at(
                start + offset,
                lambda due, s=session: self._step(loop, sched, stats, s, due, THINK_S, _noop),
            )
        _serving.run_phase(sched, stats)

    def _saturation_phase(self, loop, stats: PhaseStats) -> None:
        sched = Scheduler()
        now = time.perf_counter()
        deadline = now + self.saturation_seconds
        stats.windows.append(_serving.steady_window(now, self.saturation_seconds))

        def walker(due: float) -> None:
            session = self._new_session(stats)
            # Exponential think times keep the sessions from falling into
            # lock-step micro-batches, whose cold plans would then coincide
            # or not depending on the draw.
            rng = np.random.default_rng([self.seed, 3, len(self.sessions)])

            def on_finish() -> None:
                if time.perf_counter() < deadline:
                    walker(time.perf_counter())

            think = lambda: float(rng.exponential(THINK_S))  # noqa: E731
            self._step(loop, sched, stats, session, due, think, on_finish)

        for _ in range(SATURATION_WINDOW):
            sched.at(now, walker)
        _serving.run_phase(sched, stats)


def _noop() -> None:
    return None


def _check(env: _Env, sessions: "list[_Session]") -> int:
    """Served steps that differ from a direct ``planner.next_step`` walk,
    each also counted as wrong in its session's phase."""
    reference = _planner(env)
    total = 0
    for session in sessions:
        if session.broken:
            continue
        expected: "list[int]" = []
        while len(expected) < env.config.max_path_length:
            item = reference.next_step(
                list(session.history), session.objective, expected, user_index=session.user
            )
            if item is None:
                break
            expected.append(int(item))
            if int(item) == session.objective:
                break
        wrong = sum(1 for a, b in zip(session.path, expected) if a != b)
        wrong += abs(len(session.path) - len(expected))
        if session.stats is not None:
            session.stats.wrong += wrong
        total += wrong
    return total


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    setup_times, split_times, fit_times = [], [], []
    env = None
    for _ in range(SETUP_REPEATS):
        # Only the last set-up stays alive; collecting the previous one first
        # keeps its garbage out of this one's peak RSS and later GC passes.
        env = None
        gc.collect()
        started = time.perf_counter()
        env = _setup()
        setup_times.append(time.perf_counter() - started)
        split_times.append(env.load_split_s)
        fit_times.append(env.irn_fit_s)

    passes = [_Pass(env, seed, seconds, None)]
    if trace:
        passes.append(_Pass(env, seed, seconds, Tracer()))
    outcomes = [p.run() for p in passes]

    for p, outcome in zip(passes, outcomes):
        _check(env, p.sessions)
        for phase in (outcome["open"], outcome["saturation"]):
            result.attempted += phase.sent
            result.failed += phase.failed + phase.rejected + phase.wrong
            result.phases.append(phase.summary())
        lag_max = max(outcome["open"].lag_max_ms, outcome["saturation"].lag_max_ms)
        if lag_max > MAX_LAG_MS:
            result.problems.append(f"load generator lagged {lag_max:.1f} ms")
        capacity = outcome["cache"]["step_cache"]["maxsize"]
        if p.live_max >= capacity:
            result.problems.append(f"{p.live_max} live sessions reach the step cache ({capacity})")

    first = outcomes[0]
    if not trace:
        result.values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            **_serving.latency_values(first["open"], SLO_MS),
            "saturation_rps": first["saturation"].steady_rate(),
        }
        return result

    traced_pass, traced = passes[1], outcomes[1]
    tracer = traced_pass.tracer
    root = next(span for span in tracer.spans if span.name == "bench")
    summary = summarize(tracer.spans, root)
    cache = traced["cache"]
    step = cache["step_cache"]
    loop_stats = traced["loop_stats"]
    plans = [s.duration for s in tracer.spans if s.name == "core.beam.plan"]
    scores = [s.duration for s in tracer.spans if s.name == "core.irn.score"]
    untraced_rate = first["saturation"].steady_rate()
    traced_rate = traced["saturation"].steady_rate()
    result.values = {
        "core.irn.fit_s": median(fit_times),
        "core.irn.fit_seq_per_s": len(env.split.train) * env.irn.epochs / median(fit_times),
        "data.load_split_s": median(split_times),
        **_serving.response_layer_values(traced["open"]),
        "serve.batch_size_mean": loop_stats["micro_batches"]["mean_size"],
        "serve.queue_depth_max": loop_stats["queue_depth"]["max"],
        "serve.rejected": loop_stats["admission"]["rejected"],
        "cache.step_hit_rate": step["hits"] / max(step["hits"] + step["misses"], 1),
        "cache.replans": cache["serving"]["replans"],
        "cache.plan_hit_rate": cache["plan_cache"]["hit_rate"],
        "core.beam.plan_ms": 1000.0 * float(np.mean(plans)) if plans else 0.0,
        **irn_values(*traced["decode"], scores),
        "sessions.live_max": traced_pass.live_max,
        "loadgen.lag_ms.max": max(traced["open"].lag_max_ms, traced["saturation"].lag_max_ms),
        **_serving.tail_values(first["open"]),
        **span_metrics(summary),
        "trace.overhead_share": untraced_rate / traced_rate - 1.0,
    }
    result.notes.update(
        step_cache_size=cache["step_cache"]["maxsize"], sessions=len(traced_pass.sessions)
    )
    return result

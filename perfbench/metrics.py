"""The benchmark's metric catalogue: every name, with its unit.

Every workload reports every end-to-end metric (untraced runs) and every
per-layer metric (traced runs).  A layer a workload bypasses reads 0, which
is the prediction "no change here" for a change to that layer.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "SPAN_LAYERS", "complete"]

END_TO_END: "dict[str, str]" = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "slo_attainment": "ratio",
    "saturation_rps": "1/s",
}

#: span names the traced run records; each gets a self-time and a call count
SPAN_LAYERS = (
    "bench",
    "idle",
    "loadgen.callback",
    "evaluation.generate",
    "evaluation.score",
    "evaluation.evaluator",
    "models.infer",
    "core.beam.plan",
    "core.irn.score",
    "serve.serve",
    "distributed.serve",
    "replica.refit",
)

PER_LAYER: "dict[str, str]" = {
    # set-up
    "data.load_split_s": "s",
    "evaluation.select_evaluator_s": "s",
    "models.fit_s": "s",
    "core.irn.fit_s": "s",
    "core.irn.fit_seq_per_s": "1/s",
    # offline evaluation
    "evaluation.score_s": "s",
    "evaluation.evaluator_calls": "count",
    "evaluation.evaluator_calls_per_step": "ratio",
    "evaluation.generate_s.irn": "s",
    "evaluation.generate_s.rec2inf": "s",
    "evaluation.generate_s.vanilla": "s",
    "evaluation.generate_s.pf2inf": "s",
    "models.infer_calls": "count",
    "models.rows_per_call": "ratio",
    # serving loop
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.service_ms.p50": "ms",
    "serve.service_ms.p99": "ms",
    "serve.batch_size_mean": "ratio",
    "serve.queue_depth_max": "count",
    "serve.rejected": "count",
    # caches
    "cache.step_hit_rate": "ratio",
    "cache.replans": "count",
    "cache.kv_incremental_share": "ratio",
    "cache.plan_hit_rate": "ratio",
    # planner and model
    "core.beam.plan_ms": "ms",
    "core.irn.forwards": "count",
    "core.irn.tokens_encoded": "count",
    "core.irn.forward_ms": "ms",
    # process fleet
    "distributed.transport_ms.p50": "ms",
    "distributed.transport_ms.p99": "ms",
    "distributed.enqueue_us": "us",
    "distributed.bytes_per_request": "B",
    "distributed.redispatched": "count",
    "replica.refit_s": "s",
    "replica.refit_errors": "count",
    "replica.dispatch_share_max": "ratio",
    # workload properties, and the latency tail of the untraced pass
    "sessions.live_max": "count",
    "loadgen.lag_ms.max": "ms",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.latency_samples": "count",
    # the trace itself
    "trace.wall_s": "s",
    "trace.threads": "count",
    "trace.spans": "count",
    "trace.self_sum_error": "ratio",
    "trace.overhead_share": "ratio",
    **{f"self_s.{layer}": "s" for layer in SPAN_LAYERS},
    **{f"calls.{layer}": "count" for layer in SPAN_LAYERS},
}


def complete(catalogue: "dict[str, str]", values: "dict[str, float]") -> "dict[str, tuple[float, str]]":
    """Every catalogue metric with its unit; absent layers read 0.

    Raises ``KeyError`` on a value the catalogue does not name, so a typo in
    a workload cannot silently drop a metric.
    """
    unknown = sorted(set(values) - set(catalogue))
    if unknown:
        raise KeyError(f"metrics not in the catalogue: {unknown}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in catalogue.items()}

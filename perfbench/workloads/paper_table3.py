"""``paper_table3``: the reproduction's own end-to-end job, paper Table III.

Set-up builds the default-profile corpus (movielens-synthetic, 200 users /
297 items), selects the IRS evaluator (Table II), fits the six baselines and
the 2-layer IRN.  Training budgets are cut to one epoch (and no item2vec
initialisation) so that set-up fits a run; model shapes and the corpus are
the default profile's, and the selected evaluator stays its choice.

The timed phase is one caller, closed loop: rounds of ``generate_records``
+ ``score_records`` for all 15 Table III frameworks on a block of
evaluation instances drawn (by the workload seed) from the protocol's
80-instance pool, until ``--seconds`` have passed.  Evaluation and model
inference do the work; serving, caches and the process fleet are bypassed.
"""

from __future__ import annotations

import copy
import gc
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline

from perfbench.report import WorkloadResult, median, peak_rss_mb, percentile
from perfbench.tracing import Tracer, span_metrics, summarize
from perfbench.workloads import IRN_SCORERS, irn_values

#: evaluation instances per round; each round runs every framework on them
ROUND_INSTANCES = 2
#: objective of one framework's generate + score, per influence-path step
SLO_MS_PER_STEP = 25.0
SETUP_REPEATS = 2
#: relative tolerance of a metric against the recorded reference
REFERENCE_RTOL = 1e-6
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "..", "reference", "paper_table3.json")


def config() -> ExperimentConfig:
    return replace(
        ExperimentConfig.default(),
        evaluator_epochs=1,
        baseline_epochs=1,
        irn_epochs=1,
        item2vec_init=False,
    )


def family(label: str) -> str:
    """``irn`` / ``rec2inf`` / ``vanilla`` / ``pf2inf`` of a Table III row label."""
    return label.split()[0].lower()


def setup() -> "tuple[ExperimentPipeline, dict, object, dict]":
    """Build everything the timed phase reads; returns the per-stage seconds too."""
    pipeline = ExperimentPipeline(config())
    stages = {}
    for stage, build in (
        ("data.load_split_s", lambda: pipeline.split),
        ("evaluation.select_evaluator_s", lambda: pipeline.evaluator_selection),
        ("models.fit_s", lambda: pipeline.baselines),
        ("core.irn.fit_s", lambda: pipeline.irn()),
    ):
        started = time.perf_counter()
        build()
        stages[stage] = time.perf_counter() - started
    frameworks = pipeline.frameworks_for_comparison()
    protocol = pipeline.protocol()
    return pipeline, frameworks, protocol, stages


def draw_rounds(seed: int, pool: int, count: int) -> "list[list[int]]":
    """Seeded blocks of instance indices (without replacement until the pool is used up)."""
    rng = np.random.default_rng([seed, 1])
    order: "list[int]" = []
    while len(order) < count * ROUND_INSTANCES:
        order.extend(int(i) for i in rng.permutation(pool))
    return [order[i * ROUND_INSTANCES : (i + 1) * ROUND_INSTANCES] for i in range(count)]


def evaluate_round(protocol, frameworks: dict, labels: "list[str]", block: "list[int]", tracer=None):
    """Generate and score every framework on one instance block.

    Returns one ``(label, block, seconds, steps, result)`` unit per framework.
    """
    view = copy.copy(protocol)
    view.instances = [protocol.instances[i] for i in block]
    units = []
    for label in labels:
        started = time.perf_counter()
        if tracer is None:
            records = view.generate_records(frameworks[label])
            result = view.score_records(label, records)
        else:
            with tracer.span("evaluation.generate", request=label):
                records = view.generate_records(frameworks[label])
            with tracer.span("evaluation.score", request=label):
                result = view.score_records(label, records)
        seconds = time.perf_counter() - started
        units.append((label, block, seconds, sum(len(r.path) for r in records), result))
    return units


def _per_record_reference(protocol, label: str, records) -> "list[dict]":
    """The reference terms of each record: its path and its metric terms."""
    terms = []
    for record in records:
        single = protocol.score_records(label, [record])
        terms.append(
            {
                "path": list(record.path),
                "ioi": single.increase_of_interest,
                "ior": single.increment_of_rank,
                "log_ppl": single.log_ppl if record.path else None,
            }
        )
    return terms


def record_reference() -> dict:
    """Evaluate the whole 80-instance pool per framework, one record at a time."""
    pipeline, frameworks, protocol, _ = setup()
    selection = pipeline.evaluator_selection
    reference = {
        "evaluator": selection.best_name(),
        "evaluator_scores": selection.scores,
        "instances": [
            [inst.user_index, list(inst.history), inst.objective] for inst in protocol.instances
        ],
        "frameworks": {},
    }
    for label in frameworks:
        records = []
        for index in range(len(protocol.instances)):
            records.extend(evaluate_round(protocol, frameworks, [label], [index])[0][4].records)
        reference["frameworks"][label] = _per_record_reference(protocol, label, records)
    return reference


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-9)


def check_unit(reference: dict, label: str, block: "list[int]", result) -> int:
    """Mismatches of one unit's paths and SR / IoI / IoR / log-PPL against the reference."""
    terms = [reference["frameworks"][label][i] for i in block]
    wrong = sum(1 for t, r in zip(terms, result.records) if list(r.path) != t["path"])
    objectives = [reference["instances"][i][2] for i in block]
    success = sum(1 for t, o in zip(terms, objectives) if o in t["path"]) / len(terms)
    ppl = [t["log_ppl"] for t in terms if t["log_ppl"] is not None]
    expected = {
        "success": success,
        "increase_of_interest": float(np.mean([t["ioi"] for t in terms])),
        "increment_of_rank": float(np.mean([t["ior"] for t in terms])),
        "log_ppl": float(np.mean(ppl)),
    }
    wrong += sum(1 for key, value in expected.items() if not _close(getattr(result, key), value))
    return wrong


def check_setup(reference: dict, pipeline, protocol) -> "list[str]":
    problems = []
    selection = pipeline.evaluator_selection
    if selection.best_name() != reference["evaluator"]:
        problems.append(
            f"selected evaluator {selection.best_name()} != reference {reference['evaluator']}"
        )
    for name, scores in reference["evaluator_scores"].items():
        for key, value in scores.items():
            if not _close(selection.scores[name][key], value):
                problems.append(f"evaluator candidate {name} {key} differs from the reference")
    instances = [[i.user_index, list(i.history), i.objective] for i in protocol.instances]
    if instances != reference["instances"]:
        problems.append("the evaluation instance pool differs from the reference")
    return problems


def _eval_pass(protocol, frameworks, blocks, seed, seconds=None, tracer=None):
    """Evaluate rounds in a seeded framework order, until ``seconds`` have
    passed (at least one round) or over all ``blocks``.

    Returns the units, the blocks evaluated and the wall time.
    """
    rng = np.random.default_rng([seed, 2])
    labels = list(frameworks)
    units, done = [], []
    started = time.perf_counter()
    for block in blocks:
        if done and seconds is not None and time.perf_counter() - started >= seconds:
            break
        order = [labels[i] for i in rng.permutation(len(labels))]
        units.extend(evaluate_round(protocol, frameworks, order, block, tracer))
        done.append(block)
    return units, done, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    setup_times, stage_times = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous set-up's garbage must not raise this one's peak RSS
        started = time.perf_counter()
        pipeline, frameworks, protocol, stages = setup()
        setup_times.append(time.perf_counter() - started)
        stage_times.append(stages)
    result.problems.extend(check_setup(reference, pipeline, protocol))

    # Rounds until --seconds have passed; the traced pass of a traced run
    # then evaluates the same rounds.
    blocks = draw_rounds(seed, len(protocol.instances), 1000)
    units, rounds, wall = _eval_pass(protocol, frameworks, blocks, seed, seconds)

    def account(phase: str, evaluated, seconds: float) -> None:
        wrong = sum(
            1 for label, block, _, _, unit_result in evaluated
            if check_unit(reference, label, block, unit_result)
        )
        result.attempted += len(evaluated)
        result.failed += wrong
        result.phases.append(
            {"phase": phase, "rounds": len(rounds), "sent": len(evaluated),
             "succeeded": len(evaluated) - wrong, "failed": 0, "rejected": 0, "wrong": wrong,
             "steps": sum(unit[3] for unit in evaluated), "wall_s": round(seconds, 3)}
        )

    account("eval", units, wall)
    steps = sum(unit[3] for unit in units)
    per_step_ms = [1000.0 * unit[2] / max(unit[3], 1) for unit in units]
    if not trace:
        result.values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "latency_p50_ms": percentile(per_step_ms, 50),
            "slo_attainment": sum(1 for v in per_step_ms if v <= SLO_MS_PER_STEP) / len(units),
            "saturation_rps": steps / wall,
        }
        return result

    tracer = Tracer()
    evaluator = pipeline.evaluator
    for name in ("log_probability", "rank"):
        tracer.wrap(evaluator, name, "evaluation.evaluator")
    models = list(pipeline.baselines.values()) + [evaluator.model]
    for model in models:
        tracer.wrap(model, "score_next", "models.infer", lambda a, k: 1)
        tracer.wrap(model, "score_next_batch", "models.infer", lambda a, k: len(a[0]))
    irn = pipeline.irn()
    for name in IRN_SCORERS:
        tracer.wrap(irn, name, "core.irn.score")
    decode_before = irn.decode_stats.snapshot()
    try:
        with tracer.span("bench"):
            traced_units, _, traced_wall = _eval_pass(
                protocol, frameworks, rounds, seed, tracer=tracer
            )
    finally:
        tracer.unwrap_all()
    decode_after = irn.decode_stats.snapshot()
    account("traced eval", traced_units, traced_wall)
    root = next(span for span in tracer.spans if span.name == "bench")
    summary = summarize(tracer.spans, root)
    by_id = {span.span_id: span for span in tracer.spans}
    evaluator_spans = [
        s for s in tracer.spans
        if s.name == "evaluation.evaluator" and by_id.get(s.parent_id, root).name != s.name
    ]
    infer_spans = [
        s for s in tracer.spans
        if s.name == "models.infer" and by_id.get(s.parent_id, root).name != s.name
    ]
    generate = {}
    for span in tracer.spans:
        if span.name == "evaluation.generate":
            key = f"evaluation.generate_s.{family(span.request)}"
            generate[key] = generate.get(key, 0.0) + span.duration
    scored_steps = sum(unit[3] for unit in traced_units)
    irn_scores = [s.duration for s in tracer.spans if s.name == "core.irn.score"]
    result.values = {
        **{key: median([stages[key] for stages in stage_times]) for key in stage_times[0]},
        "core.irn.fit_seq_per_s": len(pipeline.split.train) * irn.epochs
        / median([stages["core.irn.fit_s"] for stages in stage_times]),
        "evaluation.score_s": sum(s.duration for s in tracer.spans if s.name == "evaluation.score"),
        "evaluation.evaluator_calls": len(evaluator_spans),
        "evaluation.evaluator_calls_per_step": len(evaluator_spans) / max(scored_steps, 1),
        **generate,
        "models.infer_calls": len(infer_spans),
        "models.rows_per_call": sum(s.request for s in infer_spans) / max(len(infer_spans), 1),
        **irn_values(decode_before, decode_after, irn_scores),
        "loadgen.latency_p99_ms": percentile(per_step_ms, 99),
        "loadgen.latency_samples": len(per_step_ms),
        **span_metrics(summary),
        "trace.overhead_share": traced_wall / wall - 1.0,
    }
    return result

"""A perturbed answer trips each workload's output check."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline

from perfbench.loadgen import PhaseStats
from perfbench.workloads import paper_table3, serve_fleet, serve_sessions


def _unit(paths, success, ioi, ior, log_ppl):
    records = [SimpleNamespace(path=tuple(path)) for path in paths]
    return SimpleNamespace(
        records=records,
        success=success,
        increase_of_interest=ioi,
        increment_of_rank=ior,
        log_ppl=log_ppl,
    )


def test_table3_check_flags_a_changed_path_or_metric():
    reference = {
        "instances": [[0, [1, 2], 7], [1, [3], 9]],
        "frameworks": {
            "IRN": [
                {"path": [4, 7], "ioi": 0.5, "ior": 2.0, "log_ppl": 3.0},
                {"path": [5, 6], "ioi": 0.1, "ior": -1.0, "log_ppl": 4.0},
            ]
        },
    }
    block = [0, 1]
    exact = _unit([[4, 7], [5, 6]], 0.5, 0.3, 0.5, 3.5)
    assert paper_table3.check_unit(reference, "IRN", block, exact) == 0
    changed_path = _unit([[4, 7], [5, 8]], 0.5, 0.3, 0.5, 3.5)
    assert paper_table3.check_unit(reference, "IRN", block, changed_path) == 1
    changed_metric = _unit([[4, 7], [5, 6]], 0.5, 0.3 * (1 + 1e-4), 0.5, 3.5)
    assert paper_table3.check_unit(reference, "IRN", block, changed_metric) == 1


@pytest.fixture(scope="module")
def tiny():
    config = replace(ExperimentConfig.fast(), irn_epochs=1, max_path_length=6)
    pipeline = ExperimentPipeline(config)
    split, irn = pipeline.split, pipeline.irn()
    instance = split.test[0]
    history = tuple(instance.history[-10:])
    objective = next(
        item for item in range(1, irn.vocab_size) if item not in instance.history
    )
    return SimpleNamespace(config=config, split=split, irn=irn,
                           context=(history, objective, instance.user_index))


def test_sessions_check_flags_a_changed_step(tiny):
    history, objective, user = tiny.context
    planner = BeamSearchPlanner(tiny.irn, max_length=tiny.config.max_path_length).fit(tiny.split)
    walk = []
    while len(walk) < tiny.config.max_path_length:
        item = planner.next_step(list(history), objective, walk, user_index=user)
        if item is None:
            break
        walk.append(int(item))
        if item == objective:
            break
    assert walk
    stats = PhaseStats("open")
    session = serve_sessions._Session(history, objective, user, stats, path=list(walk))
    assert serve_sessions._check(tiny, [session]) == 0
    session.path[-1] = 0 if walk[-1] != 0 else 1
    assert serve_sessions._check(tiny, [session]) == 1
    assert stats.wrong == 1


def test_fleet_check_flags_a_changed_answer(tiny):
    history, objective, user = tiny.context
    planner = serve_fleet._planner(tiny.irn, tiny.split)
    path = planner.plan_path(list(history), objective, user_index=user,
                             max_length=serve_fleet.PLAN_LENGTH)
    right = SimpleNamespace(answer=list(path), served_generation=1)
    wrong = SimpleNamespace(answer=list(path[:-1]) + [0], served_generation=2)
    stats = PhaseStats("open")
    generations = serve_fleet._check(
        tiny, [(tiny.context, right, stats), (tiny.context, wrong, stats)]
    )
    assert stats.wrong == 1
    assert generations == {1: 1, 2: 1}

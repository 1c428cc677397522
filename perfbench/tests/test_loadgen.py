"""The seeded schedules are deterministic, and the scheduler runs them in order."""

import time

import numpy as np

from perfbench.loadgen import PhaseStats, Scheduler, poisson_offsets
from perfbench.workloads.paper_table3 import draw_rounds


def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_offsets(6.0, 7.0, np.random.default_rng([3, 1]))
    again = poisson_offsets(6.0, 7.0, np.random.default_rng([3, 1]))
    other = poisson_offsets(6.0, 7.0, np.random.default_rng([4, 1]))
    assert first == again
    assert first != other
    assert len(first) == len(other) == 42
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 7.0


def test_instance_rounds_are_deterministic_and_cover_the_pool():
    rounds = draw_rounds(5, 80, 40)
    assert rounds == draw_rounds(5, 80, 40)
    assert rounds != draw_rounds(6, 80, 40)
    assert sorted(i for block in rounds for i in block) == list(range(80))


def test_scheduler_runs_actions_in_due_order_and_waits_for_follow_ups():
    sched = Scheduler()
    seen = []
    start = time.perf_counter()

    def follow_up(due):
        seen.append("follow-up")
        sched.release()

    def first(due):
        seen.append("first")
        sched.hold()
        sched.at(time.perf_counter() + 0.01, follow_up)

    sched.at(start + 0.02, lambda due: seen.append("second"))
    sched.at(start, first)
    sched.run()
    assert seen == ["first", "follow-up", "second"]
    assert sched.lag_max_s >= 0.0


def test_steady_rate_adds_up_the_windows_of_a_sliced_phase():
    stats = PhaseStats("saturation")
    # 11 completions 0.1 s apart in the first window, 5 at 0.5 s apart in the
    # second; completions outside both windows do not count
    stats.completed_at = [0.1 * i for i in range(11)] + [5.0, 20.0, 20.5, 21.0, 21.5, 22.0]
    stats.windows = [(0.0, 1.05), (19.9, 22.1)]
    assert abs(stats.steady_rate() - (10 + 4) / (1.0 + 2.0)) < 1e-12
    stats.windows = [(0.0, 1.05)]
    assert abs(stats.steady_rate() - 10.0) < 1e-12
    stats.windows = []
    assert stats.steady_rate() == 0.0

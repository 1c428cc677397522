"""Traced self times add up to the traced wall within the stated tolerance."""

import threading
import time

from perfbench.tracing import SELF_TIME_TOLERANCE, Tracer, summarize


class _Layer:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def test_self_time_is_duration_minus_children_and_sums_to_wall():
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "work", "inner")

    def foreign():
        with tracer.span("outer"):
            layer.work(0.01)

    with tracer.span("bench"):
        with tracer.span("outer"):
            layer.work(0.02)
            time.sleep(0.01)
        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join()
    tracer.unwrap_all()
    assert "work" not in vars(layer)

    root = next(span for span in tracer.spans if span.name == "bench")
    summary = summarize(tracer.spans, root)
    assert summary["threads"] == 2
    assert summary["counts"] == {"bench": 1, "outer": 2, "inner": 2}
    assert summary["self_sum_error"] <= SELF_TIME_TOLERANCE
    assert abs(summary["self_sum_s"] - 2 * root.duration) <= SELF_TIME_TOLERANCE * root.duration
    assert summary["self_s"]["inner"] >= 0.03
    assert 0.01 <= summary["self_s"]["outer"] < summary["self_s"]["inner"]
    # the foreign thread's time outside its spans is its idle self time
    assert summary["self_s"]["idle"] >= root.duration - 0.02 - 0.005


def test_spans_outside_the_window_are_clipped():
    tracer = Tracer()
    with tracer.span("early"):
        time.sleep(0.005)
    with tracer.span("bench"):
        time.sleep(0.005)
    root = next(span for span in tracer.spans if span.name == "bench")
    summary = summarize(tracer.spans, root)
    assert "early" not in summary["counts"]
    assert summary["self_sum_error"] <= SELF_TIME_TOLERANCE

"""BENCHMARK.json names exactly the metrics the workloads report."""

import json
import os

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())

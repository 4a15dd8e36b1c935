"""BENCHMARK.json names exactly the metrics the runner prints."""

import json
from pathlib import Path

import run


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(name, unit) for name, unit, _ in run.LAYER_METRICS] + list(run.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

"""BENCHMARK.json names exactly the metrics run.py prints, with the same units."""

import json
import os

import run


def _declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_end_to_end_metrics_match():
    assert _declared("end_to_end") == run.END_TO_END


def test_per_layer_metrics_match():
    assert _declared("per_layer") == run.PER_LAYER


def test_workloads_match():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = tuple(w["name"] for w in json.load(fh)["workloads"])
    assert names == run.WORKLOAD_NAMES

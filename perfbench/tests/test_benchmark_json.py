"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
import os

import run
import spans
import workloads


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)

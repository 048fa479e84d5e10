"""Tests of the benchmark itself.

The exact counters of a traced pass (calls, iterations, sweeps, factorisations,
pivots, variables, non-zeros, path-steps, projections) must repeat exactly for
the same seed, so that a later change can cite them as counts.  The metric
tables in run.py must match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _exact_counters(workload: str) -> dict[str, float]:
    ops = workloads.WORKLOADS[workload](workloads.catalog(), SEED)
    _, tr = run.traced_pass(ops, range(len(ops)), run.load_known(workload))
    layer = tracer.aggregate(tr.spans)
    return {
        name: layer.get(run.RENAMED.get(name, name), 0.0)
        for name, unit, _ in run.PER_LAYER
        if unit in run.EXACT_UNITS
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_for_the_same_seed(workload, monkeypatch):
    monkeypatch.setenv("EXITRATE_THREADS", run.THREADS)
    first = _exact_counters(workload)
    assert any(first.values())
    assert _exact_counters(workload) == first


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_splits_concurrent_spans_and_excludes_children():
    # parent 0..10 on thread 1 with child 2..4; two concurrent spans on
    # threads 2 and 3 over 5..7, children of the parent.
    spans = [
        (0, "a", 0.0, 10.0, -1, 1, None),
        (1, "b", 2.0, 4.0, 0, 1, None),
        (2, "c/task", 5.0, 7.0, 0, 2, None),
        (3, "c/task", 5.0, 7.0, 0, 3, None),
    ]
    share = tracer.self_times(spans)
    assert share[0] == pytest.approx(6.0)
    assert share[1] == pytest.approx(2.0)
    assert share[2] == pytest.approx(1.0) and share[3] == pytest.approx(1.0)
    agg = tracer.aggregate(spans)
    assert agg["c.self_s"] == pytest.approx(2.0) and "c.calls" not in agg
    assert agg["trace.self_s_total"] == pytest.approx(10.0)

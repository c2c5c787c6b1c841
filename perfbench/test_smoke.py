"""Smoke test of the benchmark harness on a tiny op list; takes a few seconds.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import io
import json

import pytest

import harness
import tracer
from workloads import op_key

OPS = [
    ["count", "--group", "cyclic:3", "--k", "2", "--output", "csv"],
    ["bounds", "--group", "cyclic:4", "--k", "2", "--output", "csv"],
]
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def goldens():
    harness.warm_up()
    return harness.record_goldens(OPS)


def _emit(result):
    buf = io.StringIO()
    code = harness.emit(result, harness.machine(), out=buf)
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[0])["machine"], json.loads(lines[-1])


def test_untraced_run_reports_every_end_to_end_metric(goldens):
    code, info, last = _emit(harness.run_workload(OPS, goldens, 1, 0, trace=False))
    assert code == 0
    assert (last["correct"], last["attempted"], last["failed"]) == (True, 2, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    for key in ("nproc", "cpu", "python", "numpy", "commit", "load1_before", "load1_after"):
        assert key in info


def test_traced_run_reports_every_per_layer_metric(goldens):
    result = harness.run_workload(OPS, goldens, 1, 0, trace=True)
    code, _, last = _emit(result)
    assert code == 0
    assert (last["correct"], last["attempted"], last["failed"]) == (True, 4, 0)
    assert result["missing"] == []  # every wrapped function still exists
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert want == tracer.LAYER_UNITS
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["permgroup.closure.calls"] > 0
    assert 0 < metrics["trace.uncovered_frac"] < 1


def test_corrupted_golden_is_reported_as_a_failed_op(goldens):
    bad = copy.deepcopy(goldens)
    bad[op_key(OPS[1])]["stdout"] += "0"
    code, _, last = _emit(harness.run_workload(OPS, bad, 1, 0, trace=False))
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 2, 1)

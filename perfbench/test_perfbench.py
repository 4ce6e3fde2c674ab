"""Tests of the benchmark itself: seed discipline, oracles, and a smoke.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest -q perfbench

Everything runs at :data:`perfbench.workloads.TINY` sizes, so the whole
file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import trace
from perfbench.workloads import TINY, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _measure(name, seed, tmp_path, ops=4, log=None):
    workload = WORKLOADS[name](seed, TINY, str(tmp_path))
    try:
        raw = bench.measure(workload, seconds=120.0, log=log, max_ops=ops)
    finally:
        workload.teardown()
    return workload, raw


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = WORKLOADS[name](7, TINY, str(tmp_path)).inputs()
    again = WORKLOADS[name](7, TINY, str(tmp_path)).inputs()
    other = WORKLOADS[name](8, TINY, str(tmp_path)).inputs()
    assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
    assert [a.tobytes() for a in first] != [a.tobytes() for a in other]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_share_op_kinds_and_query_parameters(name, tmp_path):
    one, _ = _measure(name, 1, tmp_path)
    two, _ = _measure(name, 2, tmp_path)
    assert one.op_log and one.op_log == two.op_log
    assert not one.failures and not two.failures


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracles_catch_a_wrong_answer(name, tmp_path):
    workload = WORKLOADS[name](3, TINY, str(tmp_path))
    try:
        bench.measure(workload, seconds=120.0, max_ops=4)
        assert not workload.failures
        if name.startswith("batch"):
            k, ids = workload.answers[0]
            workload.answers[0] = (k, ids[1:])
        elif name.startswith("serve"):
            points, ids, answer = workload.versions[0]
            workload.versions[0] = (points, ids, answer[1:])
        else:
            window, sky = workload.checks[0]
            workload.checks[0] = (window, sky[1:])
        workload.verify()
    finally:
        workload.teardown()
    assert workload.failures


def test_every_span_name_feeds_a_layer_metric():
    summed = {s for _unit, spans in bench.TIME_METRICS.values() for s in spans}
    assert set(trace.span_names()) <= summed


def test_untraced_runs_emit_the_end_to_end_metrics(tmp_path):
    contract = _contract()
    want = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert want == bench.END_TO_END
    for name in sorted(WORKLOADS):
        result, report = bench.run(name, 5, 120.0, traced=False, scale=TINY,
                                   max_ops=6, out_dir=str(tmp_path))
        assert result["correct"], report
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(v["value"] > 0 for v in result["metrics"].values())
        text = "\n".join(report)
        for metric in list(want) + list(bench.KIND_METRICS):
            assert metric in text


def test_traced_runs_emit_every_layer_metric_and_cover_the_spans(tmp_path):
    contract = _contract()
    want = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert want == bench.per_layer_units()
    recorded = set()
    for name in sorted(WORKLOADS):
        result, report = bench.run(name, 5, 120.0, traced=True, scale=TINY,
                                   max_ops=8, out_dir=str(tmp_path))
        assert result["correct"], report
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        spans = tmp_path / f"spans-{name}-seed5-trace1.jsonl"
        with open(spans) as handle:
            recorded |= {json.loads(line)["name"] for line in handle}
        assert 0.0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 1
    assert set(trace.span_names()) <= recorded
    # Tracing is off again: no shim is left in the program.
    from repro.pipeline import supervisor

    assert not hasattr(supervisor.preprocess, "__wrapped_by_perfbench__")


def test_serve_counts_router_cached_flag_mismatches(tmp_path):
    workload, raw = _measure("serve-sharded-d4", 4, tmp_path, ops=3)
    # Fresh top-k over shard full sub-queries that hit the shard caches
    # is reported cached by the router; the script says it is fresh.
    assert raw["counts"]["router.cached_flag_mismatch"] >= 1
    assert raw["counts"]["serving.hedged_subqueries"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-indep-d8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_upper_percentiles_need_ten_samples_beyond_them():
    assert bench.percentile(list(np.arange(5.0)), 0.5) == pytest.approx(2.0)
    assert bench.percentile(list(np.arange(99.0)), 0.9) is None
    assert bench.percentile(list(np.arange(100.0)), 0.9) is not None

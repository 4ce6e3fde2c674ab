"""Tests for the unified observability layer (spans + metrics).

The acceptance contract:

* a traced run's span tree is structurally valid — every executed
  map/reduce task appears exactly once (re-executed attempts are marked
  superseded), parents resolve, durations are non-negative;
* aggregating span attributes reproduces the job counter totals
  *exactly* (dominance tests, shuffle records/bytes), including under
  fault injection and recovery;
* the :class:`MetricsRegistry` is safe to hammer from concurrent
  ThreadedCluster tasks;
* both exports round-trip through JSONL.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.data.synthetic import independent
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ThreadedCluster
from repro.mapreduce.procpool import ProcessPoolCluster
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block
from repro.observability import (
    NULL_SPAN,
    NULL_TRACER,
    SUPERSEDED,
    MetricsRegistry,
    Tracer,
    aggregate_trace_rows,
    load_metrics_jsonl,
    load_trace_jsonl,
    registry_from_rows,
)
from repro.pipeline.supervisor import SupervisorConfig, supervised_run

# ----------------------------------------------------------------------
# spans and tracers
# ----------------------------------------------------------------------


class TestSpan:
    def test_lifecycle_and_attributes(self):
        tracer = Tracer()
        span = tracer.start_span("work", records=3)
        span.set("bytes", 128)
        span.update(records=5, extra=True)
        assert span.duration is None
        span.finish()
        first_end = span.end
        span.finish()  # idempotent: first finish wins
        assert span.end == first_end
        assert span.duration >= 0
        assert span.attributes == {"records": 5, "bytes": 128, "extra": True}

    def test_context_manager_finishes(self):
        tracer = Tracer()
        with tracer.span("scoped") as span:
            assert span.end is None
        assert span.end is not None

    def test_parent_linkage(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        grandchild = tracer.start_span("leaf", parent=child)
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert tracer.children_of(root) == [child]

    def test_null_span_parent_means_root(self):
        tracer = Tracer()
        span = tracer.start_span("s", parent=NULL_SPAN)
        assert span.parent_id is None


class TestTracer:
    def finished(self, tracer):
        for span in tracer.spans:
            span.finish()
        return tracer

    def test_totals_sum_numeric_attributes(self):
        tracer = Tracer()
        tracer.start_span("a", records=3, label="x").finish()
        tracer.start_span("b", records=4, bytes=100).finish()
        totals = tracer.totals("records", "bytes", "missing")
        assert totals == {"records": 7, "bytes": 100, "missing": 0}

    def test_totals_skip_superseded_spans(self):
        tracer = Tracer()
        live = tracer.start_span("task", records=10)
        dead = tracer.start_span("task", records=10)
        dead.set(SUPERSEDED, True)
        live.finish()
        dead.finish()
        assert tracer.totals("records")["records"] == 10
        assert (
            tracer.totals("records", include_superseded=True)["records"]
            == 20
        )

    def test_totals_ignore_bools(self):
        tracer = Tracer()
        tracer.start_span("a", flag=True, n=1).finish()
        assert tracer.totals("flag", "n") == {"flag": 0, "n": 1}

    def test_validate_accepts_good_tree(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        tracer.start_span("child", parent=root).finish()
        root.finish()
        tracer.validate()

    def test_validate_rejects_unfinished_span(self):
        tracer = Tracer()
        tracer.start_span("open")
        with pytest.raises(ConfigurationError, match="never finished"):
            tracer.validate()

    def test_validate_rejects_dangling_parent(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.parent_id = 999
        span.finish()
        with pytest.raises(ConfigurationError, match="dangling"):
            tracer.validate()

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        root = tracer.start_span("run", plan="X")
        tracer.start_span("task", parent=root, records=5).finish()
        superseded = tracer.start_span("task", parent=root, records=5)
        superseded.set(SUPERSEDED, True)
        superseded.finish()
        root.finish()
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path) == 3
        rows = load_trace_jsonl(path)
        assert [r["name"] for r in rows] == ["run", "task", "task"]
        assert rows[1]["parent_id"] == rows[0]["span_id"]
        assert rows[1]["duration"] >= 0
        # offline aggregation honours the superseded skip too
        assert aggregate_trace_rows(rows, "records") == {"records": 5}
        assert aggregate_trace_rows(rows, "records")["records"] == (
            tracer.totals("records")["records"]
        )


class TestNullTracer:
    def test_everything_is_a_shared_noop(self):
        span = NULL_TRACER.start_span("anything", records=1)
        assert span is NULL_SPAN
        with NULL_TRACER.span("scoped") as scoped:
            scoped.set("k", 1)
            scoped.update(x=2)
        assert span.attributes == {}
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.totals("records") == {"records": 0}

    def test_export_writes_nothing(self, tmp_path):
        path = tmp_path / "never.jsonl"
        assert NULL_TRACER.export_jsonl(str(path)) == 0
        assert not path.exists()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("map", "records", 3)
        reg.inc("map", "records", 2)
        reg.inc("reduce", "records")
        assert reg.counter("map", "records") == 5
        assert reg.counter("missing", "name") == 0
        assert reg.counters_as_dict() == {
            "map": {"records": 5}, "reduce": {"records": 1},
        }

    def test_counters_round_trip_with_job_counters(self):
        # A job's counters fold into the run registry (what
        # ``RunReport.merged_counters`` does) and survive its export.
        counters = MetricsRegistry()
        counters.inc("map", "input_records", 7)
        counters.inc("shuffle", "bytes", 99)
        reg = MetricsRegistry()
        reg.merge(counters)
        assert reg.counters_as_dict() == counters.counters_as_dict()
        restored = registry_from_rows(reg.to_rows())
        assert restored.counters_as_dict() == counters.counters_as_dict()

    def test_timers(self):
        reg = MetricsRegistry()
        reg.record_time("phase1", 0.25)
        reg.record_time("phase1", 0.75)
        with reg.timer("phase1"):
            pass
        timers = reg.timers_as_dict()
        assert timers["phase1"]["calls"] == 3
        assert timers["phase1"]["seconds"] == pytest.approx(1.0, abs=0.1)
        assert reg.timer_seconds("missing") == 0.0

    def test_histograms(self):
        reg = MetricsRegistry()
        for value in [1, 2, 3, 4, 100]:
            reg.observe("candidates", value)
        summary = reg.histogram_summary("candidates")
        assert summary["count"] == 5
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["total"] == 110
        assert summary["p50"] == 3
        assert reg.histogram_summary("missing")["count"] == 0

    def test_merge_accumulates_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("g", "n", 1)
        b.inc("g", "n", 2)
        a.record_time("t", 0.5)
        b.record_time("t", 0.5)
        a.observe("h", 1)
        b.observe("h", 2)
        a.merge(b)
        assert a.counter("g", "n") == 3
        assert a.timers_as_dict()["t"] == {"calls": 2, "seconds": 1.0}
        assert sorted(a.histogram("h")) == [1, 2]

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("map", "records", 5)
        reg.record_time("total", 1.5)
        reg.observe("candidates", 3)
        reg.observe("candidates", 9)
        path = str(tmp_path / "metrics.jsonl")
        assert reg.export_jsonl(path) == 3
        rebuilt = registry_from_rows(load_metrics_jsonl(path))
        assert rebuilt.as_dict() == reg.as_dict()


class TestMetricsConcurrency:
    def test_registry_hammered_from_threaded_cluster_tasks(self):
        """Concurrent map tasks on real worker threads increment the
        same registry; no update may be lost."""
        registry = MetricsRegistry()
        n_blocks, per_block = 16, 32

        def mapper(block, ctx):
            for _ in range(block.size):
                ctx.metrics.inc("stress", "updates")
                ctx.observe("stress.block_size", block.size)
            yield 0, block

        def reducer(key, blocks, ctx):
            return sum(b.size for b in blocks)

        blocks = [
            Block(
                np.arange(i * per_block, (i + 1) * per_block),
                np.zeros((per_block, 2)),
            )
            for i in range(n_blocks)
        ]
        cluster = ThreadedCluster(8)
        cluster.observer = registry
        runtime = MapReduceRuntime(
            cluster, metrics=registry, tracer=Tracer()
        )
        result = runtime.run(
            MapReduceJob("stress", mapper, reducer), blocks
        )
        assert result.outputs == {0: n_blocks * per_block}
        assert registry.counter("stress", "updates") == n_blocks * per_block
        hist = registry.histogram_summary("stress.block_size")
        assert hist["count"] == n_blocks * per_block
        # the cluster observer path is exercised by the runtime too
        assert (
            registry.histogram_summary("cluster.task_seconds")["count"] > 0
        )

    def test_raw_registry_thread_safety(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.inc("g", "n")
                registry.observe("h", 1.0)
                registry.record_time("t", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("g", "n") == 8000
        assert registry.histogram_summary("h")["count"] == 8000
        assert registry.timers_as_dict()["t"]["calls"] == 8000


# ----------------------------------------------------------------------
# runtime span-tree properties
# ----------------------------------------------------------------------


def parity_mapper(block, ctx):
    for parity in (0, 1):
        mask = block.ids % 2 == parity
        if mask.any():
            yield parity, block.select(mask)


def count_reducer(key, blocks, ctx):
    return sum(b.size for b in blocks)


class TestSpanTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=8),
        per_block=st.integers(min_value=1, max_value=12),
        workers=st.integers(min_value=1, max_value=4),
        crash=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_every_task_appears_exactly_once(
        self, n_blocks, per_block, workers, crash, seed
    ):
        """Every executed map/reduce task appears exactly once in the
        span tree (re-executed map attempts are superseded, not
        duplicated), durations are non-negative, parents resolve."""
        tracer = Tracer()
        blocks = [
            Block(
                np.arange(i * per_block, (i + 1) * per_block),
                np.zeros((per_block, 2)),
            )
            for i in range(n_blocks)
        ]
        fault_plan = (
            FaultPlan(
                seed=seed, worker_crash_rate=crash, max_attempts=50
            )
            if crash > 0
            else None
        )
        runtime = MapReduceRuntime(
            SimulatedCluster(workers), fault_plan=fault_plan,
            tracer=tracer,
        )
        result = runtime.run(
            MapReduceJob("prop", parity_mapper, count_reducer), blocks
        )
        tracer.validate()

        map_spans = tracer.named("map.task")
        live = [
            s for s in map_spans if not s.attributes.get(SUPERSEDED)
        ]
        superseded = [
            s for s in map_spans if s.attributes.get(SUPERSEDED)
        ]
        # exactly one surviving span per input split, one superseded
        # span per re-executed attempt
        assert len(live) == n_blocks
        assert len(superseded) == result.counters.counter(
            "map", "reexecuted_tasks"
        )
        assert len(tracer.named("reduce.task")) == len(result.outputs)
        for span in tracer.spans:
            assert span.duration is not None and span.duration >= 0
        # surviving map spans carry the only-successful-attempt records
        assert tracer.totals("records_in")["records_in"] == (
            n_blocks * per_block + sum(b.size for b in blocks)
        )


class TestSpanTreeAcrossExecutors:
    """One task form runs on every executor, so a crash-recovered map
    round leaves the same span tree on each: lost attempts superseded,
    re-executions live, and the same trace totals."""

    EXECUTORS = {
        "simulated": SimulatedCluster,
        "threaded": ThreadedCluster,
        "procpool": ProcessPoolCluster,
    }
    N_BLOCKS, PER_BLOCK, WORKERS = 8, 5, 3
    NAMES = (
        "records_in", "records_out",
        "dominance_point_tests", "dominance_region_tests",
    )

    def run_probe(self, executor):
        blocks = [
            Block(
                np.arange(i * self.PER_BLOCK, (i + 1) * self.PER_BLOCK),
                np.zeros((self.PER_BLOCK, 2)),
            )
            for i in range(self.N_BLOCKS)
        ]
        cluster = self.EXECUTORS[executor](
            self.WORKERS, fault_plan=FaultPlan(seed=1, worker_crash_rate=0.3)
        )
        tracer = Tracer()
        try:
            result = MapReduceRuntime(cluster, tracer=tracer).run(
                MapReduceJob("probe", parity_mapper, count_reducer), blocks
            )
        finally:
            cluster.shutdown()
        return tracer, result

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_superseded_attempts_traced_on_every_executor(self, executor):
        tracer, result = self.run_probe(executor)
        tracer.validate()
        reexecuted = result.counters.counter("map", "reexecuted_tasks")
        assert reexecuted > 0  # the seed must exercise recovery
        map_spans = tracer.named("map.task")
        superseded = [s for s in map_spans if s.attributes.get(SUPERSEDED)]
        assert len(map_spans) - len(superseded) == self.N_BLOCKS
        assert len(superseded) == reexecuted
        assert len(tracer.named("reduce.task")) == len(result.outputs)
        # task spans carry the tasks' own clocks, inside their phase
        for phase in tracer.named("map") + tracer.named("reduce"):
            for span in tracer.children_of(phase):
                assert phase.start <= span.start <= span.end <= phase.end
        reference, _ = self.run_probe("simulated")
        assert tracer.totals(*self.NAMES) == reference.totals(*self.NAMES)
        assert tracer.totals("records_in")["records_in"] == (
            2 * self.N_BLOCKS * self.PER_BLOCK
        )


# ----------------------------------------------------------------------
# acceptance: trace totals == counters totals, exactly
# ----------------------------------------------------------------------


class TestTraceCountersReconciliation:
    def run_traced(self, tmp_path, **kwargs):
        ds = independent(600, 4, seed=5)
        trace_path = str(tmp_path / "trace.jsonl")
        metrics_path = str(tmp_path / "metrics.jsonl")
        report = supervised_run(
            "ZDG+ZS+ZMP", ds, num_groups=6, num_workers=4,
            supervisor=SupervisorConfig(),
            trace_out=trace_path, metrics_out=metrics_path,
            **kwargs,
        )
        return report, trace_path, metrics_path

    NAMES = {
        "dominance_point_tests": ("dominance", "point_tests"),
        "dominance_region_tests": ("dominance", "region_tests"),
        "records": ("shuffle", "records"),
        "bytes": ("shuffle", "bytes"),
    }

    def assert_reconciles(self, report, trace_path):
        report.trace.validate()
        totals = report.trace.totals(*self.NAMES)
        counters = report.merged_counters()
        for attr, (group, name) in self.NAMES.items():
            assert totals[attr] == counters.counter(group, name), attr
        # and identically from the exported file alone
        file_totals = aggregate_trace_rows(
            load_trace_jsonl(trace_path), *self.NAMES
        )
        assert file_totals == totals

    def test_clean_run_reconciles_exactly(self, tmp_path):
        report, trace_path, metrics_path = self.run_traced(tmp_path)
        self.assert_reconciles(report, trace_path)
        # the metrics export carries the same counters
        rebuilt = registry_from_rows(load_metrics_jsonl(metrics_path))
        assert rebuilt.counter("dominance", "point_tests") == (
            report.merged_counters().counter("dominance", "point_tests")
        )
        assert report.details["trace_out"] == trace_path
        assert report.details["metrics_out"] == metrics_path

    def test_faulty_run_reconciles_exactly(self, tmp_path):
        """Fault recovery re-executes map tasks; superseded spans keep
        the trace totals on the only-successful-attempt semantics."""
        report, trace_path, _ = self.run_traced(
            tmp_path,
            fault_plan=FaultPlan(
                seed=11, task_failure_rate=0.15, worker_crash_rate=0.1,
                corruption_rate=0.05, max_attempts=8,
            ),
        )
        self.assert_reconciles(report, trace_path)

    def test_metrics_capture_figure9_quantities(self, tmp_path):
        report, _, _ = self.run_traced(tmp_path)
        metrics = report.metrics()
        groups = metrics.histogram_summary("phase1.group_candidates")
        assert groups["count"] > 0
        assert groups["total"] == report.merged_counters().counter(
            "phase1", "candidates"
        )
        assert metrics.timer_seconds("total.seconds") > 0

    def test_disabled_run_has_no_trace(self):
        ds = independent(300, 3, seed=5)
        report = supervised_run(
            "ZDG+ZS", ds, num_groups=4, num_workers=2,
            supervisor=SupervisorConfig(),
        )
        assert report.trace is None
        assert report.observed_metrics is None
        # post-hoc metrics still work from the job counters
        assert report.metrics().counter("map", "input_records") > 0

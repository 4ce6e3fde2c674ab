"""Unit and integration tests for the threaded cluster executor."""

import pytest

from repro import run_plan
from repro.core.exceptions import ConfigurationError, MapReduceError
from repro.core.skyline import is_skyline_of
from repro.data.synthetic import anticorrelated
from repro.mapreduce.parallel import ThreadedCluster
from repro.zorder.encoding import quantize_dataset


class TestThreadedCluster:
    def test_results_in_task_order(self):
        cluster = ThreadedCluster(4)
        results = cluster.run_round(
            "p", [lambda i=i: (i * 10, 1) for i in range(12)]
        )
        assert results == [i * 10 for i in range(12)]

    def test_ledgers_attribute_work(self):
        cluster = ThreadedCluster(3)
        cluster.run_round("p", [lambda: (None, 7) for _ in range(6)])
        metrics = cluster.metrics_for("p")
        assert [w.tasks for w in metrics.ledgers] == [2, 2, 2]
        assert metrics.total_cost == 42

    def test_explicit_placement(self):
        cluster = ThreadedCluster(3)
        cluster.run_round(
            "p", [lambda: (1, 5), lambda: (2, 5)], placement=[1, 1]
        )
        metrics = cluster.metrics_for("p")
        assert metrics.ledgers[1].tasks == 2
        assert metrics.ledgers[0].tasks == 0

    def test_placement_validation(self):
        cluster = ThreadedCluster(2)
        with pytest.raises(MapReduceError):
            cluster.run_round("p", [lambda: (1, 1)], placement=[7])
        with pytest.raises(MapReduceError):
            cluster.run_round("p", [lambda: (1, 1)], placement=[0, 1])

    def test_task_exception_wrapped_with_context(self):
        cluster = ThreadedCluster(2)

        def boom():
            raise ValueError("kaput")

        with pytest.raises(MapReduceError) as excinfo:
            cluster.run_round("p", [boom])
        message = str(excinfo.value)
        assert "task 0" in message and "'p'" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_task_exception_does_not_abort_worker_queue(self):
        # Tasks 0 and 2 share worker 0; task 0 raising must not stop
        # task 2 from running (per-task isolation).
        cluster = ThreadedCluster(2)
        ran = []

        def boom():
            raise ValueError("kaput")

        def ok(i):
            def task():
                ran.append(i)
                return i, 1

            return task

        with pytest.raises(MapReduceError):
            cluster.run_round(
                "p", [boom, ok(1), ok(2)], placement=[0, 1, 0]
            )
        assert sorted(ran) == [1, 2]
        metrics = cluster.metrics_for("p")
        assert metrics.ledgers[0].tasks == 1  # the survivor on worker 0

    def test_first_failing_task_wins(self):
        cluster = ThreadedCluster(2)

        def boom(i):
            def task():
                raise ValueError(f"kaput-{i}")

            return task

        with pytest.raises(MapReduceError) as excinfo:
            cluster.run_round("p", [boom(0), boom(1)])
        assert "task 0" in str(excinfo.value)

    def test_empty_round(self):
        cluster = ThreadedCluster(2)
        assert cluster.run_round("p", []) == []
        assert cluster.metrics_for("p").makespan_cost == 0

    def test_ledgers_exact_under_thread_contention(self):
        # Worker threads record their executions into one shared list;
        # a lost update would drop a task from its worker's ledger.
        import sys

        workers, tasks_n = 8, 400
        placement = [(i * 7) % workers for i in range(tasks_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cluster = ThreadedCluster(workers)
            cluster.run_round(
                "p",
                [lambda i=i: (i, i + 1) for i in range(tasks_n)],
                placement=placement,
            )
        finally:
            sys.setswitchinterval(interval)
        ledgers = cluster.metrics_for("p").ledgers
        for worker in range(workers):
            mine = [i for i in range(tasks_n) if placement[i] == worker]
            assert ledgers[worker].tasks == len(mine)
            assert ledgers[worker].cost_units == sum(i + 1 for i in mine)


class TestCountersConcurrency:
    def test_inc_hammered_from_worker_threads(self):
        from repro.mapreduce.counters import Counters

        counters = Counters()
        increments_per_task, tasks_n = 500, 32

        def make_task(i):
            def task():
                for _ in range(increments_per_task):
                    counters.inc("hammer", "n")
                return i, 1

            return task

        cluster = ThreadedCluster(8)
        results = cluster.run_round(
            "p", [make_task(i) for i in range(tasks_n)]
        )
        assert results == list(range(tasks_n))
        assert counters.get("hammer", "n") == increments_per_task * tasks_n

    def test_merge_hammered_from_worker_threads(self):
        from repro.mapreduce.counters import Counters

        shared = Counters()

        def make_task(i):
            def task():
                local = Counters()
                for _ in range(200):
                    local.inc("g", "n")
                    local.inc("g", f"task_{i}")
                shared.merge(local)
                return i, 1

            return task

        cluster = ThreadedCluster(8)
        cluster.run_round("p", [make_task(i) for i in range(24)])
        assert shared.get("g", "n") == 200 * 24
        for i in range(24):
            assert shared.get("g", f"task_{i}") == 200


class TestThreadedEngine:
    def test_same_skyline_as_simulated(self):
        ds = anticorrelated(3000, 4, seed=13)
        snapped, _ = quantize_dataset(ds, bits_per_dim=12)
        sequential = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, seed=0
        )
        threaded = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, seed=0,
            executor="threaded",
        )
        assert is_skyline_of(threaded.skyline.points, snapped.points)
        assert sorted(threaded.skyline.ids.tolist()) == sorted(
            sequential.skyline.ids.tolist()
        )
        # The deterministic cost model is executor-independent.
        assert threaded.total_cost == sequential.total_cost

    def test_executor_validation(self):
        ds = anticorrelated(200, 3, seed=1)
        with pytest.raises(ConfigurationError):
            run_plan("ZHG+ZS", ds, executor="gpu")
        with pytest.raises(ConfigurationError):
            run_plan(
                "ZHG+ZS", ds, executor="threaded",
                slowdown_factors=[1.0] * 8,
            )
        with pytest.raises(ConfigurationError):
            run_plan("ZHG+ZS", ds, executor="threaded", speculative=True)

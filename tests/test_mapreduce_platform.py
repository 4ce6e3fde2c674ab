"""Unit tests for counters, cache, DFS, and the simulated cluster."""

import numpy as np
import pytest

from repro.core.exceptions import MapReduceError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.types import Block


class TestCounters:
    def test_inc_and_get(self):
        c = Counters()
        c.inc("map", "records", 5)
        c.inc("map", "records", 3)
        assert c.get("map", "records") == 8

    def test_missing_counter_is_zero(self):
        assert Counters().get("x", "y") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.inc("g", "n", 1)
        b.inc("g", "n", 2)
        b.inc("h", "m", 7)
        a.merge(b)
        assert a.get("g", "n") == 3
        assert a.get("h", "m") == 7

    def test_as_dict_snapshot(self):
        c = Counters()
        c.inc("g", "n")
        snap = c.as_dict()
        snap["g"]["n"] = 999
        assert c.get("g", "n") == 1


class TestCache:
    def test_put_get(self):
        cache = DistributedCache()
        cache.put("rule", [1, 2, 3])
        assert cache.get("rule") == [1, 2, 3]
        assert "rule" in cache
        assert len(cache) == 1

    def test_write_once(self):
        cache = DistributedCache()
        cache.put("k", 1)
        with pytest.raises(MapReduceError):
            cache.put("k", 2)

    def test_identical_republication_is_idempotent(self):
        # A supervised resume re-publishes the preprocessing artefacts
        # into a still-live cache; identical payloads must be a no-op.
        cache = DistributedCache()
        payload = np.arange(12.0).reshape(4, 3)
        cache.put("skyline", payload)
        cache.put("skyline", payload)  # same object
        cache.put("skyline", payload.copy())  # equal ndarray
        assert np.array_equal(cache.get("skyline"), payload)
        cache.put("scalar", 7)
        cache.put("scalar", 7)
        assert cache.get("scalar") == 7

    def test_conflicting_republication_still_raises(self):
        cache = DistributedCache()
        cache.put("skyline", np.zeros((2, 2)))
        with pytest.raises(MapReduceError, match="conflicting"):
            cache.put("skyline", np.ones((2, 2)))

    def test_missing_key(self):
        with pytest.raises(MapReduceError):
            DistributedCache().get("nope")


class TestDFS:
    def make_block(self, n=4, d=2):
        return Block(np.arange(n), np.zeros((n, d)))

    def test_write_read_roundtrip(self):
        dfs = InMemoryDFS()
        block = self.make_block()
        dfs.write("out/part-0", [block])
        got = dfs.read("out/part-0")
        assert got[0] is block

    def test_io_accounting(self):
        dfs = InMemoryDFS()
        block = self.make_block(n=10, d=3)
        dfs.write("f", [block])
        assert dfs.bytes_written == block.nbytes
        assert dfs.records_written == 10
        dfs.read("f")
        assert dfs.bytes_read == block.nbytes

    def test_no_overwrite(self):
        dfs = InMemoryDFS()
        dfs.write("f", [])
        with pytest.raises(MapReduceError):
            dfs.write("f", [])

    def test_explicit_overwrite_replaces_content(self):
        dfs = InMemoryDFS()
        first, second = self.make_block(n=2), self.make_block(n=6)
        dfs.write("f", [first])
        dfs.write("f", [second], overwrite=True)
        assert dfs.read("f") == [second]

    def test_read_missing(self):
        with pytest.raises(MapReduceError):
            InMemoryDFS().read("missing")

    def test_delete_and_listdir(self):
        dfs = InMemoryDFS()
        dfs.write("b", [])
        dfs.write("a", [])
        assert dfs.listdir() == ["a", "b"]
        dfs.delete("a")
        assert dfs.listdir() == ["b"]
        with pytest.raises(MapReduceError):
            dfs.delete("a")

    def test_latest_resolves_attempt_scoped_output(self):
        # Reruns write to <path>/attempt-<k>; a resumed reader must see
        # the newest attempt, not the stale base file.
        dfs = InMemoryDFS()
        dfs.write("skyline", [self.make_block(n=1)])
        dfs.write("skyline/attempt-1", [self.make_block(n=2)])
        dfs.write("skyline/attempt-2", [self.make_block(n=3)])
        assert dfs.latest_path("skyline") == "skyline/attempt-2"
        blocks = dfs.latest("skyline")
        assert blocks[0].size == 3

    def test_latest_falls_back_to_base_path(self):
        dfs = InMemoryDFS()
        dfs.write("skyline", [self.make_block(n=4)])
        assert dfs.latest_path("skyline") == "skyline"
        assert dfs.latest("skyline")[0].size == 4

    def test_latest_with_only_attempts(self):
        # The base path may never exist (first execution already ran
        # under a reused runtime whose counter was advanced).
        dfs = InMemoryDFS()
        dfs.write("out/attempt-1", [self.make_block(n=2)])
        assert dfs.latest_path("out") == "out/attempt-1"

    def test_latest_missing_raises(self):
        with pytest.raises(MapReduceError):
            InMemoryDFS().latest("nope")


class TestCluster:
    def test_round_robin_placement(self):
        cluster = SimulatedCluster(2)
        results = cluster.run_round(
            "p", [lambda i=i: (i, 10) for i in range(4)]
        )
        assert results == [0, 1, 2, 3]
        metrics = cluster.metrics_for("p")
        assert [w.tasks for w in metrics.ledgers] == [2, 2]
        assert [w.cost_units for w in metrics.ledgers] == [20, 20]

    def test_explicit_placement(self):
        cluster = SimulatedCluster(3)
        cluster.run_round(
            "p", [lambda: (1, 5), lambda: (2, 7)], placement=[2, 2]
        )
        metrics = cluster.metrics_for("p")
        assert metrics.ledgers[2].cost_units == 12
        assert metrics.ledgers[0].tasks == 0

    def test_makespan_is_max_worker(self):
        cluster = SimulatedCluster(2)
        cluster.run_round(
            "p",
            [lambda: (None, 100), lambda: (None, 1)],
            placement=[0, 1],
        )
        assert cluster.metrics_for("p").makespan_cost == 100
        assert cluster.metrics_for("p").total_cost == 101

    def test_cost_skew(self):
        cluster = SimulatedCluster(2)
        cluster.run_round(
            "p",
            [lambda: (None, 30), lambda: (None, 10)],
            placement=[0, 1],
        )
        assert cluster.metrics_for("p").cost_skew() == pytest.approx(1.5)

    def test_straggler_injection_inflates_wall_time(self):
        def busy():
            total = 0
            for i in range(20000):
                total += i
            return total, 1

        fast = SimulatedCluster(1)
        slow = SimulatedCluster(1, slowdown_factors=[100.0])
        fast.run_round("p", [busy])
        slow.run_round("p", [busy])
        assert (
            slow.metrics_for("p").makespan_seconds
            > fast.metrics_for("p").makespan_seconds
        )

    def test_validation(self):
        with pytest.raises(MapReduceError):
            SimulatedCluster(0)
        with pytest.raises(MapReduceError):
            SimulatedCluster(2, slowdown_factors=[1.0])
        with pytest.raises(MapReduceError):
            SimulatedCluster(1, slowdown_factors=[-1.0])
        cluster = SimulatedCluster(1)
        with pytest.raises(MapReduceError):
            cluster.run_round("p", [lambda: (1, 1)], placement=[5])
        with pytest.raises(MapReduceError):
            cluster.metrics_for("never-ran")

    def test_bad_placement_rejected_before_any_task_runs(self):
        cluster = SimulatedCluster(2)
        ran = []

        def task():
            ran.append(1)
            return None, 1

        with pytest.raises(MapReduceError, match="out of range"):
            cluster.run_round("p", [task, task], placement=[0, 9])
        assert ran == []
        assert cluster.history == []

    def test_empty_round_has_metrics(self):
        cluster = SimulatedCluster(2)
        cluster.run_round("empty", [])
        assert cluster.metrics_for("empty").makespan_cost == 0


class TestWorkerFailure:
    def test_failed_workers_do_no_work(self):
        cluster = SimulatedCluster(4, failed_workers=[1, 2])
        cluster.run_round("p", [lambda: (1, 10) for _ in range(8)])
        metrics = cluster.metrics_for("p")
        assert metrics.ledgers[1].tasks == 0
        assert metrics.ledgers[2].tasks == 0
        assert sum(w.tasks for w in metrics.ledgers) == 8
        assert metrics.total_cost == 80

    def test_rerouting_spreads_over_survivors(self):
        cluster = SimulatedCluster(4, failed_workers=[0])
        cluster.run_round("p", [lambda: (1, 1) for _ in range(8)])
        metrics = cluster.metrics_for("p")
        survivors = [metrics.ledgers[w].tasks for w in (1, 2, 3)]
        assert max(survivors) - min(survivors) <= 1

    def test_results_unaffected(self):
        cluster = SimulatedCluster(3, failed_workers=[2])
        results = cluster.run_round(
            "p", [lambda i=i: (i, 1) for i in range(5)]
        )
        assert results == [0, 1, 2, 3, 4]

    def test_all_placements_on_failed_workers_keep_task_order(self):
        # Regression: every task of the round pinned to a failed worker
        # must still come back in task order, spread over survivors.
        cluster = SimulatedCluster(4, failed_workers=[0, 1])
        results = cluster.run_round(
            "p",
            [lambda i=i: (i, 1) for i in range(6)],
            placement=[0, 1, 0, 1, 0, 1],
        )
        assert results == list(range(6))
        metrics = cluster.metrics_for("p")
        assert metrics.ledgers[0].tasks == 0
        assert metrics.ledgers[1].tasks == 0
        assert metrics.ledgers[2].tasks == 3
        assert metrics.ledgers[3].tasks == 3
        assert all(w in (2, 3) for w in metrics.placements)

    def test_validation(self):
        with pytest.raises(MapReduceError):
            SimulatedCluster(2, failed_workers=[5])
        with pytest.raises(MapReduceError):
            SimulatedCluster(2, failed_workers=[0, 1])


class TestSpeculativeExecution:
    @staticmethod
    def busy_task(loops):
        def task():
            total = 0
            for i in range(loops):
                total += i
            return total, 1

        return task

    def test_speculation_rescues_environmental_straggler(self):
        # One worker 50x slower; all tasks the same size.  With
        # speculation, the slow worker's tasks re-run on fast workers.
        tasks = [self.busy_task(30_000) for _ in range(8)]
        plain = SimulatedCluster(4, slowdown_factors=[50.0, 1, 1, 1])
        spec = SimulatedCluster(
            4, slowdown_factors=[50.0, 1, 1, 1], speculative=True
        )
        plain.run_round("p", list(tasks))
        spec.run_round("p", list(tasks))
        m_plain = plain.metrics_for("p")
        m_spec = spec.metrics_for("p")
        assert m_spec.makespan_seconds < m_plain.makespan_seconds
        assert m_spec.speculative_copies > 0

    def test_speculation_cannot_fix_algorithmic_skew(self):
        # One giant task on a healthy cluster: re-executing it elsewhere
        # gains nothing, so no speculative copies happen.
        tasks = [self.busy_task(200_000)] + [
            self.busy_task(2_000) for _ in range(3)
        ]
        spec = SimulatedCluster(4, speculative=True)
        spec.run_round("p", tasks)
        metrics = spec.metrics_for("p")
        assert metrics.speculative_copies == 0

    def test_speculation_disabled_by_default(self):
        cluster = SimulatedCluster(2, slowdown_factors=[100.0, 1.0])
        cluster.run_round("p", [self.busy_task(20_000)] * 4)
        assert cluster.metrics_for("p").speculative_copies == 0

    def test_threshold_validation(self):
        with pytest.raises(MapReduceError):
            SimulatedCluster(2, speculation_threshold=1.0)

    def test_results_unaffected_by_speculation(self):
        spec = SimulatedCluster(
            2, slowdown_factors=[10.0, 1.0], speculative=True
        )
        results = spec.run_round(
            "p", [lambda i=i: (i, 1) for i in range(6)]
        )
        assert results == list(range(6))

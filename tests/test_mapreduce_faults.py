"""Fault injection & recovery: the engine's correctness-under-failures
contract.

The headline guarantee: for every plan and executor, the skyline
computed under a seeded :class:`FaultPlan` (transient task failures +
worker crashes that lose map output + shuffle corruption) is
bit-identical to the fault-free skyline, and the same seed reproduces
the same fault schedule and failure counters."""

import numpy as np
import pytest

from repro import run_plan
from repro.core.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    MapReduceError,
)
from repro.data.synthetic import anticorrelated
from repro.mapreduce.cluster import LostTask, SimulatedCluster
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ThreadedCluster
from repro.mapreduce.procpool import ProcessPoolCluster
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=3, task_failure_rate=0.5)
        b = FaultPlan(seed=3, task_failure_rate=0.5)
        decisions_a = [
            a.task_attempt_fails("p:map", i, k)
            for i in range(20)
            for k in range(1, 4)
        ]
        decisions_b = [
            b.task_attempt_fails("p:map", i, k)
            for i in range(20)
            for k in range(1, 4)
        ]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, task_failure_rate=0.5)
        b = FaultPlan(seed=2, task_failure_rate=0.5)
        decisions = lambda plan: [  # noqa: E731
            plan.task_attempt_fails("p:map", i, 1) for i in range(64)
        ]
        assert decisions(a) != decisions(b)

    def test_scripted_failures_override_rate(self):
        plan = FaultPlan(scripted_failures={("p", 0): 2})
        assert plan.task_attempt_fails("p", 0, 1)
        assert plan.task_attempt_fails("p", 0, 2)
        assert not plan.task_attempt_fails("p", 0, 3)
        assert not plan.task_attempt_fails("p", 1, 1)

    def test_at_least_one_worker_survives_crashes(self):
        plan = FaultPlan(seed=0, worker_crash_rate=0.999)
        for phase in ("a:map", "b:map", "c:map"):
            crashed = plan.crashed_workers(phase, 4)
            assert len(crashed) < 4

    def test_backoff_grows_exponentially(self):
        plan = FaultPlan(backoff_base=0.1)
        assert plan.backoff_seconds(1) == pytest.approx(0.1)
        assert plan.backoff_seconds(3) == pytest.approx(0.4)

    def test_corrupt_copy_breaks_checksum(self):
        block = Block(np.arange(4), np.ones((4, 3)))
        corrupted = FaultPlan.corrupt_copy(block)
        assert corrupted.checksum() != block.checksum()
        # Empty blocks carry no payload bytes to flip.
        empty = Block.empty(3)
        assert FaultPlan.corrupt_copy(empty).checksum() == empty.checksum()

    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "seed=7, task=0.1, crash=0.2, corrupt=0.05, attempts=6, "
            "backoff=0.01"
        )
        assert plan.seed == 7
        assert plan.task_failure_rate == pytest.approx(0.1)
        assert plan.worker_crash_rate == pytest.approx(0.2)
        assert plan.corruption_rate == pytest.approx(0.05)
        assert plan.max_attempts == 6
        assert plan.backoff_base == pytest.approx(0.01)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("task")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("task=lots")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(task_failure_rate=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(worker_crash_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_attempts=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(backoff_base=-1.0)


class TestClusterRetries:
    @pytest.mark.parametrize("cluster_cls", [SimulatedCluster, ThreadedCluster])
    def test_transient_failures_are_retried(self, cluster_cls):
        plan = FaultPlan(
            scripted_failures={("p", 0): 2, ("p", 2): 1},
            max_attempts=4,
            backoff_base=0.01,
        )
        cluster = cluster_cls(2, fault_plan=plan)
        results = cluster.run_round(
            "p", [lambda i=i: (i, 1) for i in range(4)]
        )
        assert results == [0, 1, 2, 3]
        metrics = cluster.metrics_for("p")
        assert metrics.failed_attempts == 3
        # attempt 1 + attempt 2 of task 0: 0.01 + 0.02; task 2: 0.01
        assert metrics.backoff_seconds == pytest.approx(0.04)
        # Backoff is charged to the worker that ran the task.
        assert metrics.ledgers[0].failed_attempts == 3

    @pytest.mark.parametrize("cluster_cls", [SimulatedCluster, ThreadedCluster])
    def test_retry_budget_exhaustion_raises(self, cluster_cls):
        plan = FaultPlan(scripted_failures={("p", 0): 99}, max_attempts=3)
        cluster = cluster_cls(2, fault_plan=plan)
        with pytest.raises(FaultInjectionError):
            cluster.run_round("p", [lambda: (1, 1)])

    @pytest.mark.parametrize("cluster_cls", [SimulatedCluster, ThreadedCluster])
    def test_lost_task_records_no_wall_sample(self, cluster_cls):
        plan = FaultPlan(scripted_failures={("p", 0): 99}, max_attempts=2)
        cluster = cluster_cls(2, fault_plan=plan)
        cluster.observer = MetricsRegistry()
        results = cluster.run_round(
            "p", [lambda: (1, 1) for _ in range(3)], lenient=True
        )
        assert isinstance(results[0], LostTask)
        assert len(cluster.observer.histogram("cluster.task_seconds")) == 2

    def test_no_plan_means_no_retries(self):
        cluster = SimulatedCluster(2)
        cluster.run_round("p", [lambda: (1, 1)])
        assert cluster.metrics_for("p").failed_attempts == 0

    def test_placements_recorded_for_lineage(self):
        cluster = SimulatedCluster(3)
        cluster.run_round("p", [lambda: (1, 1) for _ in range(5)])
        assert cluster.metrics_for("p").placements == [0, 1, 2, 0, 1]


class TestThreadedClusterConfigRejection:
    def test_inherited_slowdown_factors_rejected(self):
        cluster = ThreadedCluster(2)
        cluster.slowdown_factors = [2.0, 1.0]
        with pytest.raises(ConfigurationError):
            cluster.run_round("p", [lambda: (1, 1)])

    def test_inherited_failed_workers_rejected(self):
        cluster = ThreadedCluster(2)
        cluster.failed_workers = {0}
        with pytest.raises(ConfigurationError):
            cluster.run_round("p", [lambda: (1, 1)])

    def test_inherited_speculative_rejected(self):
        cluster = ThreadedCluster(2)
        cluster.speculative = True
        with pytest.raises(ConfigurationError):
            cluster.run_round("p", [lambda: (1, 1)])


@pytest.mark.parametrize("cls", [ThreadedCluster, ProcessPoolCluster])
class TestRealExecutorSignature:
    """Both real executors take ``(num_workers, fault_plan=None)``."""

    def test_fault_plan_is_second_positional(self, cls):
        plan = FaultPlan(seed=3, task_failure_rate=0.1)
        assert cls(2, plan).fault_plan is plan

    @pytest.mark.parametrize(
        "option",
        [
            {"slowdown_factors": [2.0, 1.0]},
            {"speculative": True},
            {"speculation_threshold": 2.0},
            {"failed_workers": [0]},
        ],
    )
    def test_simulation_options_not_accepted(self, cls, option):
        with pytest.raises(TypeError):
            cls(2, **option)


# ----------------------------------------------------------------------
# runtime-level recovery
# ----------------------------------------------------------------------
def make_blocks(n_blocks=4, per_block=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    blocks = []
    next_id = 0
    for _ in range(n_blocks):
        ids = np.arange(next_id, next_id + per_block)
        next_id += per_block
        blocks.append(
            Block(ids, rng.integers(0, 10, (per_block, d)).astype(float))
        )
    return blocks


def parity_mapper(block, ctx):
    for parity in (0, 1):
        mask = block.ids % 2 == parity
        if mask.any():
            yield parity, block.select(mask)


def concat_reducer(key, blocks, ctx):
    return Block.concat(blocks)


class TestRuntimeRecovery:
    def run_job(self, fault_plan, cluster_cls=SimulatedCluster, **kwargs):
        cluster = cluster_cls(4, fault_plan=fault_plan)
        runtime = MapReduceRuntime(cluster)
        job = MapReduceJob("j", parity_mapper, concat_reducer)
        return runtime.run(job, make_blocks(n_blocks=8), **kwargs)

    @staticmethod
    def output_ids(result):
        return {
            key: sorted(value.ids.tolist())
            for key, value in result.outputs.items()
        }

    def test_worker_crash_reexecutes_lost_map_tasks(self):
        clean = self.run_job(None)
        faulted = self.run_job(
            FaultPlan(seed=11, worker_crash_rate=0.5, backoff_base=0.0)
        )
        assert self.output_ids(faulted) == self.output_ids(clean)
        assert faulted.counters.counter("map", "worker_crashes") > 0
        assert faulted.counters.counter("map", "reexecuted_tasks") > 0
        assert faulted.recovery_metrics is not None
        assert faulted.recovery_cost > 0
        # Hadoop counter semantics: only surviving attempts count, so
        # record counters match the clean run exactly.
        assert faulted.counters.counter("map", "input_records") == (
            clean.counters.counter("map", "input_records")
        )
        assert faulted.counters.counter("map", "output_records") == (
            clean.counters.counter("map", "output_records")
        )

    def test_crashed_workers_excluded_from_recovery_placement(self):
        plan = FaultPlan(seed=11, worker_crash_rate=0.5)
        cluster = SimulatedCluster(4, fault_plan=plan)
        runtime = MapReduceRuntime(cluster)
        job = MapReduceJob("j", parity_mapper, concat_reducer)
        runtime.run(job, make_blocks(n_blocks=8))
        crashed = set(plan.crashed_workers("j:map", 4))
        assert crashed  # seed chosen so the schedule crashes someone
        recovery = cluster.metrics_for("j:map:recovery")
        placed_on = {
            w.worker_id for w in recovery.ledgers if w.tasks > 0
        }
        assert placed_on and not (placed_on & crashed)

    def test_shuffle_corruption_detected_and_refetched(self):
        clean = self.run_job(None)
        faulted = self.run_job(FaultPlan(seed=5, corruption_rate=0.5))
        assert self.output_ids(faulted) == self.output_ids(clean)
        assert faulted.counters.counter("shuffle", "corrupt_blocks") > 0
        assert faulted.counters.counter("shuffle", "refetched_bytes") > 0
        # The logical shuffle volume is the clean one; re-fetch traffic
        # is reported separately.
        assert faulted.shuffle_records == clean.shuffle_records
        assert faulted.shuffle_bytes == clean.shuffle_bytes

    def test_combined_faults_on_threaded_cluster(self):
        clean = self.run_job(None)
        plan = FaultPlan(
            seed=9,
            task_failure_rate=0.2,
            worker_crash_rate=0.4,
            corruption_rate=0.3,
            max_attempts=8,
            backoff_base=0.0,
        )
        faulted = self.run_job(plan, cluster_cls=ThreadedCluster)
        assert self.output_ids(faulted) == self.output_ids(clean)

    def test_skipped_outputs_counter(self):
        def scalar_reducer(key, blocks, ctx):
            return sum(b.size for b in blocks)

        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("j", parity_mapper, scalar_reducer)
        result = runtime.run(job, make_blocks(), output_path="out")
        assert result.counters.counter("dfs", "skipped_outputs") == 2
        assert runtime.dfs.read("out") == []

    def test_skipped_outputs_zero_for_block_outputs(self):
        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("j", parity_mapper, concat_reducer)
        result = runtime.run(job, make_blocks(), output_path="out")
        assert result.counters.counter("dfs", "skipped_outputs") == 0


class TestDFSChecksums:
    def test_verify_intact_file(self):
        dfs = InMemoryDFS()
        dfs.write("f", [Block(np.arange(3), np.ones((3, 2)))])
        assert dfs.verify("f")

    def test_verify_detects_mutation(self):
        dfs = InMemoryDFS()
        block = Block(np.arange(3), np.ones((3, 2)))
        dfs.write("f", [block])
        block.points[0, 0] = 99.0  # bit rot behind the DFS's back
        assert not dfs.verify("f")

    def test_verify_missing_path(self):
        with pytest.raises(MapReduceError):
            InMemoryDFS().verify("nope")

    def test_delete_clears_checksums(self):
        dfs = InMemoryDFS()
        dfs.write("f", [])
        dfs.delete("f")
        dfs.write("f", [])  # would raise if stale checksum state lingered
        assert dfs.verify("f")


# ----------------------------------------------------------------------
# the headline property: skyline identical under any fault schedule
# ----------------------------------------------------------------------
PLANS = [
    f"{part}+{local}"
    for part in ("Naive-Z", "ZHG", "ZDG")
    for local in ("SB", "ZS")
]

FAULTS = FaultPlan(
    seed=17,
    task_failure_rate=0.2,
    worker_crash_rate=0.25,
    corruption_rate=0.2,
    max_attempts=8,
    backoff_base=0.0,
)


class TestSkylineIdenticalUnderFaults:
    @pytest.fixture(scope="class")
    def dataset(self):
        return anticorrelated(900, 4, seed=2)

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize(
        "executor", ["simulated", "threaded", "procpool"]
    )
    def test_fault_free_equivalence(self, dataset, plan, executor):
        kwargs = dict(num_groups=8, num_workers=4, seed=0)
        clean = run_plan(plan, dataset, **kwargs)
        faulted = run_plan(
            plan, dataset, executor=executor, fault_plan=FAULTS, **kwargs
        )
        assert sorted(faulted.skyline.ids.tolist()) == sorted(
            clean.skyline.ids.tolist()
        )
        assert np.array_equal(
            faulted.skyline.points[np.argsort(faulted.skyline.ids)],
            clean.skyline.points[np.argsort(clean.skyline.ids)],
        )
        # The schedule genuinely fired (otherwise this test is vacuous).
        assert sum(faulted.fault_summary().values()) > 0

    def test_same_seed_same_schedule_and_counters(self, dataset):
        kwargs = dict(
            num_groups=8, num_workers=4, seed=0, fault_plan=FAULTS
        )
        first = run_plan("ZDG+ZS+ZM", dataset, **kwargs)
        second = run_plan("ZDG+ZS+ZM", dataset, **kwargs)
        assert first.fault_summary() == second.fault_summary()
        assert (
            first.phase1.counters.counters_as_dict()
            == second.phase1.counters.counters_as_dict()
        )
        assert sorted(first.skyline.ids.tolist()) == sorted(
            second.skyline.ids.tolist()
        )

    def test_counters_identical_across_executors(self, dataset):
        kwargs = dict(
            num_groups=8, num_workers=4, seed=0, fault_plan=FAULTS
        )
        simulated = run_plan("ZDG+ZS+ZM", dataset, **kwargs)
        threaded = run_plan(
            "ZDG+ZS+ZM", dataset, executor="threaded", **kwargs
        )
        pooled = run_plan(
            "ZDG+ZS+ZM", dataset, executor="procpool", **kwargs
        )
        assert simulated.fault_summary() == threaded.fault_summary()
        assert simulated.fault_summary() == pooled.fault_summary()

    def test_fault_plan_accepts_spec_string(self, dataset):
        report = run_plan(
            "ZDG+ZS",
            dataset,
            num_groups=8,
            num_workers=4,
            seed=0,
            fault_plan="seed=17,task=0.2,crash=0.25,corrupt=0.2,"
            "attempts=8,backoff=0.0",
        )
        clean = run_plan(
            "ZDG+ZS", dataset, num_groups=8, num_workers=4, seed=0
        )
        assert sorted(report.skyline.ids.tolist()) == sorted(
            clean.skyline.ids.tolist()
        )

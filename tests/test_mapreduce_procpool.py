"""Tests for the process-pool executor and its remote-dispatch plumbing.

The acceptance contract:

* :class:`ProcessPoolCluster` is a drop-in for the other executors —
  same task-order results, same ledgers, same deterministic fault
  accounting, same error surface;
* everything that crosses the pool boundary (tasks, blocks, counters,
  fault plans, rules, codecs, job callables) pickles without loss;
* shared-memory Block transport round-trips arrays bit-exactly;
* the full engine produces a bit-identical skyline and identical
  counters under ``executor="procpool"``, and kernel stats measured in
  worker processes are merged back (the ``KernelStats.__reduce__``
  blind spot);
* a checkpointed run interrupted under one executor resumes onto a
  process pool.
"""

import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_plan
from repro.core.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    MapReduceError,
)
from repro.data.synthetic import anticorrelated, independent
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import LostTask
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.procpool import ProcessPoolCluster, worker_cache
from repro.mapreduce.shm import (
    MIN_SHM_BYTES,
    ShmBlockRef,
    pack_blocks,
    resolve_block,
)
from repro.mapreduce.types import Block
from repro.pipeline.phase1 import Phase1Combiner, Phase1Mapper, Phase1Reducer
from repro.pipeline.phase2 import AlgorithmReducer, PartialMergeMapper
from repro.zorder.encoding import quantize_dataset
from repro.zorder.kernel import KernelStats


# ----------------------------------------------------------------------
# picklable task payloads (pool workers re-import this module)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValueTask:
    value: object
    cost: int = 1

    def __call__(self):
        return self.value, self.cost


class BoomTask:
    def __call__(self):
        raise ValueError("kaput")


@dataclass(frozen=True)
class CacheReadTask:
    key: str

    def __call__(self):
        return worker_cache().get(self.key), 1


@pytest.fixture
def cluster():
    made = []

    def make(*args, **kwargs):
        c = ProcessPoolCluster(*args, **kwargs)
        made.append(c)
        return c

    yield make
    for c in made:
        c.shutdown()


class TestProcessPoolCluster:
    def test_results_in_task_order(self, cluster):
        c = cluster(4)
        results = c.run_round("p", [ValueTask(i * 10) for i in range(12)])
        assert results == [i * 10 for i in range(12)]

    def test_ledgers_attribute_work(self, cluster):
        c = cluster(3)
        c.run_round("p", [ValueTask(None, cost=7) for _ in range(6)])
        metrics = c.metrics_for("p")
        assert [w.tasks for w in metrics.ledgers] == [2, 2, 2]
        assert metrics.total_cost == 42

    def test_placement_validation(self, cluster):
        c = cluster(2)
        with pytest.raises(MapReduceError):
            c.run_round("p", [ValueTask(1)], placement=[7])
        with pytest.raises(MapReduceError):
            c.run_round("p", [ValueTask(1)], placement=[0, 1])

    def test_task_exception_carries_context_across_pickle(self, cluster):
        c = cluster(2)
        with pytest.raises(MapReduceError) as excinfo:
            c.run_round("p", [BoomTask()])
        message = str(excinfo.value)
        # ``__cause__`` cannot survive the result pipe, so the worker
        # folds the original exception into the message instead.
        assert "task 0" in message and "'p'" in message
        assert "ValueError" in message and "kaput" in message

    def test_task_exception_does_not_abort_worker_queue(self, cluster):
        # Tasks 0 and 2 share worker 0; task 0 raising must not stop
        # task 2 from running (per-task isolation inside the drain).
        c = cluster(2)
        with pytest.raises(MapReduceError):
            c.run_round(
                "p", [BoomTask(), ValueTask(1), ValueTask(2)],
                placement=[0, 1, 0],
            )
        metrics = c.metrics_for("p")
        assert metrics.ledgers[0].tasks == 1  # the survivor on worker 0

    def test_empty_round(self, cluster):
        c = cluster(2)
        assert c.run_round("p", []) == []
        assert c.metrics_for("p").makespan_cost == 0

    def test_scripted_retries_match_simulated_accounting(self, cluster):
        plan = FaultPlan(
            scripted_failures={("p", 0): 2, ("p", 2): 1},
            max_attempts=4,
            backoff_base=0.01,
        )
        c = cluster(2, fault_plan=plan)
        results = c.run_round("p", [ValueTask(i) for i in range(4)])
        assert results == [0, 1, 2, 3]
        metrics = c.metrics_for("p")
        assert metrics.failed_attempts == 3
        assert metrics.backoff_seconds == pytest.approx(0.04)
        # Backoff is charged to the worker that owned the task.
        assert metrics.ledgers[0].failed_attempts == 3

    def test_retry_budget_exhaustion_raises(self, cluster):
        plan = FaultPlan(scripted_failures={("p", 0): 99}, max_attempts=3)
        c = cluster(2, fault_plan=plan)
        with pytest.raises(FaultInjectionError) as excinfo:
            c.run_round("p", [ValueTask(1)])
        assert "exhausted 3 attempts" in str(excinfo.value)

    def test_lenient_round_loses_the_task_instead(self, cluster):
        plan = FaultPlan(scripted_failures={("p", 1): 99}, max_attempts=2)
        c = cluster(2, fault_plan=plan)
        results = c.run_round(
            "p", [ValueTask(0), ValueTask(1)], lenient=True
        )
        assert results[0] == 0
        assert isinstance(results[1], LostTask)
        assert results[1].index == 1

    def test_straggler_knobs_rejected(self, cluster):
        for attr, value in (
            ("slowdown_factors", [2.0, 1.0]),
            ("failed_workers", {0}),
            ("speculative", True),
        ):
            c = cluster(2)
            setattr(c, attr, value)
            with pytest.raises(ConfigurationError):
                c.run_round("p", [ValueTask(1)])

    def test_published_cache_reaches_workers(self, cluster):
        cache = DistributedCache()
        cache.put("greeting", {"text": "hello"})
        c = cluster(2)
        c.publish_cache(cache)
        results = c.run_round("p", [CacheReadTask("greeting")] * 3)
        assert results == [{"text": "hello"}] * 3

    def test_republishing_identical_cache_keeps_the_pool(self, cluster):
        cache = DistributedCache()
        cache.put("k", 1)
        c = cluster(2)
        c.publish_cache(cache)
        c.run_round("p", [ValueTask(1)])
        pool = c._pool
        assert pool is not None
        c.publish_cache(cache)  # identical bytes: no-op
        assert c._pool is pool
        cache.put("k2", 2)
        c.publish_cache(cache)  # new bytes: pool retired
        assert c._pool is None

    def test_shutdown_is_idempotent(self, cluster):
        c = cluster(2)
        c.run_round("p", [ValueTask(1)])
        c.shutdown()
        c.shutdown()
        # A fresh round after shutdown just builds a new pool.
        assert c.run_round("p", [ValueTask(5)]) == [5]


# ----------------------------------------------------------------------
# shared-memory transport
# ----------------------------------------------------------------------
def _blocks(n_points, d=4, with_z=True, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.arange(n_points, dtype=np.int64)
    points = rng.random((n_points, d))
    z = (
        rng.integers(0, 2**40, n_points).astype(np.uint64)
        if with_z
        else None
    )
    return Block(ids, points, zaddresses=z)


class TestShmTransport:
    def test_small_rounds_stay_inline(self):
        blocks = [_blocks(8), _blocks(8, seed=1)]
        segment, shipped = pack_blocks(blocks)
        assert segment is None
        assert shipped == blocks

    def test_pack_resolve_round_trip_is_bit_exact(self):
        blocks = [
            _blocks(3000, seed=0),
            _blocks(2000, with_z=False, seed=1),
        ]
        segment, refs = pack_blocks(blocks, min_bytes=1)
        assert segment is not None
        try:
            for original, ref in zip(blocks, refs):
                assert isinstance(ref, ShmBlockRef)
                resolved = resolve_block(pickle.loads(pickle.dumps(ref)))
                assert np.array_equal(resolved.ids, original.ids)
                assert np.array_equal(resolved.points, original.points)
                if original.zaddresses is None:
                    assert resolved.zaddresses is None
                else:
                    assert np.array_equal(
                        resolved.zaddresses, original.zaddresses
                    )
                # Views are read-only: a worker cannot corrupt the
                # coordinator's round payload.
                with pytest.raises(ValueError):
                    resolved.points[0, 0] = -1.0
                del resolved
        finally:
            segment.close()

    def test_offsets_are_aligned(self):
        segment, refs = pack_blocks([_blocks(1000)], min_bytes=1)
        try:
            for array_ref in (refs[0].ids, refs[0].points,
                              refs[0].zaddresses):
                assert array_ref.offset % 64 == 0
        finally:
            segment.close()

    def test_threshold_respects_total_payload(self):
        # Just under / just over the configured floor.
        big = _blocks(MIN_SHM_BYTES // 8, with_z=False, d=1)
        segment, _ = pack_blocks([big])
        assert segment is not None
        segment.close()
        small = _blocks(16, with_z=False, d=1)
        segment, _ = pack_blocks([small])
        assert segment is None

    def test_plain_blocks_pass_resolve_through(self):
        block = _blocks(8)
        assert resolve_block(block) is block


# ----------------------------------------------------------------------
# pickle-ability audit: everything that crosses the pool boundary
# ----------------------------------------------------------------------
class TestPoolBoundaryPickling:
    def test_counters_round_trip(self):
        counters = Counters()
        counters.inc("map", "input_records", 41)
        counters.inc("shuffle", "bytes", 7)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone.as_dict() == counters.as_dict()
        clone.inc("map", "input_records")  # still usable (lock restored)
        assert clone.get("map", "input_records") == 42

    @given(
        st.dictionaries(
            st.sampled_from(["map", "reduce", "shuffle"]),
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=10**9),
                max_size=3,
            ),
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_counters_round_trip_property(self, payload):
        counters = Counters()
        counters.update_from_dict(payload)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone.as_dict() == counters.as_dict()

    def test_fault_plan_round_trip_preserves_schedule(self):
        plan = FaultPlan(
            seed=17, task_failure_rate=0.3, worker_crash_rate=0.2,
            corruption_rate=0.1, max_attempts=5, backoff_base=0.25,
        )
        clone = pickle.loads(pickle.dumps(plan))
        draws = [
            (phase, index, attempt)
            for phase in ("a:map", "b:reduce")
            for index in range(8)
            for attempt in range(1, 4)
        ]
        assert [clone.task_attempt_fails(*d) for d in draws] == [
            plan.task_attempt_fails(*d) for d in draws
        ]
        assert clone.backoff_seconds(3) == plan.backoff_seconds(3)

    def test_block_round_trip(self):
        block = _blocks(64)
        clone = pickle.loads(pickle.dumps(block))
        assert clone.checksum() == block.checksum()
        assert np.array_equal(clone.zaddresses, block.zaddresses)

    def test_job_callables_round_trip(self):
        for obj in (
            Phase1Mapper(prefilter=True),
            Phase1Combiner(local_algorithm="ZSearch"),
            Phase1Reducer(local_algorithm="SkylineBasic"),
            PartialMergeMapper(ways=4),
            AlgorithmReducer(algorithm="ZSearch"),
        ):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_kernel_stats_pickle_empty_by_design(self):
        # Cache payloads must be byte-stable across runs, so a codec's
        # embedded stats never travel; the pool drain carries each
        # task's delta home and merges it back explicitly.
        stats = KernelStats()
        stats.merge_snapshot({"encode_fast_calls": 9})
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.snapshot() == {}
        clone.merge_snapshot(stats.snapshot())
        assert clone.snapshot() == {"encode_fast_calls": 9}

    def test_preprocess_artifacts_round_trip(self):
        from repro.pipeline.plans import parse_plan
        from repro.pipeline.preprocess import preprocess

        ds = independent(600, 4, seed=5)
        snapped, codec = quantize_dataset(ds, bits_per_dim=12)
        plan = parse_plan("ZDG+ZS+ZM")
        pre = preprocess(snapped, codec, plan.partitioner, 6, seed=5)

        rule = pickle.loads(pickle.dumps(pre.rule))
        assert np.array_equal(
            rule.assign_groups(snapped.points, snapped.ids),
            pre.rule.assign_groups(snapped.points, snapped.ids),
        )
        codec_clone = pickle.loads(pickle.dumps(pre.codec))
        assert np.array_equal(
            codec_clone.encode_grid_batch(snapped.points[:100]),
            pre.codec.encode_grid_batch(snapped.points[:100]),
        )

    def test_zbtree_pickle_is_stable_across_cache_warmup(self):
        # The derived per-node child-minpts cache must not leak into the
        # pickle stream: warmed and cold trees publish identical cache
        # bytes (the DistributedCache idempotence + pool-reuse checks
        # compare exactly these).
        from repro.zorder.zbtree import build_zbtree

        ds = independent(500, 4, seed=7)
        snapped, codec = quantize_dataset(ds, bits_per_dim=12)
        sky = snapped.points[:80]
        tree = build_zbtree(codec, sky)
        probe = snapped.points[:200]
        cold = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        tree.dominated_mask_tree(probe)
        warm = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        assert cold == warm
        clone = pickle.loads(warm)
        assert np.array_equal(
            clone.dominated_mask_tree(probe),
            tree.dominated_mask_tree(probe),
        )


# ----------------------------------------------------------------------
# full-engine equivalence
# ----------------------------------------------------------------------
PLANS = [
    f"{part}+{local}"
    for part in ("Naive-Z", "ZHG", "ZDG")
    for local in ("SB", "ZS")
] + ["ZDG+ZS+ZM", "ZDG+ZS+ZMP"]


class TestProcessPoolEngine:
    @pytest.fixture(scope="class")
    def dataset(self):
        return anticorrelated(900, 4, seed=2)

    @pytest.fixture(scope="class")
    def simulated_runs(self, dataset):
        kwargs = dict(num_groups=8, num_workers=4, seed=0)
        return {
            plan: run_plan(plan, dataset, **kwargs) for plan in PLANS
        }

    @pytest.mark.parametrize("plan", PLANS)
    def test_skyline_bit_identical_to_simulated(
        self, dataset, simulated_runs, plan
    ):
        pooled = run_plan(
            plan, dataset, num_groups=8, num_workers=4, seed=0,
            executor="procpool",
        )
        base = simulated_runs[plan]
        assert sorted(pooled.skyline.ids.tolist()) == sorted(
            base.skyline.ids.tolist()
        )
        assert np.array_equal(
            pooled.skyline.points[np.argsort(pooled.skyline.ids)],
            base.skyline.points[np.argsort(base.skyline.ids)],
        )
        assert pooled.details["executor"] == "procpool"

    def test_counters_and_cost_identical_to_simulated(
        self, dataset, simulated_runs
    ):
        base = simulated_runs["ZDG+ZS+ZM"]
        pooled = run_plan(
            "ZDG+ZS+ZM", dataset, num_groups=8, num_workers=4, seed=0,
            executor="procpool",
        )
        assert (
            pooled.phase1.counters.as_dict()
            == base.phase1.counters.as_dict()
        )
        assert (
            pooled.phase2.counters.as_dict()
            == base.phase2.counters.as_dict()
        )
        # The deterministic cost model is executor-independent.
        assert pooled.total_cost == base.total_cost

    def test_kernel_stats_survive_the_process_boundary(self, dataset):
        # Regression: ``KernelStats.__reduce__`` pickles empty, so
        # before the explicit delta carry every encode/decode done in a
        # worker process was silently dropped from the report.
        pooled = run_plan(
            "ZDG+ZS+ZM", dataset, num_groups=8, num_workers=4, seed=0,
            executor="procpool",
        )
        stats = pooled.details["kernel_stats"]
        assert sum(stats.values()) > 0
        base = run_plan(
            "ZDG+ZS+ZM", dataset, num_groups=8, num_workers=4, seed=0
        )
        assert stats == base.details["kernel_stats"]

    def test_engine_run_reaps_its_pool(self, dataset):
        import multiprocessing

        run_plan(
            "ZHG+ZS", dataset, num_groups=6, num_workers=3, seed=0,
            executor="procpool",
        )
        workers = [
            p for p in multiprocessing.active_children()
            if "Process" in type(p).__name__
        ]
        assert workers == []


class TestSupervisedResumeOntoPool:
    def test_checkpoint_resumes_onto_a_process_pool(self, tmp_path):
        """A run interrupted under the simulated executor resumes under
        a process pool to the bit-identical skyline."""
        from repro.pipeline.supervisor import (
            SupervisorConfig,
            supervised_run,
        )

        ds = independent(240, 3, seed=3)
        base = run_plan("ZDG+ZS", ds, num_groups=5, num_workers=3)
        kill_final = FaultPlan(
            scripted_failures={("phase2-merge:reduce", 0): 99},
            max_attempts=2,
        )
        with pytest.raises(FaultInjectionError):
            supervised_run(
                "ZDG+ZS", ds, num_groups=5, num_workers=3,
                executor="simulated", fault_plan=kill_final,
                supervisor=SupervisorConfig(
                    checkpoint_dir=str(tmp_path), max_stage_retries=0
                ),
            )
        rep = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            executor="procpool",
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)
        assert "phase1" in rep.details["resumed_stages"]

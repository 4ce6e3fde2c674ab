"""Integration tests for the MapReduce runtime (word-count-ish jobs over
point blocks, plus combiner/shuffle semantics)."""

import numpy as np
import pytest

from repro.core.exceptions import MapReduceError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block


def make_blocks(n_blocks=4, per_block=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    blocks = []
    next_id = 0
    for _ in range(n_blocks):
        ids = np.arange(next_id, next_id + per_block)
        next_id += per_block
        blocks.append(Block(ids, rng.integers(0, 10, (per_block, d)).astype(float)))
    return blocks


def partition_by_parity(block, ctx):
    """Mapper: split records by id parity."""
    for parity in (0, 1):
        mask = block.ids % 2 == parity
        if mask.any():
            yield parity, block.select(mask)


def count_reducer(key, blocks, ctx):
    return sum(b.size for b in blocks)


class TestRuntime:
    def test_map_shuffle_reduce(self):
        runtime = MapReduceRuntime(SimulatedCluster(3))
        job = MapReduceJob(
            name="parity", mapper=partition_by_parity, reducer=count_reducer
        )
        result = runtime.run(job, make_blocks())
        assert result.outputs == {0: 20, 1: 20}
        assert result.counters.counter("map", "input_records") == 40
        assert result.shuffle_records == 40
        assert result.elapsed_seconds > 0

    def test_combiner_cuts_shuffle(self):
        def halving_combiner(emitted, ctx):
            out = {}
            for key, blocks in emitted.items():
                merged = Block.concat(blocks)
                out[key] = [merged.select(np.arange(merged.size // 2))]
            return out

        runtime = MapReduceRuntime(SimulatedCluster(2))
        without = runtime.run(
            MapReduceJob("no-comb", partition_by_parity, count_reducer),
            make_blocks(),
        )
        with_comb = runtime.run(
            MapReduceJob(
                "comb",
                partition_by_parity,
                count_reducer,
                combiner=halving_combiner,
            ),
            make_blocks(),
        )
        assert with_comb.shuffle_records < without.shuffle_records

    def test_combiner_takes_each_tasks_keyed_output_once(self):
        seen = []

        def recording_combiner(emitted, ctx):
            seen.append({key: sum(b.size for b in blocks)
                         for key, blocks in emitted.items()})
            return emitted

        runtime = MapReduceRuntime(SimulatedCluster(2))
        result = runtime.run(
            MapReduceJob(
                "record", partition_by_parity, count_reducer,
                combiner=recording_combiner,
            ),
            make_blocks(),
        )
        # one call per map task, with every key that task emitted
        assert seen == [{0: 5, 1: 5}] * 4
        assert result.outputs == {0: 20, 1: 20}

    def test_reduce_output_blocks_written_to_dfs(self):
        def id_mapper(block, ctx):
            yield 0, block

        def passthrough_reducer(key, blocks, ctx):
            return Block.concat(blocks)

        runtime = MapReduceRuntime(SimulatedCluster(2))
        runtime.run(
            MapReduceJob("w", id_mapper, passthrough_reducer),
            make_blocks(),
            output_path="out",
        )
        stored = runtime.dfs.read("out")
        assert sum(b.size for b in stored) == 40

    def test_empty_input_rejected(self):
        runtime = MapReduceRuntime(SimulatedCluster(1))
        job = MapReduceJob("x", partition_by_parity, count_reducer)
        with pytest.raises(MapReduceError):
            runtime.run(job, [])

    def test_job_requires_name(self):
        with pytest.raises(MapReduceError):
            MapReduceJob("", partition_by_parity, count_reducer)

    def test_metrics_cover_both_phases(self):
        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("m", partition_by_parity, count_reducer)
        result = runtime.run(job, make_blocks())
        assert result.map_metrics.phase == "m:map"
        assert result.reduce_metrics.phase == "m:reduce"
        assert result.map_metrics.total_cost > 0

    def test_cache_shared_across_jobs(self):
        runtime = MapReduceRuntime(SimulatedCluster(1))
        runtime.cache.put("threshold", 5)

        def filter_mapper(block, ctx):
            limit = ctx.cache.get("threshold")
            mask = block.ids < limit
            if mask.any():
                yield 0, block.select(mask)

        result = runtime.run(
            MapReduceJob("f", filter_mapper, count_reducer), make_blocks()
        )
        assert result.outputs[0] == 5

    def test_counters_visible_to_tasks(self):
        def counting_mapper(block, ctx):
            ctx.counters.inc("custom", "blocks")
            yield 0, block

        runtime = MapReduceRuntime(SimulatedCluster(2))
        result = runtime.run(
            MapReduceJob("c", counting_mapper, count_reducer),
            make_blocks(n_blocks=6),
        )
        assert result.counters.counter("custom", "blocks") == 6

    def test_mapper_emitting_nothing(self):
        def silent_mapper(block, ctx):
            return iter(())

        runtime = MapReduceRuntime(SimulatedCluster(1))
        result = runtime.run(
            MapReduceJob("s", silent_mapper, count_reducer), make_blocks()
        )
        assert result.outputs == {}
        assert result.shuffle_records == 0

    def test_rerun_same_output_path_does_not_crash(self):
        """Regression: rerunning a job against the same DFS output path
        used to die on the DFS "path already exists" check.  Reruns now
        land in attempt-scoped paths, keeping every attempt's output."""

        def id_mapper(block, ctx):
            yield 0, block

        def passthrough_reducer(key, blocks, ctx):
            return Block.concat(blocks)

        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("rerun", id_mapper, passthrough_reducer)
        first = runtime.run(job, make_blocks(), output_path="out")
        second = runtime.run(job, make_blocks(), output_path="out")
        assert first.outputs.keys() == second.outputs.keys()
        assert runtime.dfs.read("out")
        assert runtime.dfs.read("out/attempt-1")

    def test_retry_attempt_tags_phases(self):
        """attempt > 0 re-tags the job's phases so a deterministic fault
        schedule draws a fresh outcome on the whole-job retry."""
        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("tagged", partition_by_parity, count_reducer)
        retried = runtime.run(job, make_blocks(), attempt=2)
        assert retried.map_metrics.phase == "tagged@2:map"
        assert retried.outputs == {0: 20, 1: 20}

    def test_attempt_carried_on_job_result(self):
        """Regression: ``run(..., attempt=k)`` used to tag the phase
        names but build the JobResult from ``job.name`` alone, so the
        retry attempt was invisible downstream."""
        runtime = MapReduceRuntime(SimulatedCluster(2))
        job = MapReduceJob("tagged", partition_by_parity, count_reducer)
        first = runtime.run(job, make_blocks())
        retried = runtime.run(job, make_blocks(), attempt=2)
        assert first.attempt == 0
        assert first.tagged_name == "tagged"
        assert retried.attempt == 2
        assert retried.tagged_name == "tagged@2"
        assert retried.fault_summary()["job.attempt"] == 2
        # counters are per-execution, not bled across attempts
        assert retried.counters.counter("map", "input_records") == 40

"""Unit tests for the phase-1 and phase-2 MapReduce jobs in isolation."""

import numpy as np
import pytest

from repro.core.skyline import is_skyline_of, skyline_indices_oracle
from repro.data.synthetic import independent
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block, split_dataset
from repro.pipeline.phase1 import make_phase1_job
from repro.pipeline.phase2 import make_phase2_job
from repro.pipeline.plans import parse_plan
from repro.pipeline.preprocess import preprocess
from repro.zorder.encoding import quantize_dataset


def setup_runtime(plan_name, n=3000, d=4, seed=0, num_groups=8):
    ds = independent(n, d, seed=seed)
    snapped, codec = quantize_dataset(ds, bits_per_dim=8)
    plan = parse_plan(plan_name)
    pre = preprocess(
        snapped, codec, plan.partitioner, num_groups, sample_ratio=0.05,
        seed=seed,
    )
    cache = DistributedCache()
    pre.publish(cache)
    runtime = MapReduceRuntime(SimulatedCluster(4), cache=cache)
    return snapped, codec, plan, pre, runtime


class TestPhase1:
    def test_candidates_are_superset_of_skyline(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZDG+ZS")
        job = make_phase1_job(plan)
        result = runtime.run(job, split_dataset(snapped, 8))
        candidate_ids = np.concatenate(
            [b.ids for b in result.outputs.values()]
        )
        sky_idx = skyline_indices_oracle(snapped.points)
        sky_ids = snapped.ids[sky_idx]
        assert set(sky_ids.tolist()) <= set(candidate_ids.tolist())

    def test_candidates_counter_matches_outputs(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZHG+SB")
        job = make_phase1_job(plan)
        result = runtime.run(job, split_dataset(snapped, 8))
        total = sum(b.size for b in result.outputs.values())
        assert result.counters.counter("phase1", "candidates") == total

    def test_prefilter_reduces_shuffle(self):
        snapped, codec, plan, pre, runtime = setup_runtime("Naive-Z+ZS")
        job = make_phase1_job(plan)
        with_filter = runtime.run(job, split_dataset(snapped, 8))

        import dataclasses

        plan_off = dataclasses.replace(plan, prefilter=False)
        runtime2 = MapReduceRuntime(SimulatedCluster(4), cache=runtime.cache)
        without = runtime2.run(
            make_phase1_job(plan_off), split_dataset(snapped, 8)
        )
        assert with_filter.shuffle_records < without.shuffle_records
        assert with_filter.counters.counter("phase1", "prefiltered_records") > 0

    def test_prefilter_never_drops_skyline_points(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZDG+ZS")
        result = runtime.run(make_phase1_job(plan), split_dataset(snapped, 8))
        candidate_ids = set(
            np.concatenate([b.ids for b in result.outputs.values()]).tolist()
        )
        for idx in skyline_indices_oracle(snapped.points):
            assert int(snapped.ids[idx]) in candidate_ids

    def test_group_candidates_are_local_skylines(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZHG+ZS")
        result = runtime.run(make_phase1_job(plan), split_dataset(snapped, 8))
        for block in result.outputs.values():
            # Within a group output no point dominates another.
            assert is_skyline_of(block.points, block.points)


class TestPhase2:
    @pytest.mark.parametrize("merge", ["ZM", "ZS", "SB", "BNL"])
    def test_merge_strategies_agree_with_oracle(self, merge):
        snapped, codec, plan, pre, runtime = setup_runtime(
            f"ZDG+ZS+{merge}" if merge != "ZM" else "ZDG+ZS+ZM"
        )
        plan = parse_plan(f"ZDG+ZS+{merge}")
        result1 = runtime.run(
            make_phase1_job(plan), split_dataset(snapped, 8)
        )
        blocks = [b for b in result1.outputs.values() if b.size > 0]
        result2 = runtime.run(make_phase2_job(plan), blocks)
        skyline = result2.outputs[0]
        assert is_skyline_of(skyline.points, snapped.points)

    def test_merge_single_group(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZDG+ZS+ZM")
        sky_idx = skyline_indices_oracle(snapped.points)
        one_block = Block(
            snapped.ids[sky_idx], snapped.points[sky_idx]
        )
        result = runtime.run(make_phase2_job(plan), [one_block])
        assert result.outputs[0].size == len(sky_idx)

    def test_merge_with_empty_block(self):
        snapped, codec, plan, pre, runtime = setup_runtime("ZDG+ZS+ZM")
        sky_idx = skyline_indices_oracle(snapped.points)
        blocks = [
            Block(snapped.ids[sky_idx], snapped.points[sky_idx]),
            Block.empty(snapped.dimensions),
        ]
        result = runtime.run(make_phase2_job(plan), blocks)
        assert result.outputs[0].size == len(sky_idx)

"""The phase-1 combiner takes a map task's whole keyed output.

Under ZS it cuts every one-leaf group in one grouped Z-search pass; the
reference here is the per-group combiner it replaced (one local-skyline
call per group, Z-addresses carried by id lookup).  Every group's block,
the carried addresses, the ``OpCounter`` charges, ``combiner_pruned``
and the codec's kernel stats must match it, and whole runs must keep
their counters on every executor and under SB.
"""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import run_plan
from repro.core.dataset import Dataset
from repro.data.synthetic import anticorrelated, independent
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.job import TaskContext
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry
from repro.partitioning.base import DROPPED
from repro.pipeline import phase1
from repro.pipeline.phase1 import (
    Phase1Combiner,
    Phase1Mapper,
    _carry_z,
    _local_skyline,
)
from repro.pipeline.preprocess import CACHE_CODEC, CACHE_RULE, preprocess
from repro.zorder.encoding import ZGridCodec, quantize_dataset


def per_group_combine(
    local_algorithm: str, emitted: Dict[int, List[Block]], ctx: TaskContext
) -> Dict[int, List[Block]]:
    """The reference: one local-skyline call per group."""
    out = {}
    for gid, blocks in emitted.items():
        merged = Block.concat(blocks)
        sky_points, sky_ids = _local_skyline(local_algorithm, merged, ctx)
        ctx.counters.inc(
            "phase1", "combiner_pruned", merged.size - sky_points.shape[0]
        )
        out[gid] = [
            Block(sky_ids, sky_points, zaddresses=_carry_z(merged, sky_ids))
        ]
    return out


def _context(d: int, bits: int) -> TaskContext:
    cache = DistributedCache()
    cache.put(CACHE_CODEC, ZGridCodec.grid_identity(d, bits_per_dim=bits))
    return TaskContext(cache, MetricsRegistry())


def _task_output(sizes, d, bits, seed, split):
    """A map task's keyed output: distinct group ids in random order,
    rows from a small palette on odd seeds (duplicate rows, equal
    Z-addresses), and on ``split`` each group cut into two blocks."""
    rng = np.random.default_rng(seed)
    codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
    top = (1 << bits) - 1
    n = sum(sizes)
    if seed % 2:
        palette = np.array([0, 1, top // 2, top - 1, top])
        pts = rng.choice(palette, (n, d)).astype(float)
    else:
        pts = rng.integers(0, top + 1, (n, d)).astype(float)
    ids = rng.permutation(n) + 1000
    zbatch = codec.encode_grid_batch(pts)
    gids = rng.choice(10_000, len(sizes), replace=False)
    emitted, lo = {}, 0
    for gid, size in zip(gids.tolist(), sizes):
        rows = slice(lo, lo + size)
        block = Block(ids[rows], pts[rows], zaddresses=zbatch[rows])
        cut = size // 2 if split else size
        parts = [block.select(np.arange(cut))]
        if cut < size:
            parts.append(block.select(np.arange(cut, size)))
        emitted[gid] = parts
        lo += size
    return emitted


def _assert_same(got, want):
    assert list(got) == list(want)
    for gid in want:
        assert len(got[gid]) == len(want[gid]) == 1
        g, w = got[gid][0], want[gid][0]
        assert np.array_equal(g.ids, w.ids) and g.ids.dtype == w.ids.dtype
        assert np.array_equal(g.points, w.points)
        assert g.points.dtype == w.points.dtype
        assert np.array_equal(g.zaddresses, w.zaddresses)


group_size = st.one_of(
    st.integers(0, 70), st.sampled_from([0, 1, 32, 33])
)


class TestGroupedCombiner:
    @settings(max_examples=120, deadline=None)
    @given(
        sizes=st.lists(group_size, max_size=12),
        d=st.sampled_from([1, 2, 8]),
        bits=st.sampled_from([12, 16, 17]),
        seed=st.integers(0, 2**32 - 1),
        split=st.booleans(),
    )
    # the one-leaf / two-leaf boundary on the uint64 (2x16) and wide
    # (8x12) kernel paths, a task of only multi-leaf groups, and a map
    # task that emitted nothing
    @example(sizes=[32, 33, 0, 32], d=8, bits=12, seed=1, split=False)
    @example(sizes=[33, 32, 1], d=2, bits=16, seed=2, split=True)
    @example(sizes=[33, 70, 40], d=8, bits=17, seed=3, split=False)
    @example(sizes=[], d=1, bits=12, seed=4, split=False)
    def test_equals_per_group_combiner(self, sizes, d, bits, seed, split):
        emitted = _task_output(sizes, d, bits, seed, split)
        got_ctx, want_ctx = _context(d, bits), _context(d, bits)
        got = Phase1Combiner("ZS")(emitted, got_ctx)
        want = per_group_combine("ZS", emitted, want_ctx)
        _assert_same(got, want)
        assert got_ctx.ops == want_ctx.ops
        assert (
            got_ctx.counters.counters_as_dict()
            == want_ctx.counters.counters_as_dict()
        )
        got_codec = got_ctx.cache.get(CACHE_CODEC)
        want_codec = want_ctx.cache.get(CACHE_CODEC)
        assert (
            got_codec.kernel_stats.counters_as_dict()
            == want_codec.kernel_stats.counters_as_dict()
        )

    @pytest.mark.parametrize("local", ["SB", "BNL"])
    def test_other_local_algorithms_run_per_group(self, local):
        emitted = _task_output([5, 40, 0, 32], 4, 12, seed=6, split=True)
        got_ctx, want_ctx = _context(4, 12), _context(4, 12)
        got = Phase1Combiner(local)(emitted, got_ctx)
        want = per_group_combine(local, emitted, want_ctx)
        _assert_same(got, want)
        assert got_ctx.ops == want_ctx.ops
        assert (
            got_ctx.counters.counters_as_dict()
            == want_ctx.counters.counters_as_dict()
        )

    def test_a_task_that_emitted_nothing_combines_to_nothing(self):
        ctx = _context(3, 12)
        assert Phase1Combiner("ZS")({}, ctx) == {}
        assert ctx.counters.counters_as_dict() == {}
        assert ctx.ops.total() == 0


class TestMapperRouting:
    """The mapper's sort-and-slice routing equals one mask per group."""

    @pytest.fixture(scope="class")
    def routed(self):
        # two separated clusters: ZDG drops the upper cluster's
        # partitions, so its rows route to DROPPED
        rng = np.random.default_rng(31)
        low = rng.random((600, 4)) * 0.25
        high = rng.random((600, 4)) * 0.25 + 0.7
        ds = Dataset(np.vstack([low, high]), name="two-clusters")
        snapped, codec = quantize_dataset(ds, bits_per_dim=10)
        pre = preprocess(snapped, codec, "zdg", 8, sample_ratio=0.05)
        cache = DistributedCache()
        pre.publish(cache)
        block = Block(snapped.ids, snapped.points)
        return cache, block

    def _map(self, cache, block):
        ctx = TaskContext(cache, MetricsRegistry())
        return list(Phase1Mapper(prefilter=False)(block, ctx)), ctx

    def test_groups_match_a_mask_per_group(self, routed):
        cache, block = routed
        got, ctx = self._map(cache, block)
        codec = cache.get(CACHE_CODEC)
        zbatch = codec.encode_grid_batch(block.points)
        gids = cache.get(CACHE_RULE).assign_groups(
            block.points, block.ids, zbatch
        )
        want = [gid for gid in np.unique(gids) if gid != DROPPED]
        assert [gid for gid, _ in got] == want
        for gid, out in got:
            mask = gids == gid
            assert np.array_equal(out.ids, block.ids[mask])
            assert np.array_equal(out.points, block.points[mask])
            assert np.array_equal(out.zaddresses, zbatch[mask])
        dropped = int((gids == DROPPED).sum())
        assert dropped > 0
        assert ctx.counters.counter("phase1", "dropped_records") == dropped

    def test_a_block_of_dropped_rows_emits_nothing(self, routed):
        cache, block = routed
        codec = cache.get(CACHE_CODEC)
        gids = cache.get(CACHE_RULE).assign_groups(
            block.points, block.ids, codec.encode_grid_batch(block.points)
        )
        got, ctx = self._map(cache, block.select(gids == DROPPED))
        assert got == []
        assert ctx.counters.counter("phase1", "dropped_records") == int(
            (gids == DROPPED).sum()
        )


def _fingerprint(report):
    ids = np.sort(report.skyline.ids)
    return (
        ids.tolist(),
        report.skyline.points[np.argsort(report.skyline.ids)].tolist(),
        report.merged_counters().counters_as_dict(),
        report.details["kernel_stats"],
        report.total_cost,
        report.makespan_cost,
        report.merge_cost,
        report.shuffle_records,
        report.phase1.shuffle_bytes,
    )


class TestRunsKeepTheirCounters:
    """Whole runs equal runs with the per-group reference combiner."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def patched(self, emitted, ctx):
            return per_group_combine(self.local_algorithm, emitted, ctx)

        def run(plan, dataset, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(phase1.Phase1Combiner, "__call__", patched)
                return run_plan(plan, dataset, **kwargs)

        return run

    @pytest.mark.parametrize("plan", ["ZDG+ZS+ZM", "Grid+ZS", "ZDG+SB+ZM"])
    def test_simulated_runs(self, reference, plan):
        dataset = independent(3000, 8, seed=11)
        kwargs = dict(num_workers=4, bits_per_dim=12, seed=0)
        assert _fingerprint(run_plan(plan, dataset, **kwargs)) == _fingerprint(
            reference(plan, dataset, **kwargs)
        )

    def test_process_pool_run(self, reference):
        dataset = anticorrelated(900, 4, seed=2)
        kwargs = dict(num_groups=8, num_workers=4, seed=0)
        pooled = run_plan(
            "ZDG+ZS+ZM", dataset, executor="procpool", **kwargs
        )
        assert _fingerprint(pooled) == _fingerprint(
            reference("ZDG+ZS+ZM", dataset, **kwargs)
        )

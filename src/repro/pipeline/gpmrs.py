"""MR-GPMRS baseline: grid partitioning + bitstring + multi-reducer merge.

The paper's strongest published competitor [12] differs from the other
baselines in its *merge* phase: instead of funnelling all candidates into
one reducer, it uses the grid-cell bitstring to ship each cell's
candidates only to the reducers of cells they could dominate, letting
several reducers compute disjoint parts of the global skyline in
parallel.

Structure here:

* **job 1** — grid-partition the input; combiner/reducer compute each
  cell's local skyline with the bitstring algorithm;
* **job 2** — each cell's candidate block is replicated to every
  occupied cell it can reach downward (cell coordinates componentwise
  ``<=``); the reducer for cell ``c`` filters ``c``'s own candidates
  against all received contenders, producing ``c``'s slice of the global
  skyline.  Reduce tasks (one per cell) spread round-robin over the
  workers — the "multiple reducers compute global skyline" behaviour.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.algorithms.bitstring import bitstring_skyline
from repro.core.dataset import Dataset
from repro.core.point import dominated_mask
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block, split_dataset
from repro.partitioning.grid import GridRule
from repro.pipeline.driver import EngineConfig, RunReport
from repro.pipeline.plans import PlanConfig
from repro.pipeline.preprocess import CACHE_RULE, preprocess

_CACHE_OCCUPIED = "gpmrs_occupied_cells"


def _make_local_job() -> MapReduceJob:
    def mapper(block: Block, ctx: TaskContext) -> Iterable[Tuple[int, Block]]:
        rule: GridRule = ctx.cache.get(CACHE_RULE)
        gids = rule.assign_groups(block.points, block.ids)
        for gid in np.unique(gids):
            mask = gids == gid
            yield int(gid), block.select(mask)

    def combiner(
        emitted: Dict[int, List[Block]], ctx: TaskContext
    ) -> Dict[int, List[Block]]:
        out = {}
        for gid, blocks in emitted.items():
            merged = Block.concat(blocks)
            points, ids = bitstring_skyline(merged.points, merged.ids, ctx.ops)
            out[gid] = [Block(ids, points)]
        return out

    def reducer(gid: int, blocks: List[Block], ctx: TaskContext) -> Block:
        merged = Block.concat(blocks)
        points, ids = bitstring_skyline(merged.points, merged.ids, ctx.ops)
        ctx.counters.inc("phase1", "candidates", points.shape[0])
        return Block(ids, points)

    return MapReduceJob(
        name="phase1-candidates", mapper=mapper, combiner=combiner,
        reducer=reducer,
    )


def _make_merge_job() -> MapReduceJob:
    def mapper(block: Block, ctx: TaskContext) -> Iterable[Tuple[int, Block]]:
        if block.size == 0:
            return
        rule: GridRule = ctx.cache.get(CACHE_RULE)
        occupied: List[int] = ctx.cache.get(_CACHE_OCCUPIED)
        own_gid = int(rule.assign_groups(block.points[:1], block.ids[:1])[0])
        own_cell = rule.cell_of_gid(own_gid)
        for gid in occupied:
            # Replicate to every occupied cell this cell can reach
            # downward (the bitstring tells which cells interact).
            if np.all(own_cell <= rule.cell_of_gid(gid)):
                yield gid, block

    def reducer(gid: int, blocks: List[Block], ctx: TaskContext) -> Block:
        rule: GridRule = ctx.cache.get(CACHE_RULE)
        contenders = Block.concat(blocks)
        own_mask = (
            rule.assign_groups(contenders.points, contenders.ids) == gid
        )
        own = contenders.select(own_mask)
        if own.size == 0:
            return Block.empty(contenders.dimensions)
        ctx.ops.point_tests += own.size * contenders.size
        dominated = dominated_mask(own.points, contenders.points)
        return own.select(~dominated)

    return MapReduceJob(name="phase2-merge", mapper=mapper, reducer=reducer)


def run_gpmrs(dataset: Dataset, config: EngineConfig) -> RunReport:
    """Run the MR-GPMRS pipeline; returns the same report shape as
    :class:`~repro.pipeline.driver.SkylineEngine` for side-by-side rows.

    ``config.plan`` is ignored except for bookkeeping; the report is
    labelled ``MR-GPMRS``.
    """
    from repro.zorder.encoding import quantize_dataset

    started = time.perf_counter()
    snapped, codec = quantize_dataset(
        dataset, bits_per_dim=config.bits_per_dim
    )
    pre = preprocess(
        snapped,
        codec,
        "grid",
        config.num_groups,
        sample_ratio=config.sample_ratio,
        seed=config.seed,
    )
    cluster = SimulatedCluster(
        config.num_workers,
        slowdown_factors=config.slowdown_factors,
        speculative=config.speculative,
        fault_plan=config.fault_plan,
    )
    cache = DistributedCache()
    pre.publish(cache)
    runtime = MapReduceRuntime(
        cluster, dfs=InMemoryDFS(), cache=cache,
        fault_plan=config.fault_plan,
    )

    splits = split_dataset(
        snapped, config.num_input_splits or config.num_workers * 2
    )
    result1 = runtime.run(_make_local_job(), splits)

    candidate_blocks = [
        block
        for block in result1.outputs.values()
        if isinstance(block, Block) and block.size > 0
    ]
    occupied = sorted(result1.outputs.keys())
    cache.put(_CACHE_OCCUPIED, occupied)
    if not candidate_blocks:
        candidate_blocks = [Block.empty(snapped.dimensions)]

    result2 = runtime.run(_make_merge_job(), candidate_blocks)
    pieces = [
        block
        for block in result2.outputs.values()
        if isinstance(block, Block) and block.size > 0
    ]
    skyline = (
        Block.concat(pieces) if pieces else Block.empty(snapped.dimensions)
    )

    plan = PlanConfig(
        partitioner="grid",
        local_algorithm="SB",
        merge_algorithm="SB",
        prefilter=False,
        label="MR-GPMRS",
    )
    return RunReport(
        plan=plan,
        skyline=skyline,
        preprocess_result=pre,
        phase1=result1,
        phase2=result2,
        total_seconds=time.perf_counter() - started,
        details={
            "n": dataset.size,
            "d": dataset.dimensions,
            "num_groups": pre.rule.num_groups,
            "num_workers": config.num_workers,
        },
    )

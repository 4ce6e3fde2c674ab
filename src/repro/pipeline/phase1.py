"""Phase 1: the first MapReduce job — compute skyline candidates (§5.2).

Algorithm 3's mapper, with combiners:

* **mapper** — (optionally) screen input points against the SZB-tree of
  the sample skyline; points dominated by a *sample* skyline point are
  certainly not global skyline points and die here, before any shuffle.
  Survivors are routed ``point -> z-address -> partition -> group``; a
  point whose partition was pruned by dominance grouping is dropped
  (Algorithm 3 line 7, "if m is not NULL").
* **combiner** — per map task, replace each group's routed points by
  their local skyline (this is what keeps the shuffle volume at
  candidate scale rather than input scale).  Under ZS, every group of
  at most one leaf goes through one grouped Z-search pass
  (:func:`~repro.algorithms.zs.zs_skyline_groups`) instead of one call
  per group.
* **reducer** — per group, compute the group's skyline candidates with
  the configured local algorithm (SB or ZS in the paper).

The mapper/combiner/reducer are small **picklable** callables (plain
dataclasses over plan fields, resolving the algorithm registry lazily)
rather than closures over the plan: the process-pool executor ships the
whole task — callable included — across the pool boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.algorithms.zs import zs_skyline, zs_skyline_groups
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.mapreduce.types import Block
from repro.partitioning.base import DROPPED
from repro.pipeline.plans import PlanConfig
from repro.pipeline.preprocess import CACHE_CODEC, CACHE_RULE, CACHE_SZB_TREE
from repro.zorder.zbtree import DEFAULT_LEAF_CAPACITY


def _local_skyline(
    name: str, merged: Block, ctx: TaskContext
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the plan's local algorithm over a combined block.

    Z-search builds its tree from the Z-addresses the mapper encoded
    (carried on ``merged``) under the job's cached codec, instead of
    re-encoding the block under a fresh identity codec.  Both give the
    same Z-order and the same region boxes — a narrower identity codec
    only drops leading zero levels — so answers and counters match.
    """
    algorithm = get_algorithm(name)
    if algorithm is zs_skyline:
        return zs_skyline(
            merged.points,
            merged.ids,
            ctx.ops,
            codec=ctx.cache.get(CACHE_CODEC),
            zaddresses=merged.zaddresses,
        )
    return algorithm(merged.points, merged.ids, ctx.ops)


def _carry_z(merged: Block, sky_ids: np.ndarray) -> Optional[np.ndarray]:
    """Z-addresses of the skyline subset of ``merged``, by id lookup.

    Local skyline algorithms return points in their own order (Z-order
    for ZS, scan order for SB/BNL), so the carried batch is aligned to
    the output by matching record ids — globally unique by contract —
    rather than positions.  Returns ``None`` when ``merged`` carries no
    addresses.
    """
    z = merged.zaddresses
    if z is None:
        return None
    order = np.argsort(merged.ids, kind="stable")
    positions = order[np.searchsorted(merged.ids[order], sky_ids)]
    return z[positions]


@dataclass(frozen=True)
class Phase1Mapper:
    """Algorithm 3's mapper: prefilter, encode, route to groups."""

    prefilter: bool

    def __call__(
        self, block: Block, ctx: TaskContext
    ) -> Iterable[Tuple[int, Block]]:
        rule = ctx.cache.get(CACHE_RULE)
        codec = ctx.cache.get(CACHE_CODEC)
        points = block.points
        ids = block.ids

        if self.prefilter:
            # Screen the block against the SZB-tree (the ZB-tree over the
            # sample skyline): region pruning makes this far cheaper than
            # an all-pairs test against the sample skyline.
            szb_tree = ctx.cache.get(CACHE_SZB_TREE)
            dominated = szb_tree.dominated_mask_tree(points, ctx.ops)
            if dominated.any():
                ctx.counters.inc(
                    "phase1", "prefiltered_records", int(dominated.sum())
                )
                keep = ~dominated
                points = points[keep]
                ids = ids[keep]
        if points.shape[0] == 0:
            return

        # Encode once, in the kernel's native batch form; the addresses
        # route the points here and then ride along on the emitted
        # blocks so no later stage re-encodes them.
        zbatch = codec.encode_grid_batch(points.astype(np.int64))
        gids = rule.assign_groups(points, ids, zbatch)
        dropped = gids == DROPPED
        if dropped.any():
            ctx.counters.inc("phase1", "dropped_records", int(dropped.sum()))
        # One stable sort by group, then a slice per group: each group
        # keeps its rows in input order.
        order = np.flatnonzero(~dropped)
        if order.size == 0:
            return
        order = order[np.argsort(gids[order], kind="stable")]
        gids, ids, points, zbatch = (
            gids[order], ids[order], points[order], zbatch[order]
        )
        cuts = (np.flatnonzero(np.diff(gids)) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [gids.shape[0]]):
            yield int(gids[lo]), Block(
                ids[lo:hi], points[lo:hi], zaddresses=zbatch[lo:hi]
            )


@dataclass(frozen=True)
class Phase1Combiner:
    """Per map task, reduce each group's routed points to a local skyline.

    Under ZS, the groups of at most one leaf (with the Z-addresses the
    mapper attached) are combined in one
    :func:`~repro.algorithms.zs.zs_skyline_groups` pass
    (the charges are exact: a one-leaf walk cannot prune, so each
    group's closed-form charge is summed).  Larger groups and other
    local algorithms run the local algorithm once per group.  Either
    way each group's block, carried addresses and charges equal a
    per-group :func:`_local_skyline` call.
    """

    local_algorithm: str

    def __call__(
        self, emitted: Dict[int, List[Block]], ctx: TaskContext
    ) -> Dict[int, List[Block]]:
        merged = {gid: Block.concat(blocks) for gid, blocks in emitted.items()}
        leaves = []
        if get_algorithm(self.local_algorithm) is zs_skyline:
            leaves = [
                gid for gid, block in merged.items()
                if block.size <= DEFAULT_LEAF_CAPACITY
            ]
        out: Dict[int, List[Block]] = dict.fromkeys(merged)  # key order
        if leaves:
            out.update(self._one_leaf_groups(merged, leaves, ctx))
        for gid, block in merged.items():
            if out[gid] is not None:
                continue
            sky_points, sky_ids = _local_skyline(
                self.local_algorithm, block, ctx
            )
            ctx.counters.inc(
                "phase1", "combiner_pruned", block.size - sky_points.shape[0]
            )
            out[gid] = [
                Block(sky_ids, sky_points, zaddresses=_carry_z(block, sky_ids))
            ]
        return out

    @staticmethod
    def _one_leaf_groups(
        merged: Dict[int, Block], gids: List[int], ctx: TaskContext
    ) -> Dict[int, List[Block]]:
        blocks = [merged[gid] for gid in gids]
        sizes = np.array([b.size for b in blocks], dtype=np.int64)
        points, ids, zbatch, counts = zs_skyline_groups(
            np.concatenate([b.points for b in blocks]),
            np.concatenate([b.ids for b in blocks]),
            np.concatenate([b.zaddresses for b in blocks]),
            sizes,
            ctx.cache.get(CACHE_CODEC),
            ctx.ops,
        )
        ctx.counters.inc(
            "phase1", "combiner_pruned", int(sizes.sum() - counts.sum())
        )
        ends = np.cumsum(counts).tolist()
        return {
            gid: [Block(ids[lo:hi], points[lo:hi], zaddresses=zbatch[lo:hi])]
            for gid, lo, hi in zip(gids, [0] + ends[:-1], ends)
        }


@dataclass(frozen=True)
class Phase1Reducer:
    """Per group, compute the group's skyline candidates."""

    local_algorithm: str

    def __call__(
        self, gid: int, blocks: List[Block], ctx: TaskContext
    ) -> Block:
        merged = Block.concat(blocks)
        sky_points, sky_ids = _local_skyline(self.local_algorithm, merged, ctx)
        ctx.counters.inc("phase1", "candidates", sky_points.shape[0])
        # Per-group candidate counts — the distribution Figure 9 plots
        # (one histogram sample per reduce group).
        ctx.observe("phase1.group_candidates", sky_points.shape[0])
        ctx.observe("phase1.group_input_records", merged.size)
        return Block(sky_ids, sky_points, zaddresses=_carry_z(merged, sky_ids))


def make_phase1_job(plan: PlanConfig) -> MapReduceJob:
    """Build the candidate-computation job for a plan."""
    # Validate the algorithm name eagerly so a bad plan fails in the
    # coordinator, not inside a pool worker.
    get_algorithm(plan.local_algorithm)
    return MapReduceJob(
        name="phase1-candidates",
        mapper=Phase1Mapper(prefilter=plan.prefilter),
        combiner=Phase1Combiner(local_algorithm=plan.local_algorithm),
        reducer=Phase1Reducer(local_algorithm=plan.local_algorithm),
    )

"""Phase 2: the second MapReduce job — merge skyline candidates (§5.3).

The mapper shuffles every group's candidate block to a single reducer
key; the reducer merges with the configured strategy:

* ``ZM`` — the paper's Z-merge: build a ZB-tree per candidate group
  (all in one batched build) and fold them with Algorithm 4's BFS
  region-pruned merge;
* ``ZS`` — concatenate candidates and run Z-search over one ZB-tree;
* ``SB`` / ``BNL`` — concatenate and run the block-based algorithm.

Each group's candidate set is dominance-free (it is a local skyline), so
the Z-merge contract holds and the fold yields the exact global skyline.

As in phase 1, the mapper/reducer callables are picklable dataclasses
(or module-level functions) so the process-pool executor can ship them
to worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.algorithms.registry import get_algorithm
from repro.core.exceptions import ConfigurationError
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.mapreduce.types import Block
from repro.pipeline.plans import PlanConfig
from repro.pipeline.preprocess import CACHE_CODEC
from repro.zorder.zbtree import TreeBlock, build_zbtrees
from repro.zorder.zmerge import zmerge_all

_MERGE_KEY = 0


def _merge_mapper(
    block: Block, ctx: TaskContext
) -> Iterable[Tuple[int, Block]]:
    # Pure shuffle: candidates flow unchanged to the merge reducer.
    yield _MERGE_KEY, block


def make_phase2_job(plan: PlanConfig) -> MapReduceJob:
    """Build the candidate-merging job for a plan."""
    if plan.merge_algorithm in ("ZM", "ZMP"):
        # ZMP's *final* round is a plain Z-merge fold; its partial round
        # is built by make_partial_merge_job below.
        reducer = _zmerge_reducer
    elif plan.merge_algorithm in ("ZS", "SB", "BNL"):
        reducer = AlgorithmReducer(plan.merge_algorithm)
    else:  # pragma: no cover - PlanConfig validates earlier
        raise ConfigurationError(
            f"unknown merge algorithm {plan.merge_algorithm!r}"
        )

    return MapReduceJob(
        name="phase2-merge",
        mapper=_merge_mapper,
        reducer=reducer,
    )


@dataclass(frozen=True)
class PartialMergeMapper:
    """Spread candidate blocks over ``ways`` reduce keys (ZMP round 1)."""

    ways: int

    def __call__(
        self, block: Block, ctx: TaskContext
    ) -> Iterable[Tuple[int, Block]]:
        if block.size == 0:
            return
        # Deterministic spread: key by the block's first record id.
        yield int(block.ids[0]) % self.ways, block


def make_partial_merge_job(ways: int) -> MapReduceJob:
    """First round of the parallel Z-merge extension (ZMP).

    Candidate blocks are spread over ``ways`` reduce keys; each reducer
    Z-merges its share into a partial skyline.  Partials are
    dominance-free, so a final single-reducer Z-merge fold over the
    ``ways`` partials yields the exact global skyline — a two-level
    merge tree that removes the paper's single-reducer merge bottleneck
    (its §5.3 job merges everything in one reducer).
    """
    if ways <= 0:
        raise ConfigurationError("ZMP needs a positive number of ways")

    return MapReduceJob(
        name="phase2-merge-partial",
        mapper=PartialMergeMapper(ways=ways),
        reducer=_zmerge_reducer,
    )


def _zmerge_reducer(key: int, blocks: List[Block], ctx: TaskContext) -> Block:
    codec = ctx.cache.get(CACHE_CODEC)
    # Candidate blocks arrive with the Z-addresses phase 1 computed for
    # routing; the tree builds reuse them instead of re-encoding (a
    # block that lost them — e.g. a legacy checkpoint — re-encodes).
    trees = build_zbtrees(
        codec,
        [
            TreeBlock(block.points, block.ids, block.zaddresses)
            for block in blocks
            if block.size > 0
        ],
    )
    if not trees:
        return Block.empty(blocks[0].dimensions if blocks else 1)
    merged = zmerge_all(trees, counter=ctx.ops)
    zs, points, ids = merged.collect()
    # How many candidate trees each merge reducer folds — the fan-in
    # the two-level ZMP merge is designed to shrink.
    ctx.observe("phase2.merge_fanin", len(trees))
    # ZMP partials feed a final fold: keep the addresses on the output.
    return Block(ids, points, zaddresses=zs)


@dataclass(frozen=True)
class AlgorithmReducer:
    """Concatenate candidates and run a registry algorithm over them."""

    algorithm: str

    def __call__(
        self, key: int, blocks: List[Block], ctx: TaskContext
    ) -> Block:
        algorithm = get_algorithm(self.algorithm)
        merged = Block.concat(blocks)
        points, ids = algorithm(merged.points, merged.ids, ctx.ops)
        return Block(ids, points)

"""Distributed skyline ranking: a follow-up MapReduce job.

The paper defers ranking skyline results to user-defined functions
([15], §1).  Dominance-score ranking — "how much of the dataset does
each skyline point beat?" — needs a pass over the *full* data, which on
the platform is naturally a third MapReduce job:

* **mapper** — for its input block, count how many block records each
  skyline point dominates (the skyline rides in via the distributed
  cache, like phase 1's side data);
* **reducer** — sum the per-block count vectors.

The result orders the skyline best-first and feeds top-k selection
without ever moving the dataset.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.extensions.ranking import dominance_scores
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.job import JobResult, MapReduceJob, TaskContext
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block, split_dataset

_CACHE_SKYLINE = "ranking_skyline"
_SCORE_KEY = 0


def _make_ranking_job() -> MapReduceJob:
    def mapper(block: Block, ctx: TaskContext) -> Iterable[Tuple[int, Block]]:
        skyline: np.ndarray = ctx.cache.get(_CACHE_SKYLINE)
        ctx.ops.point_tests += skyline.shape[0] * block.size
        counts = dominance_scores(skyline, block.points)
        # Ship the count vector as a 1-column block (ids = positions).
        yield _SCORE_KEY, Block(
            np.arange(skyline.shape[0], dtype=np.int64),
            counts[:, None].astype(np.float64),
        )

    def reducer(key: int, blocks: List[Block], ctx: TaskContext) -> Block:
        total = np.zeros_like(blocks[0].points)
        for block in blocks:
            total += block.points
        return Block(blocks[0].ids, total)

    return MapReduceJob(
        name="phase3-ranking", mapper=mapper, reducer=reducer
    )


def distributed_dominance_scores(
    dataset: Dataset,
    skyline_points: np.ndarray,
    skyline_ids: Sequence[int],
    num_workers: int = 8,
    num_input_splits: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, JobResult]:
    """Rank a skyline by dominance score with a MapReduce pass.

    Returns ``(ordered_ids, ordered_scores, job_result)`` best-first.
    Matches :func:`repro.extensions.ranking.dominance_scores` exactly
    (tested), while scaling out the dataset scan.
    """
    cluster = SimulatedCluster(num_workers)
    cache = DistributedCache()
    cache.put(_CACHE_SKYLINE, np.asarray(skyline_points, dtype=np.float64))
    runtime = MapReduceRuntime(cluster, cache=cache)
    splits = split_dataset(dataset, num_input_splits or num_workers * 2)
    result = runtime.run(_make_ranking_job(), splits)
    totals = result.outputs[_SCORE_KEY].points[:, 0]
    order = np.argsort(-totals, kind="stable")
    ids = np.asarray(skyline_ids, dtype=np.int64)
    return ids[order], totals[order].astype(np.int64), result

"""Shard maps: the paper's Z-curve partitioning reused as a shard map.

The offline engine splits a dataset into contiguous Z-address ranges
(:class:`~repro.partitioning.zcurve.ZCurveRule`, §4.1) because every
range has a well-defined RZ-region the pruning machinery can reason
about.  A sharded serving topology wants exactly the same property:

* **routing** is a binary search over the pivots — one vectorised
  ``searchsorted`` assigns a whole mutation batch to shards;
* **degradation certificates** fall out of the region geometry: every
  point a shard owns is ``>=`` its RZ-region's min corner in each
  dimension, so when a shard is lost its region *floor* bounds what the
  lost points could have dominated.  Masking the merged answer with the
  lost floors (the PR-2 lenient-reduce argument, applied at the serving
  layer) yields a **certified subset** of the true answer.

The mask algebra, per query kind (floors are min corners; smaller is
better throughout):

* *full / subspace* — a lost point ``p >= f`` dominates ``q`` only if
  ``f`` dominates ``q`` (projected onto the query dims for subspace);
* *k-dominant* — ``p <= q`` on a dimension implies ``f <= q`` there and
  ``p < q`` implies ``f < q``, so ``p`` k-dominating ``q`` implies
  ``f`` k-dominates ``q``: the floor test is again a sound
  over-approximation (soundness survives k-dominance being
  non-transitive because the mask argues about *pairs*, not chains).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, DatasetError, ZOrderError
from repro.partitioning.zcurve import ZCurveRule, equidepth_pivots
from repro.zorder.encoding import ZGridCodec

__all__ = [
    "ShardMap",
    "floor_dominated_mask",
    "floor_k_dominated_mask",
]


class ShardMap:
    """Assignment of grid points to shards via Z-address equidepth ranges.

    Built once from the initial dataset (:meth:`fit`); later inserts
    route through the same fixed pivots, so a point's shard is a pure
    function of its coordinates.  Heavily tied data can collapse pivots
    (fewer effective shards than requested) — ``num_shards`` reports
    the real count.
    """

    def __init__(self, codec: ZGridCodec, rule: ZCurveRule) -> None:
        self.codec = codec
        self.rule = rule

    @classmethod
    def fit(
        cls, codec: ZGridCodec, points: np.ndarray, num_shards: int
    ) -> "ShardMap":
        """Equidepth Z-address pivots over ``points`` → shard ranges."""
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise DatasetError("need a non-empty (n, d) point matrix")
        zbatch = _encode(codec, points)
        kernel = codec.kernel
        sorted_z = kernel.to_int_list(zbatch[kernel.argsort(zbatch)])
        pivots = equidepth_pivots(sorted_z, num_shards)
        return cls(codec, ZCurveRule(codec, pivots))

    @property
    def num_shards(self) -> int:
        return self.rule.num_partitions

    def shard_of(self, points: np.ndarray) -> np.ndarray:
        """Shard id per point (vectorised pivot search)."""
        points = np.asarray(points, dtype=np.float64)
        return self.rule.partition_of(_encode(self.codec, points))

    def split(
        self, points: np.ndarray, ids: np.ndarray
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per-shard ``(points, ids)`` sub-batches (non-empty shards
        only), preserving within-shard input order."""
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        sids = self.shard_of(points)
        out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for sid in np.unique(sids):
            keep = sids == sid
            out[int(sid)] = (points[keep], ids[keep])
        return out

    def floor(self, sid: int) -> np.ndarray:
        """The shard's Z-region floor: the min corner of its RZ-region.

        Every point the shard can ever own (its Z-range is fixed) is
        ``>=`` this floor componentwise — the bound a degradation
        certificate carries when the shard is lost.
        """
        return self.rule.region(sid).minpt.astype(np.float64)

    def floors(self, sids: List[int]) -> np.ndarray:
        """Stacked ``(len(sids), d)`` floor matrix in the given order."""
        if not sids:
            return np.empty((0, self.codec.dimensions), dtype=np.float64)
        return np.vstack([self.floor(sid) for sid in sids])

    def describe(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "pivots": [int(p) for p in self.rule.pivots],
            "bits_per_dim": self.codec.bits_per_dim,
        }


def _encode(codec: ZGridCodec, points: np.ndarray) -> np.ndarray:
    """Z-addresses of grid points; ``DatasetError`` for points off the
    codec's grid, which are rejected, never truncated onto it."""
    try:
        return codec.encode_grid_batch(points)
    except ZOrderError as exc:
        raise DatasetError(str(exc)) from exc


def floor_dominated_mask(
    points: np.ndarray, floors: np.ndarray
) -> np.ndarray:
    """Rows of ``points`` that some floor dominates (could have been
    dominated by a lost shard's point) — the *uncertain* set.

    What the mask keeps (``~mask``) is certainly undominated by any
    lost point, hence a certified subset of the true skyline.
    """
    points = np.asarray(points, dtype=np.float64)
    uncertain = np.zeros(points.shape[0], dtype=bool)
    for f in np.asarray(floors, dtype=np.float64).reshape(-1, points.shape[1]):
        uncertain |= (
            (f <= points).all(axis=1) & (f < points).any(axis=1)
        )
    return uncertain


def floor_k_dominated_mask(
    points: np.ndarray, floors: np.ndarray, k: int
) -> np.ndarray:
    """Rows some floor *k-dominates* — the uncertain set for k-dominant
    queries.  Sound because a lost point ``p >= f`` k-dominating ``q``
    implies ``f`` k-dominates ``q`` (``p <= q`` ⇒ ``f <= q`` and
    ``p < q`` ⇒ ``f < q`` per dimension)."""
    points = np.asarray(points, dtype=np.float64)
    uncertain = np.zeros(points.shape[0], dtype=bool)
    for f in np.asarray(floors, dtype=np.float64).reshape(-1, points.shape[1]):
        le = f <= points
        lt = f < points
        uncertain |= (le.sum(axis=1) >= k) & (le & lt).any(axis=1)
    return uncertain

"""Naive Z-order-curve partitioning (§4.1) and shared Z-rule machinery.

Points are ordered by Z-address; partition boundaries ("pivots") are
equi-depth quantiles of the *sample's* Z-addresses, which minimises the
variance of partition sizes — the paper's data-skew objective
``sum_m (|Pt_m| - |P|/M)^2`` — to the extent the sample reflects the
data.  Every partition is a contiguous Z-address interval and therefore
has a well-defined RZ-region, which is what the grouping algorithms
reason about.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigurationError, PartitioningError
from repro.partitioning.base import DROPPED, PartitionRule, Partitioner
from repro.zorder.encoding import ZGridCodec
from repro.zorder.rzregion import RZRegion


def equidepth_pivots(sorted_z: Sequence[int], parts: int) -> List[int]:
    """Interior pivots splitting a sorted Z-address list into ``parts``
    equal-count ranges.  Duplicates are removed, so fewer than
    ``parts - 1`` pivots may come back for heavily tied data."""
    n = len(sorted_z)
    if parts <= 1 or n == 0:
        return []
    pivots: List[int] = []
    for i in range(1, parts):
        pivots.append(sorted_z[min(n - 1, (i * n) // parts)])
    unique = sorted(set(pivots))
    # A pivot equal to the global minimum would create an empty leading
    # partition; harmless, but drop it for tidiness.
    return [p for p in unique if p > sorted_z[0]]


class ZCurveRule(PartitionRule):
    """Contiguous Z-address ranges, optionally mapped onto groups.

    ``group_map[pid]`` is the group id of partition ``pid`` or
    ``DROPPED`` when dominance grouping pruned the partition outright.
    Without a group map, groups coincide with partitions.
    """

    def __init__(
        self,
        codec: ZGridCodec,
        pivots: Sequence[int],
        group_map: Optional[Sequence[int]] = None,
    ) -> None:
        self.codec = codec
        self.pivots = list(pivots)
        if any(
            self.pivots[i] >= self.pivots[i + 1]
            for i in range(len(self.pivots) - 1)
        ):
            raise PartitioningError("pivots must be strictly increasing")
        self._num_partitions = len(self.pivots) + 1
        # Pivots as the kernel's search keys, so mapper-side routing can
        # binary-search whole z-batches without touching Python ints.
        kernel = codec.kernel
        self._pivot_keys = kernel.search_keys(kernel.from_ints(self.pivots))
        if group_map is None:
            self._group_map = np.arange(self._num_partitions, dtype=np.int64)
            self._num_groups = self._num_partitions
        else:
            gm = np.asarray(group_map, dtype=np.int64)
            if gm.shape != (self._num_partitions,):
                raise PartitioningError(
                    "group_map must have one entry per partition"
                )
            valid = gm[gm >= 0]
            if valid.size == 0:
                raise PartitioningError("group_map drops every partition")
            self._group_map = gm
            self._num_groups = int(valid.max()) + 1

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_groups(self) -> int:
        return self._num_groups

    @property
    def group_map(self) -> np.ndarray:
        return self._group_map

    def partition_of(self, zaddresses: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Partition id per Z-address (binary search over the pivots —
        Algorithm 3's ``searchPT``).

        Accepts Python ints or a native kernel batch; a native batch is
        resolved with one ``searchsorted`` over the kernel's search keys
        (the ``uint64`` addresses, or fixed-width raw bytes on the wide
        path), never a per-address Python ``bisect``.
        """
        kernel = self.codec.kernel
        if kernel.is_native(zaddresses):
            return np.searchsorted(
                self._pivot_keys, kernel.search_keys(zaddresses), side="right"
            ).astype(np.int64)
        pivots = self.pivots
        return np.fromiter(
            (bisect.bisect_right(pivots, z) for z in zaddresses),
            dtype=np.int64,
            count=len(zaddresses),
        )

    def assign_groups(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> np.ndarray:
        if zaddresses is None:
            zaddresses = self.codec.encode_grid_batch(
                np.asarray(points, dtype=np.float64).astype(np.int64)
            )
        pids = self.partition_of(zaddresses)
        return self._group_map[pids]

    def zrange(self, pid: int) -> Tuple[int, int]:
        """Inclusive Z-address interval ``[lo, hi]`` of a partition."""
        if not (0 <= pid < self._num_partitions):
            raise PartitioningError(f"partition id {pid} out of range")
        lo = 0 if pid == 0 else self.pivots[pid - 1]
        hi = (
            self.codec.max_zaddress
            if pid == self._num_partitions - 1
            else self.pivots[pid] - 1
        )
        return lo, hi

    def region(self, pid: int) -> RZRegion:
        """RZ-region covering a partition's Z-address interval."""
        lo, hi = self.zrange(pid)
        return RZRegion(self.codec, lo, hi)

    def regions(self) -> List[RZRegion]:
        """RZ-regions of all partitions in pid order, from one batched
        region-bounds pass and one decode of every corner."""
        codec, kernel = self.codec, self.codec.kernel
        minz, maxz = kernel.region_bounds(
            kernel.from_ints([0] + self.pivots),
            kernel.from_ints(
                [pivot - 1 for pivot in self.pivots] + [codec.max_zaddress]
            ),
        )
        corners = codec.decode_batch(np.concatenate((minz, maxz)))
        count = self._num_partitions
        return [
            RZRegion.from_corners(lo, hi, corners[pid], corners[count + pid])
            for pid, (lo, hi) in enumerate(
                zip(kernel.to_int_list(minz), kernel.to_int_list(maxz))
            )
        ]

    def describe(self) -> dict:
        dropped = int((self._group_map == DROPPED).sum())
        return {
            "rule": type(self).__name__,
            "num_partitions": self._num_partitions,
            "num_groups": self._num_groups,
            "dropped_partitions": dropped,
        }


class ZCurvePartitioner(Partitioner):
    """Naive-Z: equi-depth Z-ranges, one group per partition (§4.1)."""

    name = "naive-z"

    def fit(
        self,
        sample: Dataset,
        codec: ZGridCodec,
        num_groups: int,
        seed: int = 0,
    ) -> ZCurveRule:
        if num_groups <= 0:
            raise ConfigurationError("num_groups must be positive")
        zbatch = codec.encode_grid_batch(sample.points.astype(np.int64))
        sorted_z = codec.kernel.to_int_list(zbatch[codec.kernel.argsort(zbatch)])
        pivots = equidepth_pivots(sorted_z, num_groups)
        return ZCurveRule(codec, pivots)

"""The :class:`SkylineMaintainer`: skyline of a dynamic point set.

State: a columnar *store* of every alive point (points matrix, ids,
native Z-addresses and grid-kernel columns, live mask, id -> row index;
rows in insertion order, dead rows compacted away once they outnumber
live ones) plus the maintained skyline as a ZB-tree.  A row is encoded
once, when it is admitted; every tree the maintainer builds afterwards
(batch, Z-search survivors, delete rebuild, shadowed candidates) reuses
the stored Z-addresses and columns.  Inserts are Z-merge folds; deletes
re-promote stored points that were exclusively dominated by removed
skyline members.  Every applied batch returns its :class:`BatchDelta`,
so consumers never diff alive sets.

All points must already live on the maintainer's grid (integer-valued
coordinates for the configured codec), like everywhere else in the
z-order stack; use :func:`repro.zorder.encoding.quantize_dataset` first
for float data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError, ZOrderError
from repro.core.point import (
    GridRows,
    grid_dtype,
    pairwise_dominance,
    rows_per_chunk,
    sum_dtype,
)
from repro.observability.metrics import MetricsRegistry
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, ZBTree, build_zbtree, rebuild
from repro.zorder.zmerge import zmerge
from repro.zorder.zsearch import zsearch_mask

#: metrics group all maintainer observations are filed under
MAINTENANCE_GROUP = "maintenance"


@dataclass(frozen=True)
class BatchDelta:
    """How applied batches changed the alive set: the inserted rows and
    the deleted ids, each in applied order, so the new alive set is
    ``(old - exited) | entered``.  ``entered_z`` holds the inserted
    rows' native Z-addresses when the producer has them (a maintainer
    always does), so a consumer that indexes the rows need not encode
    them again.  Holds read-only copies."""

    entered_ids: np.ndarray
    entered_points: np.ndarray
    exited_ids: np.ndarray
    entered_z: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name, dtype in (
            ("entered_ids", np.int64),
            ("entered_points", np.float64),
            ("exited_ids", np.int64),
            ("entered_z", None),
        ):
            array = getattr(self, name)
            if array is None:
                continue
            array = np.array(array, dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def then(self, later: "BatchDelta") -> "BatchDelta":
        """The net delta of ``self`` followed by ``later``: an id that
        enters and then exits cancels out (batch-sized set operations)."""
        stays = ~np.isin(self.entered_ids, later.exited_ids)
        fresh = ~np.isin(later.exited_ids, self.entered_ids[~stays])
        zs = (self.entered_z, later.entered_z)
        return BatchDelta(
            np.concatenate([self.entered_ids[stays], later.entered_ids]),
            np.concatenate([self.entered_points[stays], later.entered_points]),
            np.concatenate([self.exited_ids, later.exited_ids[fresh]]),
            None if any(z is None for z in zs)
            else np.concatenate([zs[0][stays], zs[1]]),
        )


class SkylineMaintainer:
    """Maintain the skyline of a set under inserts and deletes.

    ``metrics``, when given, receives per-operation accounting under the
    ``maintenance`` counter group (operation and record counts plus the
    dominance-test deltas of each op) and ``maintenance.*_seconds``
    timers, so a service embedding a maintainer can see what its write
    path costs alongside the serving-side metrics.
    """

    def __init__(
        self,
        codec: ZGridCodec,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.codec = codec
        self.counter = OpCounter()
        self.metrics = metrics
        #: the store: rows [0, _used) in insertion order; ``_rows`` maps
        #: each live id to its row.  ``_z`` holds native Z-addresses,
        #: ``_cols``/``_sums`` the grid-kernel layout (see GridRows).
        self._points = np.empty((0, codec.dimensions))
        self._ids = np.empty(0, dtype=np.int64)
        self._live = np.empty(0, dtype=bool)
        self._z = codec.kernel.from_ints([])
        self._grid_dtype = grid_dtype(codec.cells_per_dim - 1)
        self._cols = np.empty((codec.dimensions, 0), dtype=self._grid_dtype)
        self._sums = np.empty(0, dtype=sum_dtype(self._grid_dtype))
        self._used = 0
        self._rows: Dict[int, int] = {}
        self._sky: ZBTree = ZBTree.empty(codec)
        #: cached skyline id-set; invalidated on every mutation and
        #: rebuilt lazily so membership probes are O(1) between updates
        self._sky_id_cache: Optional[FrozenSet[int]] = None

    @classmethod
    def from_points(
        cls,
        codec: ZGridCodec,
        points: np.ndarray,
        ids: np.ndarray,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "SkylineMaintainer":
        """Load ``(points, ids)`` and compute their skyline with one
        Z-search (the paper's ZS) over a tree of the stored rows, so
        each row is encoded once.  Registration uses this."""
        maintainer = cls._loaded(codec, points, ids, metrics)
        maintainer.recompute()
        return maintainer

    @classmethod
    def from_state(
        cls,
        codec: ZGridCodec,
        points: np.ndarray,
        ids: np.ndarray,
        skyline_ids: Sequence[int],
        metrics: Optional[MetricsRegistry] = None,
    ) -> "SkylineMaintainer":
        """Adopt precomputed state without re-deriving the skyline.

        ``skyline_ids`` must identify the exact skyline rows of
        ``(points, ids)`` — e.g. a checkpoint's.  Each row is encoded
        once, for the store; the skyline tree reuses those Z-addresses.
        """
        maintainer = cls._loaded(codec, points, ids, metrics)
        rows = maintainer._rows
        wanted = {int(pid) for pid in skyline_ids}
        missing = wanted.difference(rows)
        if missing:
            raise DatasetError(
                f"skyline ids not present in archive: {sorted(missing)[:5]}"
            )
        keep = np.sort([rows[pid] for pid in wanted]).astype(np.int64)
        maintainer._sky = maintainer._tree(keep)
        return maintainer

    @classmethod
    def _loaded(
        cls,
        codec: ZGridCodec,
        points: np.ndarray,
        ids: np.ndarray,
        metrics: Optional[MetricsRegistry],
    ) -> "SkylineMaintainer":
        """A maintainer whose store holds ``(points, ids)`` (one copy,
        no per-row loop) and whose skyline is still empty."""
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if points.ndim != 2 or ids.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        maintainer = cls(codec, metrics=metrics)
        maintainer._append(points, ids)
        if len(maintainer._rows) != ids.shape[0]:
            raise DatasetError("duplicate ids in adopted state")
        return maintainer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of alive points."""
        return len(self._rows)

    @property
    def skyline_size(self) -> int:
        return self._sky.size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current skyline as ``(points, ids)`` in Z-order."""
        _, points, ids = self._sky.collect()
        return points, ids

    def alive(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every alive point as read-only ``(points, ids)`` in insertion
        order (one gather over the store)."""
        live = self._alive_rows()
        points = self._points[live]
        ids = self._ids[live]
        points.setflags(write=False)
        ids.setflags(write=False)
        return points, ids

    def alive_ids(self) -> np.ndarray:
        """Ids of every alive point, in insertion order."""
        return self._ids[self._alive_rows()]

    def skyline_id_set(self) -> FrozenSet[int]:
        """The skyline's id-set, cached between mutations (O(1) reads)."""
        cached = self._sky_id_cache
        if cached is None:
            cached = frozenset(self._sky.ids().tolist())
            self._sky_id_cache = cached
        return cached

    def is_skyline_member(self, point_id: int) -> bool:
        """Is the given alive point currently on the skyline?

        O(1) against the cached id-set (rebuilt at most once per
        mutation) — the serving layer probes this per explain-query.
        """
        if point_id not in self._rows:
            raise DatasetError(f"point id {point_id} is not alive")
        return point_id in self.skyline_id_set()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_op(
        self,
        op: str,
        records: int,
        before: Tuple[int, int, int],
        started: float,
    ) -> None:
        registry = self.metrics
        if registry is None:
            return
        registry.inc(MAINTENANCE_GROUP, f"{op}s")
        registry.inc(MAINTENANCE_GROUP, f"{op}_records", records)
        registry.inc(
            MAINTENANCE_GROUP, "point_tests",
            self.counter.point_tests - before[0],
        )
        registry.inc(
            MAINTENANCE_GROUP, "region_tests",
            self.counter.region_tests - before[1],
        )
        registry.inc(
            MAINTENANCE_GROUP, "nodes_visited",
            self.counter.nodes_visited - before[2],
        )
        registry.record_time(
            f"maintenance.{op}_seconds", time.perf_counter() - started
        )

    def _counter_snapshot(self) -> Tuple[int, int, int]:
        return (
            self.counter.point_tests,
            self.counter.region_tests,
            self.counter.nodes_visited,
        )

    # ------------------------------------------------------------------
    # Validation (pure: the registry runs it before its WAL append and
    # then applies the accepted arrays with apply_insert / apply_delete)
    # ------------------------------------------------------------------
    def validate_insert(
        self, points: np.ndarray, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raise ``DatasetError`` unless the batch inserts cleanly: grid
        points of the codec (:meth:`ZGridCodec.check_grid`) under fresh,
        distinct ids."""
        points = np.asarray(points, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if (
            points.ndim != 2
            or points.shape[1] != self.codec.dimensions
            or ids.shape != (points.shape[0],)
        ):
            raise DatasetError("need (n, d) points and matching ids")
        try:
            self.codec.check_grid(points)
        except ZOrderError as exc:
            raise DatasetError(str(exc)) from exc
        id_list = ids.tolist()
        if len(set(id_list)) != len(id_list):
            raise DatasetError("duplicate ids within insert batch")
        for pid in id_list:
            if pid in self._rows:
                raise DatasetError(f"point id {pid} already alive")
        return points, ids

    def validate_delete(self, point_ids: Sequence[int]) -> np.ndarray:
        """Raise ``DatasetError`` unless each id is alive and listed once."""
        ids = np.fromiter(point_ids, dtype=np.int64)
        id_list = ids.tolist()
        if len(set(id_list)) != len(id_list):
            raise DatasetError("duplicate ids within delete batch")
        missing = [pid for pid in id_list if pid not in self._rows]
        if missing:
            raise DatasetError(f"point ids not alive: {sorted(missing)}")
        return ids

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def _append(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        zaddresses: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, GridRows]:
        """Store checked grid rows; returns their native Z-addresses
        (encoded here unless given) and grid-kernel columns."""
        z = (
            self.codec.encode_grid_batch(points) if zaddresses is None
            else self.codec.as_zbatch(zaddresses)
        )
        grid = GridRows.of(points, self._grid_dtype)
        start, stop = self._used, self._used + ids.shape[0]
        if stop > self._ids.shape[0]:
            capacity = max(stop, 2 * self._ids.shape[0], 64)
            for name in ("_points", "_ids", "_live", "_z", "_sums"):
                old = getattr(self, name)
                grown = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                grown[:start] = old[:start]
                setattr(self, name, grown)
            cols = np.zeros((self.codec.dimensions, capacity), self._grid_dtype)
            cols[:, :start] = self._cols[:, :start]
            self._cols = cols
        self._points[start:stop] = points
        self._ids[start:stop] = ids
        self._live[start:stop] = True
        self._z[start:stop] = z
        self._cols[:, start:stop] = grid.cols
        self._sums[start:stop] = grid.sums
        self._rows.update(zip(ids.tolist(), range(start, stop)))
        self._used = stop
        return z, grid

    def _alive_rows(self) -> np.ndarray:
        """Store rows of the alive points, in insertion order."""
        return np.flatnonzero(self._live[: self._used])

    def _grid(self, rows: np.ndarray) -> GridRows:
        """The stored grid-kernel columns of ``rows``."""
        return GridRows(self._cols.take(rows, axis=1), self._sums.take(rows))

    def _dominated(self, rows: np.ndarray, block: GridRows) -> np.ndarray:
        """Which stored ``rows`` some row of ``block`` dominates (one
        grid-kernel pass over the stored columns)."""
        out = np.zeros(rows.shape[0], dtype=bool)
        for _start, dom in pairwise_dominance(
            block, self._grid(rows), rows_per_chunk(rows.shape[0])
        ):
            out |= dom.any(axis=0)
        return out

    def dominated_by(self, block: GridRows) -> np.ndarray:
        """Ids of the alive points some row of ``block`` (grid rows of
        this maintainer's codec) dominates, in insertion order.  Not
        charged to :attr:`counter`."""
        live = self._alive_rows()
        return self._ids[live[self._dominated(live, block)]]

    def _tree(self, rows: np.ndarray) -> ZBTree:
        """A ZB-tree of the stored ``rows`` (nothing re-encoded)."""
        return build_zbtree(
            self.codec, self._points[rows], ids=self._ids[rows],
            zaddresses=self._z[rows], grid=self._grid(rows),
        )

    def _compact_if_sparse(self) -> None:
        """Drop dead rows once they outnumber live ones (order kept)."""
        live_count = len(self._rows)
        if self._used <= 2 * live_count:
            return
        live = self._alive_rows()
        for name in ("_points", "_ids", "_z", "_sums"):
            column = getattr(self, name)
            column[:live_count] = column[live]
        self._cols[:, :live_count] = self._cols[:, live]
        self._live[: self._used] = False
        self._live[:live_count] = True
        self._used = live_count
        self._rows = dict(zip(self._ids[:live_count].tolist(), range(live_count)))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float], point_id: int) -> BatchDelta:
        """Insert one point (convenience wrapper over insert_block)."""
        return self.insert_block(
            np.asarray(point, dtype=np.float64)[None, :],
            np.asarray([point_id], dtype=np.int64),
        )

    def insert_block(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        zaddresses: Optional[np.ndarray] = None,
    ) -> BatchDelta:
        """Validate and insert a batch of points; returns its delta."""
        return self.apply_insert(*self.validate_insert(points, ids), zaddresses)

    def apply_insert(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        zaddresses: Optional[np.ndarray] = None,
    ) -> BatchDelta:
        """Insert a batch :meth:`validate_insert` accepted.

        ``zaddresses``, when given, are the rows' native Z-addresses
        (e.g. an upstream :class:`BatchDelta`'s), so they are not
        encoded again.  The batch's own skyline is computed first
        (cheap, local), then Z-merged into the maintained skyline tree —
        the same fold the distributed pipeline's phase 2 performs.
        """
        started = time.perf_counter()
        before = self._counter_snapshot()
        z, grid = self._append(points, ids, zaddresses)
        batch = build_zbtree(self.codec, points, ids=ids, zaddresses=z, grid=grid)
        self._sky = zmerge(
            self._sky, _skyline_tree(batch, self.counter), self.counter
        )
        self._sky_id_cache = None
        self._record_op("insert", int(ids.shape[0]), before, started)
        return BatchDelta(ids, points, np.empty(0), entered_z=z)

    def recompute(self) -> None:
        """Replace the maintained skyline with one Z-search of the
        alive rows, from their stored columns (the registry's drift
        rebuild; nothing is re-encoded and no op is recorded)."""
        self._sky = _skyline_tree(self._tree(self._alive_rows()))
        self._sky_id_cache = None

    def delete(self, point_ids: Sequence[int]) -> BatchDelta:
        """Validate and delete a batch of points by id; returns its delta."""
        return self.apply_delete(self.validate_delete(point_ids))

    def apply_delete(self, ids: np.ndarray) -> BatchDelta:
        """Delete a batch :meth:`validate_delete` accepted.

        Deleting non-skyline points never changes the skyline.  For each
        deleted *skyline* point, stored points inside its dominance
        region are candidates to surface; the union of survivors' local
        skyline is Z-merged back in.
        """
        started = time.perf_counter()
        before = self._counter_snapshot()
        try:
            self._delete_impl(ids)
        finally:
            self._sky_id_cache = None
        self._compact_if_sparse()
        self._record_op("delete", int(ids.shape[0]), before, started)
        return BatchDelta(
            np.empty(0), np.empty((0, self.codec.dimensions)), ids,
            entered_z=self._z[:0],
        )

    def _delete_impl(self, ids: np.ndarray) -> None:
        sky_ids = self.skyline_id_set()
        id_list = ids.tolist()
        rows = np.fromiter(
            (self._rows.pop(pid) for pid in id_list),
            dtype=np.int64, count=len(id_list),
        )
        self._live[rows] = False
        on_sky = np.fromiter(
            (pid in sky_ids for pid in id_list), dtype=bool, count=len(id_list)
        )
        if not on_sky.any():
            return

        # Rebuild the skyline tree without the deleted members.
        self._sky = rebuild(
            self._sky, keep=~np.isin(self._sky.leaf_ids, ids[on_sky])
        )

        if not self._rows:
            return
        # Candidates: alive points dominated by some deleted skyline
        # point (only they can have been shadowed exclusively by it),
        # found on the stored grid columns.
        live = self._alive_rows()
        gone = self._grid(rows[on_sky])
        self.counter.point_tests += live.shape[0] * max(len(gone), 1)
        shadowed = self._dominated(live, gone)
        if not shadowed.any():
            return
        candidates = _skyline_tree(self._tree(live[shadowed]), self.counter)
        self._sky = zmerge(self._sky, candidates, self.counter)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check the store's index and the maintained skyline
        against the oracle (testing hook; O(n^2 / sorted))."""
        from repro.core.skyline import is_skyline_of

        alive, ids = self.alive()
        live = self._alive_rows()
        if dict(zip(ids.tolist(), live.tolist())) != self._rows:
            raise DatasetError("store index out of sync with its rows")
        if not (
            np.array_equal(self._z[live], self.codec.encode_grid_batch(alive))
            and np.array_equal(self._cols[:, live].T, alive)
            and self._sums.dtype == sum_dtype(self._grid_dtype)
            and np.array_equal(self._sums[live], alive.sum(axis=1))
        ):
            raise DatasetError("stored Z-addresses or grid columns disagree")
        self._sky.validate()
        if not self._rows:
            if self.skyline_size != 0:
                raise DatasetError("skyline non-empty for empty store")
            return
        points, _ = self.skyline()
        if not is_skyline_of(points, alive):
            raise DatasetError("maintained skyline diverged from oracle")


def _skyline_tree(tree: ZBTree, counter: Optional[OpCounter] = None) -> ZBTree:
    """The tree of ``tree``'s skyline: its Z-search survivors, a subset
    of its rows (the tree itself when every row survives); charged to
    ``counter`` when one is given."""
    keep = zsearch_mask(tree, counter)
    return tree if keep.all() else rebuild(tree, keep=keep)

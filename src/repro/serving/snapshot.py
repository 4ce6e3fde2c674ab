"""Immutable, versioned dataset snapshots.

A :class:`Snapshot` is the unit of isolation in the serving layer: one
monotonically versioned, *frozen* view of a named dataset — its alive
points and ids, the grid codec and the current skyline, all as arrays.
Readers that hold a snapshot keep reading version N no matter how many
versions the writer publishes after them; nothing in a snapshot is ever
mutated.  Every array is a write-protected copy, so no later write by
the writer can reach a reader.

Snapshots are plain Python objects: "releasing" an old version is
dropping the last reference to it.  The registry additionally keeps a
small retention ring of recent versions for time-travel reads (see
:class:`~repro.serving.registry.DatasetRegistry`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.exceptions import DatasetError
from repro.maintenance.maintainer import BatchDelta
from repro.zorder.encoding import ZGridCodec


def _frozen(array: np.ndarray) -> np.ndarray:
    """A write-protected copy of ``array``."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Snapshot:
    """One immutable version of a served dataset.

    ``points``/``ids`` are the alive set; ``sky_points``/``sky_ids``
    the skyline of exactly that set.  ``delta`` is how the alive set
    changed since the registry's previous published version (None when
    this registry published no earlier version of the dataset —
    registration, adoption — and on a recovery republish that replayed
    no batch past it).
    """

    dataset: str
    version: int
    points: np.ndarray
    ids: np.ndarray
    codec: ZGridCodec
    sky_points: np.ndarray
    sky_ids: np.ndarray
    #: provenance annotations (e.g. ``{"recovered": True, ...}`` on a
    #: snapshot republished from WAL replay); never affects equality
    meta: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    delta: Optional[BatchDelta] = field(
        default=None, repr=False, compare=False
    )
    #: lazy id -> row-index map (built on first explain-by-id lookup)
    _row_index: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        dataset: str,
        version: int,
        codec: ZGridCodec,
        points: np.ndarray,
        ids: np.ndarray,
        sky_points: np.ndarray,
        sky_ids: np.ndarray,
        meta: Optional[Dict[str, Any]] = None,
        delta: Optional[BatchDelta] = None,
    ) -> "Snapshot":
        """Freeze the given state into a snapshot: every array is
        copied and write-protected."""
        points = _frozen(np.asarray(points, dtype=np.float64))
        ids = _frozen(np.asarray(ids, dtype=np.int64))
        sky_points = _frozen(np.asarray(sky_points, dtype=np.float64))
        sky_ids = _frozen(np.asarray(sky_ids, dtype=np.int64))
        if points.ndim != 2 or ids.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        if sky_points.ndim != 2 or sky_ids.shape != (sky_points.shape[0],):
            raise DatasetError("need (m, d) skyline points and matching ids")
        return cls(
            dataset=dataset,
            version=version,
            codec=codec,
            points=points,
            ids=ids,
            sky_points=sky_points,
            sky_ids=sky_ids,
            meta=dict(meta or {}),
            delta=delta,
        )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of alive points in this version."""
        return int(self.points.shape[0])

    @property
    def dimensions(self) -> int:
        return int(self.codec.dimensions)

    @property
    def skyline_size(self) -> int:
        return int(self.sky_points.shape[0])

    def row_of(self, point_id: int) -> Optional[int]:
        """Row index of ``point_id`` in this version (None if absent).

        The id map is built lazily on first use and cached on the
        snapshot; building it is safe under concurrency because the
        finished dict is published with a single attribute write.
        """
        if not self._row_index and self.ids.size:
            index = {int(pid): row for row, pid in enumerate(self.ids)}
            self._row_index.update(index)
        return self._row_index.get(int(point_id))

    def point_of(self, point_id: int) -> np.ndarray:
        """The stored point for an id; raises if not alive here."""
        row = self.row_of(point_id)
        if row is None:
            raise DatasetError(
                f"point id {point_id} is not alive in "
                f"{self.dataset!r}@v{self.version}"
            )
        return self.points[row]

    def state_digest(self) -> str:
        """Canonical content digest of this version's logical state.

        Hashes the alive set and the skyline *sorted by id* (plus the
        version number), so two snapshots holding the same points under
        the same ids digest identically regardless of the physical row
        order their trees happened to produce — fold-built (Z-merge)
        and bulk-built (``from_state``) maintainers may tie-break equal
        Z-addresses differently.  This is the bit-identity oracle the
        WAL recovery tests assert with.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(int(self.version)).encode())
        for ids, points in (
            (self.ids, self.points),
            (self.sky_ids, self.sky_points),
        ):
            order = np.argsort(ids, kind="stable")
            digest.update(
                np.ascontiguousarray(ids[order], dtype=np.int64).tobytes()
            )
            digest.update(
                np.ascontiguousarray(
                    points[order], dtype=np.float64
                ).tobytes()
            )
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.dataset!r}@v{self.version}, n={self.size}, "
            f"d={self.dimensions}, skyline={self.skyline_size})"
        )

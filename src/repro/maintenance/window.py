"""Sliding-window skylines (the n-of-N streaming model).

"Show me the best trade-offs among the most recent records."  One
driver, :class:`WindowSkyline`, runs every window over a
:class:`~repro.maintenance.maintainer.SkylineMaintainer` keyed by
arrival sequence: a :class:`WindowSpec` says which arrivals are still
inside (the last N, or those from the last ``horizon`` time units), and
a :class:`WindowLedger` holds every window entry's id, timestamp and
row, oldest first, and maps the window back to caller ids.

The maintainer holds only the window's *skybuffer*: the rows that no
younger row dominates (Tao & Papadias, *Maintaining Sliding Window
Skylines on Data Streams*, TKDE 2006).  Both window kinds expire
oldest-first, so a row's younger dominator stays inside at least as
long as the row does, and a row dominated by a younger one can never
reach the skyline again.  Every row outside the buffer has a younger
dominator, that one is in the buffer or has a younger dominator of its
own, and so on; dominance is transitive, so a buffer row dominates it,
and skyline(buffer) = skyline(window).  A batch therefore enters as:
drop its rows that a later row of the same batch dominates; insert the
rest; delete the older buffer rows one of them dominates (already off
the skyline, so that delete re-promotes nothing).  Expiry deletes only
the expired rows still in the buffer.

Timestamps are **logical** (sequence numbers, event times, published
registry versions), never the wall clock, so expiry is a deterministic
function of the replayed stream — WAL recovery relies on that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import (
    GridRows,
    grid_dtype,
    kernel_rows,
    pairwise_dominance,
    rows_per_chunk,
)
from repro.core.skyline import skyline_indices_oracle
from repro.maintenance.maintainer import SkylineMaintainer
from repro.zorder.encoding import ZGridCodec


class WindowSpec:
    """Declarative window choice: :meth:`count` (last-N records) or
    :meth:`time` (records from the last ``horizon`` time units)."""

    __slots__ = ("kind", "count_size", "horizon")

    COUNT = "count"
    TIME = "time"

    def __init__(
        self,
        kind: str,
        count_size: int = 0,
        horizon: float = 0.0,
    ) -> None:
        if kind not in (self.COUNT, self.TIME):
            raise DatasetError(f"unknown window kind {kind!r}")
        if kind == self.COUNT and count_size <= 0:
            raise DatasetError("count window needs a positive size")
        if kind == self.TIME and not (horizon > 0):
            raise DatasetError("time window needs a positive horizon")
        self.kind = kind
        self.count_size = int(count_size)
        self.horizon = float(horizon)

    @classmethod
    def count(cls, size: int) -> "WindowSpec":
        """A count-based n-of-N window over the last ``size`` records."""
        return cls(cls.COUNT, count_size=size)

    @classmethod
    def time(cls, horizon: float) -> "WindowSpec":
        """A time-based window over the last ``horizon`` time units."""
        return cls(cls.TIME, horizon=horizon)

    def expiring(self, stamps: np.ndarray, now: float) -> int:
        """How many of the oldest entries (``stamps`` non-decreasing)
        are outside the window at ``now``; an entry exactly ``horizon``
        old has expired."""
        if self.kind == self.COUNT:
            return max(0, int(stamps.shape[0]) - self.count_size)
        return int(np.searchsorted(stamps, now - self.horizon, side="right"))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WindowSpec)
            and (self.kind, self.count_size, self.horizon)
            == (other.kind, other.count_size, other.horizon)
        )

    def __repr__(self) -> str:
        if self.kind == self.COUNT:
            return f"WindowSpec.count({self.count_size})"
        return f"WindowSpec.time({self.horizon})"


class WindowLedger:
    """The ids, non-decreasing timestamps and rows of a window's
    entries, oldest first, with the :class:`WindowSpec` expiry step.
    ``points`` keeps the rows of entries pushed with them (``dimensions``
    columns); an owner that pushes none keeps none."""

    def __init__(self, dimensions: int = 0) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0)
        self.points = np.empty((0, dimensions))

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    def push(
        self,
        ids: np.ndarray,
        stamps: np.ndarray,
        points: Optional[np.ndarray] = None,
    ) -> None:
        self.ids = np.concatenate([self.ids, ids])
        self.stamps = np.concatenate([self.stamps, stamps])
        if points is not None:
            self.points = np.concatenate([self.points, points])

    def expire(self, spec: WindowSpec, now: float) -> np.ndarray:
        """Pop and return the ids ``spec`` expires at ``now``."""
        out = spec.expiring(self.stamps, now)
        expired = self.ids[:out]
        self.ids = self.ids[out:]
        self.stamps = self.stamps[out:]
        self.points = self.points[out:]
        return expired


class WindowSkyline:
    """Skyline over the arrivals a :class:`WindowSpec` keeps.

    The maintainer holds the window's skybuffer (see the module
    docstring), keyed by arrival sequence, not by the caller's ids, so
    an id may arrive again while an older arrival of it is still inside
    the window; :meth:`skyline` translates back.  ``now`` only moves
    forward: it is the newest timestamp observed, or whatever
    :meth:`advance_to` pushed it to.
    """

    def __init__(self, codec: ZGridCodec, spec: WindowSpec) -> None:
        self.spec = spec
        self._maintainer = SkylineMaintainer(codec)
        self._grid_dtype = grid_dtype(codec.cells_per_dim - 1)
        self._ledger = WindowLedger(codec.dimensions)
        #: arrival sequence of the next entry; the window holds the
        #: contiguous sequences ``[_next_seq - size, _next_seq)``
        self._next_seq = 0
        self.now = float("-inf")

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of points currently inside the window."""
        return self._ledger.size

    @property
    def buffer_size(self) -> int:
        """Window rows in the skybuffer (no younger row dominates them)."""
        return self._maintainer.size

    @property
    def skyline_size(self) -> int:
        return self._maintainer.skyline_size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current window skyline as ``(points, ids)``."""
        points, seqs = self._maintainer.skyline()
        return points, self._ledger.ids[seqs - (self._next_seq - self.size)]

    def window_ids(self) -> Tuple[int, ...]:
        """Ids currently inside the window, oldest first."""
        return tuple(self._ledger.ids.tolist())

    # ------------------------------------------------------------------
    def append(
        self, point: Sequence[float], point_id: int, timestamp: float
    ) -> List[int]:
        """Append one point; returns the ids this append expired."""
        return self.extend(
            np.asarray(point, dtype=np.float64)[None, :],
            [int(point_id)],
            [float(timestamp)],
        )

    def extend(
        self,
        points: np.ndarray,
        ids: Sequence[int],
        timestamps: Sequence[float],
        zaddresses: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Append a batch in arrival order; one maintainer insert and
        at most two deletes (dominated and expired buffer rows)
        regardless of batch size.

        ``timestamps`` must be non-decreasing within the batch and not
        precede the newest window entry.  ``zaddresses``, when given,
        are the rows' native Z-addresses (a registry delta's), so the
        buffer does not encode them again.  Batch rows the window would
        already have expired by the batch's newest timestamp are never
        inserted (they would enter and immediately leave), so the final
        state equals per-point appends.  Returns the ids expired by this
        batch (previously inside the window), oldest first.
        """
        points = np.asarray(points, dtype=np.float64)
        ids_arr = np.asarray(ids, dtype=np.int64)
        ts = np.asarray(timestamps, dtype=np.float64)
        if points.ndim != 2 or ids_arr.shape != (points.shape[0],):
            raise DatasetError("need (n, d) points and matching ids")
        if ts.shape != (points.shape[0],):
            raise DatasetError("need one timestamp per point")
        if points.shape[0] == 0:
            return []
        if np.any(np.diff(ts) < 0):
            raise DatasetError("timestamps must be non-decreasing")
        if self.size and ts[0] < self._ledger.stamps[-1]:
            raise DatasetError(
                f"timestamp {ts[0]} precedes the newest window entry "
                f"({self._ledger.stamps[-1]}); logical time moves forward"
            )
        new_now = max(self.now, float(ts[-1]))
        out = self.spec.expiring(
            np.concatenate([self._ledger.stamps, ts]), new_now
        )
        enter = slice(max(0, out - self.size), None)
        entering = ids_arr[enter]
        if entering.size:
            rows = points[enter]
            seqs = np.arange(self._next_seq, self._next_seq + entering.size)
            self._buffer(
                rows, seqs, None if zaddresses is None else zaddresses[enter]
            )
            self._next_seq += entering.size
            self._ledger.push(entering, ts[enter], rows)
        return self.advance_to(new_now)

    def _buffer(
        self, rows: np.ndarray, seqs: np.ndarray, zaddresses: Optional[np.ndarray]
    ) -> None:
        """Add a batch to the skybuffer: the rows no later row of the
        batch dominates go in, then the older buffer rows one of them
        dominates leave."""
        maintainer = self._maintainer
        # the whole batch is checked before its grid columns are taken;
        # insert_block below checks the rows that go in once more
        rows, seqs = maintainer.validate_insert(rows, seqs)
        grid = GridRows.of(rows, self._grid_dtype)
        order = np.arange(len(grid))
        shadowed = np.zeros(len(grid), dtype=bool)
        for start, dom in pairwise_dominance(grid, grid, rows_per_chunk(len(grid))):
            dom &= order[start : start + dom.shape[0], None] > order
            shadowed |= dom.any(axis=0)
        keep = np.flatnonzero(~shadowed)
        stale = maintainer.dominated_by(grid[keep])
        maintainer.insert_block(
            rows[keep], seqs[keep],
            None if zaddresses is None else zaddresses[keep],
        )
        if stale.size:
            maintainer.delete(stale)

    def advance_to(self, now: float) -> List[int]:
        """Move the clock forward and expire what fell out of the
        window; a single maintainer delete drops the expired rows that
        are still in the skybuffer."""
        now = float(now)
        if now < self.now:
            raise DatasetError(
                f"cannot move the window clock backwards "
                f"({self.now} -> {now})"
            )
        self.now = now
        oldest = self._next_seq - self.size
        expired = self._ledger.expire(self.spec, now)
        if expired.size:
            # buffer rows sit in arrival order, so the expired ones lead
            buffered = self._maintainer.alive_ids()
            gone = buffered[: np.searchsorted(buffered, oldest + expired.size)]
            if gone.size:
                self._maintainer.delete(gone)
        return expired.tolist()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Testing hook: the ledger holds one row per window entry, the
        skybuffer is exactly the window rows no younger row dominates,
        the skyline equals the oracle's over *every* window row, and the
        maintainer passes its own check."""
        ledger = self._ledger
        rows = ledger.points
        if rows.shape[0] != self.size or ledger.stamps.shape != (self.size,):
            raise DatasetError("window ledger out of sync with its rows")
        seqs = np.arange(self._next_seq - self.size, self._next_seq)
        (grid,) = kernel_rows(rows)
        younger = np.zeros(self.size, dtype=bool)
        for start, dom in pairwise_dominance(grid, grid, rows_per_chunk(self.size)):
            dom &= seqs[start : start + dom.shape[0], None] > seqs
            younger |= dom.any(axis=0)
        if not np.array_equal(self._maintainer.alive_ids(), seqs[~younger]):
            raise DatasetError(
                "skybuffer is not the window rows no younger row dominates"
            )
        _, sky_seqs = self._maintainer.skyline()
        if not np.array_equal(
            np.sort(sky_seqs), seqs[skyline_indices_oracle(rows)]
        ):
            raise DatasetError("window skyline diverged from the oracle")
        self._maintainer.verify()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.spec!r}, now={self.now}, "
            f"size={self.size}, skyline={self.skyline_size})"
        )


class SlidingWindowSkyline:
    """Skyline over the last ``window_size`` appended points: a count
    :class:`WindowSkyline` that numbers each point by arrival and uses
    that number as its id (and as its logical time)."""

    def __init__(self, codec: ZGridCodec, window_size: int) -> None:
        self._window = WindowSkyline(codec, WindowSpec.count(window_size))
        self.window_size = window_size
        self._next_id = 0

    @property
    def size(self) -> int:
        return self._window.size

    @property
    def skyline_size(self) -> int:
        return self._window.skyline_size

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._window.skyline()

    def window_ids(self) -> Tuple[int, ...]:
        return self._window.window_ids()

    def verify(self) -> None:
        self._window.verify()

    def append(self, point: Sequence[float]) -> int:
        """Append one point; expire the oldest when the window is full.
        Returns the id assigned to the point."""
        return int(self.extend(np.asarray(point, dtype=np.float64)[None, :])[0])

    def extend(self, points: np.ndarray) -> np.ndarray:
        """Append a batch in arrival order; returns the assigned ids of
        *all* batch rows, expired-in-batch ones included."""
        ids = np.arange(self._next_id, self._next_id + len(points))
        self._window.extend(points, ids, ids.astype(np.float64))
        self._next_id += ids.size
        return ids

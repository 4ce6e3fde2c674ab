"""Continuous queries: standing windowed skylines advanced per publish.

A :class:`ContinuousQuery` is a *registered, standing* query: a sliding
window (count- or time-based, see
:class:`~repro.maintenance.window.WindowSpec`) over a dataset's ingest
stream, whose skyline is incrementally maintained and re-diffed on
every published registry version.  The
:class:`ContinuousQueryManager` hooks into
:meth:`DatasetRegistry.add_publish_hook
<repro.serving.registry.DatasetRegistry.add_publish_hook>`: on each
publish it reads the newly arrived records off the snapshot's batch
delta (the inserted rows, in applied order), feeds them to every
continuous query registered on that dataset, and records the
per-query skyline diff.

Determinism: advancement is a pure function of the published snapshot
sequence.  Time-based windows run on a **logical clock** — by default
the published version number — so replaying the same publish sequence
(e.g. WAL recovery re-driving a fresh manager) advances every query
identically.  Deletions from the dataset do not retract window entries:
a continuous query is a view over the *arrival stream*, not over the
current alive set, so an id deleted and inserted again arrives twice.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.maintenance.window import WindowSkyline, WindowSpec
from repro.observability.metrics import MetricsRegistry
from repro.serving.snapshot import Snapshot
from repro.streaming.diff import SkylineDiff

#: metrics group for all streaming-layer counters
STREAMING_GROUP = "streaming"


class ContinuousQuery:
    """One standing windowed-skyline query over a dataset's stream; its
    results are in the dataset's own ids."""

    def __init__(
        self,
        name: str,
        dataset: str,
        spec: WindowSpec,
        codec,
    ) -> None:
        self.name = name
        self.dataset = dataset
        self.spec = spec
        #: last registry version this query advanced to
        self.version = 0
        self._window = WindowSkyline(codec, spec)
        #: the skyline ids at ``version``, sorted, without repeats
        self._last_sky = np.empty(0, dtype=np.int64)
        #: recent per-advance diffs (newest last)
        self.diffs: Deque[SkylineDiff] = deque(maxlen=32)
        self.records_seen = 0

    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        return self._window.size

    def window_ids(self) -> Tuple[int, ...]:
        """Ids currently inside the window, oldest first."""
        return self._window.window_ids()

    def skyline(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current windowed skyline as ``(points, ids)`` in id order."""
        points, ids = self._window.skyline()
        order = np.argsort(ids, kind="stable")
        return points[order], ids[order]

    def skyline_ids(self) -> FrozenSet[int]:
        return frozenset(self._sky_ids().tolist())

    def _sky_ids(self) -> np.ndarray:
        """The skyline's ids, sorted, without repeats (an id that
        arrived twice may be on the skyline twice)."""
        _, ids = self._window.skyline()
        return np.unique(ids)

    @property
    def last_diff(self) -> Optional[SkylineDiff]:
        return self.diffs[-1] if self.diffs else None

    # ------------------------------------------------------------------
    def advance(
        self,
        version: int,
        points: np.ndarray,
        ids: np.ndarray,
        timestamp: Optional[float] = None,
        zaddresses: Optional[np.ndarray] = None,
    ) -> Optional[SkylineDiff]:
        """Feed newly arrived records and advance to ``version``.

        ``timestamp`` is the logical time of this advance (defaults to
        ``float(version)``); time-based windows expire against it even
        when the batch is empty.  ``zaddresses`` are the records' native
        Z-addresses when the caller has them (a publish delta's), so
        the window does not encode them again.  Returns the windowed
        skyline's diff for this advance, or None when the query was
        already at (or past) ``version``.
        """
        if version <= self.version:
            return None
        clock = float(version) if timestamp is None else float(timestamp)
        self._window.extend(points, ids, np.full(len(ids), clock), zaddresses)
        if self._window.now < clock:
            self._window.advance_to(clock)
        self.records_seen += len(ids)
        previous = self._last_sky
        self._last_sky = self._sky_ids()
        from_version = self.version
        self.version = version
        diff = SkylineDiff.between(
            dataset=f"{self.dataset}#{self.name}",
            from_version=from_version,
            from_sky_ids=previous,
            to_version=version,
            to_sky_ids=self._last_sky,
        )
        self.diffs.append(diff)
        return diff

    def verify(self) -> None:
        """Testing hook: window-skyline oracle cross-check."""
        self._window.verify()

    def __repr__(self) -> str:
        return (
            f"ContinuousQuery({self.name!r} on {self.dataset!r}, "
            f"{self.spec!r}, v{self.version}, "
            f"window={self.window_size}, sky={len(self._last_sky)})"
        )


class ContinuousQueryManager:
    """Registers continuous queries and advances them on every publish.

    Attach to a registry once (:meth:`attach`); register queries per
    dataset (:meth:`register`).  The publish hook takes each new
    version's arrivals from the snapshot's batch delta — the inserted
    rows in applied (WAL) order, so advancement is deterministic and
    identical under WAL replay of the same batch sequence.

    The hook runs under the dataset's writer lock (like every publish
    hook); its cost is O(delta + per-query window maintenance).  Keep
    heavyweight analysis out of continuous queries — they are standing
    *views*, not batch jobs.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics
        self._lock = threading.Lock()
        self._registry = None
        self._queries: Dict[str, List[ContinuousQuery]] = {}

    # ------------------------------------------------------------------
    def attach(self, registry) -> "ContinuousQueryManager":
        """Hook this manager into ``registry`` publishes (idempotent)."""
        with self._lock:
            if self._registry is registry:
                return self
            if self._registry is not None:
                raise ConfigurationError(
                    "manager is already attached to a registry"
                )
            self._registry = registry
        registry.add_publish_hook(self.on_publish)
        return self

    def register(
        self, name: str, dataset: str, spec: WindowSpec
    ) -> ContinuousQuery:
        """Register a standing query; it starts from an empty window and
        fills from the next published version's arrivals."""
        with self._lock:
            if self._registry is None:
                raise ConfigurationError(
                    "attach() the manager to a registry before "
                    "registering queries"
                )
            for existing in self._queries.get(dataset, []):
                if existing.name == name:
                    raise ConfigurationError(
                        f"continuous query {name!r} already registered "
                        f"on {dataset!r}"
                    )
            snapshot = self._registry.snapshot(dataset)
            query = ContinuousQuery(name, dataset, spec, snapshot.codec)
            query.version = snapshot.version
            self._queries.setdefault(dataset, []).append(query)
        if self.metrics is not None:
            self.metrics.inc(STREAMING_GROUP, "continuous_queries")
        return query

    def queries(self, dataset: str) -> List[ContinuousQuery]:
        with self._lock:
            return list(self._queries.get(dataset, []))

    # ------------------------------------------------------------------
    def on_publish(self, snapshot: Snapshot) -> None:
        """Publish hook: advance every query of ``snapshot.dataset`` by
        the version's inserted rows.  A recovery republish of a version
        the queries already advanced through is a no-op in
        :meth:`ContinuousQuery.advance`; a publish without a delta
        (registration, adoption) is skipped."""
        arrived = snapshot.delta
        with self._lock:
            queries = self._queries.get(snapshot.dataset, [])
            if arrived is None or not queries:
                return
            advanced = sum(
                query.advance(
                    snapshot.version,
                    arrived.entered_points,
                    arrived.entered_ids,
                    zaddresses=arrived.entered_z,
                ) is not None
                for query in queries
            )
        if self.metrics is not None and advanced:
            self.metrics.inc(STREAMING_GROUP, "cq_advances", advanced)
            if arrived.entered_ids.size:
                self.metrics.inc(
                    STREAMING_GROUP,
                    "cq_records",
                    int(arrived.entered_ids.size) * advanced,
                )

"""Push-based skyline change notification: the SubscriptionHub.

The hub is a registry publish hook.  On every published version it
computes the :class:`~repro.streaming.diff.SkylineDiff` against the
previous version's skyline id-set and offers it, non-blocking, to every
subscriber of that dataset.  Each :class:`Subscription` owns a bounded
queue; when a subscriber falls behind, new diffs **coalesce** into the
queue tail (one cumulative delta) instead of growing the queue or
blocking the writer — the consumer sees fewer, bigger diffs, never a
gap and never a dropped change.

Resumable cursors: :meth:`SubscriptionHub.subscribe_from` replays the
retained diff ring when the requested version is still covered, and
falls back to a single :class:`~repro.streaming.diff.FullSync` (the
complete current skyline id-set) when it is not.

Lock discipline (load-bearing): the publish hook runs under the
dataset's writer lock and takes the hub lock — so code under the hub
lock must never wait on a writer.  ``registry.snapshot()`` is safe (an
attribute read guarded only by the registry's name-table lock, which is
never held across a writer lock); ``registry.snapshot_at()`` is *not*
(it takes the writer lock) and must never be called under the hub lock.
Per-subscription offers are non-blocking by construction, so a stalled
subscriber can never stall a mutation (regression-tested).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, DatasetError
from repro.observability.metrics import MetricsRegistry
from repro.serving.snapshot import Snapshot
from repro.streaming.continuous import STREAMING_GROUP
from repro.streaming.diff import FullSync, SkylineDiff, StreamEvent


def _ids_array(ids: FrozenSet[int]) -> np.ndarray:
    return np.asarray(sorted(ids), dtype=np.int64)


def _sorted_ids(snapshot: Snapshot) -> np.ndarray:
    """A snapshot's skyline ids, sorted and write-protected."""
    ids = np.sort(snapshot.sky_ids)
    ids.setflags(write=False)
    return ids


class Subscription:
    """One subscriber's bounded, coalescing event queue.

    Producers call :meth:`_offer` (non-blocking, hub-side); the
    consumer calls :meth:`get` / iterates.  ``start_version`` /
    ``start_sky_ids`` are the baseline the event stream applies to —
    a consumer that folds every received event over the baseline always
    holds the exact skyline id-set of the event's ``to_version``.
    """

    def __init__(
        self,
        hub: "SubscriptionHub",
        dataset: str,
        max_pending: int,
        start_version: int,
        start_sky_ids: FrozenSet[int],
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        self.hub = hub
        self.dataset = dataset
        self.max_pending = int(max_pending)
        self.start_version = int(start_version)
        self.start_sky_ids = frozenset(start_sky_ids)
        self._cond = threading.Condition()
        self._pending: Deque[StreamEvent] = deque()
        self._closed = False
        self.received = 0
        self.delivered = 0
        self.coalesced = 0
        self.full_syncs = 0

    # ------------------------------------------------------------------
    # producer side (hub only)
    # ------------------------------------------------------------------
    def _offer(self, event: StreamEvent) -> None:
        """Enqueue without ever blocking: over capacity, the event is
        folded into the queue tail (cumulative delta semantics)."""
        with self._cond:
            if self._closed:
                return
            self.received += 1
            if isinstance(event, FullSync):
                # A resync supersedes everything still queued.
                self._pending.clear()
                self._pending.append(event)
                self.full_syncs += 1
            elif len(self._pending) >= self.max_pending:
                tail = self._pending[-1]
                if isinstance(tail, FullSync):
                    self._pending[-1] = FullSync(
                        dataset=tail.dataset,
                        version=event.to_version,
                        sky_ids=_ids_array(
                            event.apply(
                                frozenset(int(i) for i in tail.sky_ids)
                            )
                        ),
                        published_at=tail.published_at
                        or event.published_at,
                    )
                else:
                    self._pending[-1] = tail.coalesce(event)
                self.coalesced += 1
                if self.hub.metrics is not None:
                    self.hub.metrics.inc(
                        STREAMING_GROUP, "diffs_coalesced"
                    )
            else:
                self._pending.append(event)
            self._cond.notify_all()

    def _close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)

    def get(self, timeout: Optional[float] = None) -> Optional[StreamEvent]:
        """Next event, blocking up to ``timeout``; None on timeout or
        when the subscription is closed and fully drained."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._pending or self._closed, timeout
            ):
                return None
            if not self._pending:
                return None  # closed and drained
            event = self._pending.popleft()
            self.delivered += 1
        if self.hub.metrics is not None:
            self.hub.metrics.inc(STREAMING_GROUP, "events_delivered")
        return event

    def events(
        self, timeout: Optional[float] = None
    ) -> Iterator[StreamEvent]:
        """Iterate events until closed-and-drained (or a ``timeout``
        with nothing pending, when one is given)."""
        while True:
            event = self.get(timeout)
            if event is None:
                return
            yield event

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()

    def close(self) -> None:
        self.hub.unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        with self._cond:
            return {
                "dataset": self.dataset,
                "pending": len(self._pending),
                "received": self.received,
                "delivered": self.delivered,
                "coalesced": self.coalesced,
                "full_syncs": self.full_syncs,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (
            f"Subscription({self.dataset!r}, pending={self.pending}, "
            f"delivered={self.delivered}, coalesced={self.coalesced})"
        )


class SubscriptionHub:
    """Thread-safe pub/sub of skyline diffs over bounded queues.

    Keeps, per dataset: the last published ``(version, skyline id-set)``
    baseline (its *own* copy — never re-reads registry state under a
    writer lock) and a bounded ring of recent diffs for cursor resume.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        retention: int = 64,
        default_max_pending: int = 256,
    ) -> None:
        if retention < 1:
            raise ConfigurationError("retention must be >= 1")
        self.metrics = metrics
        self.retention = int(retention)
        self.default_max_pending = int(default_max_pending)
        self._lock = threading.Lock()
        self._registry = None
        #: per dataset: the last published version and its skyline
        #: ids, sorted (registry ids are unique)
        self._last: Dict[str, Tuple[int, np.ndarray]] = {}
        self._recent: Dict[str, Deque[SkylineDiff]] = {}
        self._subs: Dict[str, List[Subscription]] = {}
        self.diffs_published = 0
        self.full_syncs = 0

    # ------------------------------------------------------------------
    def attach(self, registry) -> "SubscriptionHub":
        """Hook this hub into ``registry`` publishes (idempotent)."""
        with self._lock:
            if self._registry is registry:
                return self
            if self._registry is not None:
                raise ConfigurationError(
                    "hub is already attached to a registry"
                )
            self._registry = registry
        registry.add_publish_hook(self.on_publish)
        return self

    def _seed_locked(self, dataset: str) -> Tuple[int, np.ndarray]:
        """Baseline for ``dataset``, reading the registry on first use.

        Caller holds the hub lock; ``registry.snapshot`` is an atomic
        attribute read (no writer lock), so this cannot deadlock
        against the publish hook.
        """
        last = self._last.get(dataset)
        if last is None:
            if self._registry is None:
                raise ConfigurationError(
                    "attach() the hub to a registry before subscribing"
                )
            snapshot = self._registry.snapshot(dataset)
            last = (snapshot.version, _sorted_ids(snapshot))
            self._last[dataset] = last
            self._recent.setdefault(
                dataset, deque(maxlen=self.retention)
            )
        return last

    # ------------------------------------------------------------------
    # publish hook (runs under the dataset's writer lock — keep O(diff))
    # ------------------------------------------------------------------
    def on_publish(self, snapshot: Snapshot) -> None:
        now = time.perf_counter()
        dataset = snapshot.dataset
        new_ids = _sorted_ids(snapshot)
        event: Optional[StreamEvent] = None
        subs: List[Subscription] = []
        with self._lock:
            ring = self._recent.setdefault(
                dataset, deque(maxlen=self.retention)
            )
            last = self._last.get(dataset)
            self._last[dataset] = (snapshot.version, new_ids)
            if last is None:
                return
            last_version, last_sky = last
            if snapshot.version == last_version:
                # Recovery republish of the version we already diffed:
                # bit-identical by the WAL contract — nothing to push.
                return
            subs = self._subs.get(dataset, [])
            if snapshot.version < last_version:
                # Version history restarted (e.g. the dataset was
                # re-registered from scratch): diffs cannot describe
                # this — resync everyone and drop the stale ring.
                ring.clear()
                event = FullSync(
                    dataset=dataset,
                    version=snapshot.version,
                    sky_ids=new_ids,
                    published_at=now,
                )
                self.full_syncs += len(subs)
            else:
                event = SkylineDiff.between(
                    dataset=dataset,
                    from_version=last_version,
                    from_sky_ids=last_sky,
                    to_version=snapshot.version,
                    to_sky_ids=new_ids,
                    published_at=now,
                )
                ring.append(event)
                self.diffs_published += 1
            for sub in subs:
                sub._offer(event)
        if self.metrics is not None and event is not None:
            if isinstance(event, SkylineDiff):
                self.metrics.inc(STREAMING_GROUP, "diffs_published")
            else:
                self.metrics.inc(
                    STREAMING_GROUP, "full_syncs", max(1, len(subs))
                )

    # ------------------------------------------------------------------
    # subscriber management
    # ------------------------------------------------------------------
    def subscribe(
        self, dataset: str, max_pending: Optional[int] = None
    ) -> Subscription:
        """Subscribe from the current version: the subscription's
        baseline is the latest published skyline; every later publish
        arrives as a diff."""
        with self._lock:
            version, sky = self._seed_locked(dataset)
            sub = Subscription(
                self,
                dataset,
                max_pending or self.default_max_pending,
                start_version=version,
                start_sky_ids=frozenset(sky.tolist()),
            )
            self._subs.setdefault(dataset, []).append(sub)
        if self.metrics is not None:
            self.metrics.inc(STREAMING_GROUP, "subscribers")
        return sub

    def subscribe_from(
        self,
        dataset: str,
        version: int,
        max_pending: Optional[int] = None,
    ) -> Subscription:
        """Resume a cursor: replay retained diffs from ``version`` when
        the ring still covers it, else start with one full-state sync.

        The caller claims to hold the skyline id-set of ``version``;
        the subscription's baseline reflects that claim (its
        ``start_sky_ids`` is only populated on the full-sync path,
        where the claim is discarded anyway).
        """
        version = int(version)
        full_sync = False
        with self._lock:
            current_version, current_sky = self._seed_locked(dataset)
            if version > current_version:
                raise DatasetError(
                    f"cannot resume {dataset!r} from future version "
                    f"{version} (current is {current_version})"
                )
            sub = Subscription(
                self,
                dataset,
                max_pending or self.default_max_pending,
                start_version=version,
                start_sky_ids=frozenset(),
            )
            if version != current_version:
                chain = self._chain_locked(dataset, version)
                if chain is None:
                    full_sync = True
                    sub._offer(
                        FullSync(
                            dataset=dataset,
                            version=current_version,
                            sky_ids=current_sky,
                            published_at=time.perf_counter(),
                        )
                    )
                    self.full_syncs += 1
                else:
                    for diff in chain:
                        sub._offer(diff)
            self._subs.setdefault(dataset, []).append(sub)
        if self.metrics is not None:
            self.metrics.inc(STREAMING_GROUP, "subscribers")
            if full_sync:
                self.metrics.inc(STREAMING_GROUP, "full_syncs")
        return sub

    def _chain_locked(
        self, dataset: str, version: int
    ) -> Optional[List[SkylineDiff]]:
        """The retained diff chain starting exactly at ``version``, or
        None when retention no longer covers it.  Ring entries are
        consecutive by construction, so an exact ``from_version`` match
        is sufficient."""
        ring = self._recent.get(dataset)
        if not ring:
            return None
        for i, diff in enumerate(ring):
            if diff.from_version == version:
                return list(ring)[i:]
        return None

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subs.get(sub.dataset, [])
            if sub in subs:
                subs.remove(sub)
        sub._close()

    # ------------------------------------------------------------------
    def subscriber_count(self, dataset: Optional[str] = None) -> int:
        with self._lock:
            if dataset is not None:
                return len(self._subs.get(dataset, []))
            return sum(len(subs) for subs in self._subs.values())

    def retained_range(self, dataset: str) -> Optional[Tuple[int, int]]:
        """(oldest resumable from-version, latest to-version) or None."""
        with self._lock:
            ring = self._recent.get(dataset)
            if not ring:
                return None
            return ring[0].from_version, ring[-1].to_version

    def stats(self) -> dict:
        with self._lock:
            return {
                "datasets": sorted(self._last),
                "subscribers": sum(
                    len(subs) for subs in self._subs.values()
                ),
                "diffs_published": self.diffs_published,
                "full_syncs": self.full_syncs,
                "retention": self.retention,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SubscriptionHub(datasets={len(stats['datasets'])}, "
            f"subscribers={stats['subscribers']}, "
            f"diffs={stats['diffs_published']})"
        )

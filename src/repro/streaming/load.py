"""The streaming layer's threaded load driver.

:func:`replay_stream` ingests records through an :class:`IngestFeed`
while subscriber threads drain diffs and reader threads poll cached
skyline reads; ``repro stream-bench`` and ``benchmarks/test_streaming.py``
both run it.  Publish -> notify latency lives only in the metrics
registry's ``streaming.notify_latency_seconds`` histogram.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.maintenance.window import WindowSpec
from repro.serving.service import Query, SkylineService
from repro.streaming.continuous import ContinuousQueryManager
from repro.streaming.diff import replay
from repro.streaming.feed import BLOCK, FeedConfig, IngestFeed
from repro.streaming.hub import SubscriptionHub

NOTIFY_LATENCY = "streaming.notify_latency_seconds"


@dataclass(frozen=True)
class StreamSpec:
    """One field per ``repro stream-bench`` flag (``window`` 0 means
    unbounded); a bad value raises :class:`ConfigurationError` here,
    before any thread starts."""

    batch_size: int = 64
    window: int = 0
    subscribers: int = 2
    slow_subscribers: int = 1
    readers: int = 2
    on_overload: str = BLOCK

    def __post_init__(self) -> None:
        FeedConfig(self.batch_size, self.on_overload)
        for name, low in (
            ("window", 0), ("subscribers", 1),
            ("slow_subscribers", 0), ("readers", 0),
        ):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class StreamReport:
    """What one :func:`replay_stream` run measured.  The notify
    percentiles are nearest-rank (:meth:`MetricsRegistry.percentile`)."""

    records: int
    batches: int
    expired_records: int
    final_version: int
    ingest_seconds: float
    notifications: int
    notify_p50_seconds: float
    notify_p99_seconds: float
    reads_ok: int
    reads_failed: int
    reads_cached: int
    #: every slow subscriber's coalesced events replay to the final
    #: skyline id-set, so a fast-but-wrong run cannot pass
    replay_sound: bool

    @property
    def ingest_records_per_sec(self) -> float:
        if not self.ingest_seconds:
            return 0.0
        return self.records / self.ingest_seconds

    def gate(
        self,
        min_ingest_per_sec: Optional[float] = None,
        max_notify_p99_seconds: Optional[float] = None,
    ) -> List[str]:
        """One message per failed gate: replay soundness always, the
        bounds when given (p99 only once something was notified)."""
        failed = []
        if not self.replay_sound:
            failed.append("diff replay did not reconstruct the final skyline")
        rate = self.ingest_records_per_sec
        if min_ingest_per_sec is not None and rate < min_ingest_per_sec:
            failed.append(
                f"ingest {rate:.1f} records/s < {min_ingest_per_sec:.1f}"
            )
        p99 = self.notify_p99_seconds
        if max_notify_p99_seconds is not None and self.notifications and (
            p99 > max_notify_p99_seconds
        ):
            failed.append(
                f"notify p99 {p99 * 1e3:.2f}ms > "
                f"{max_notify_p99_seconds * 1e3:.2f}ms"
            )
        return failed


def replay_stream(
    registry, dataset: str, records: np.ndarray, spec: StreamSpec
) -> StreamReport:
    """Ingest ``records`` into ``dataset`` under concurrent subscribers
    and readers.

    Attaches a :class:`SubscriptionHub` and a
    :class:`ContinuousQueryManager` (with a ``"windowed"`` count query
    when ``spec.window`` is set) to ``registry``; its ``metrics``
    receive every sample.  The threads are stopped and joined before
    this returns or raises.
    """
    metrics = registry.metrics
    if metrics is None:
        raise ConfigurationError("replay_stream needs a registry with metrics")
    hub = SubscriptionHub(metrics=metrics).attach(registry)
    manager = ContinuousQueryManager(metrics=metrics).attach(registry)
    window = WindowSpec.count(spec.window) if spec.window else None
    if window is not None:
        manager.register("windowed", dataset, window)
    stop = threading.Event()
    reads = [Counter() for _ in range(spec.readers)]

    def consume(sub):
        for event in sub:  # until closed and drained
            if event.published_at:
                metrics.observe(
                    NOTIFY_LATENCY, time.perf_counter() - event.published_at
                )

    def read_loop(counts, service):
        # Paced like a dashboard poller: reads must stay available
        # during ingest, not saturate the GIL against the writer.
        while not stop.is_set():
            try:
                cached = service.query(Query.full(dataset)).cached
            except Exception:
                counts["failed"] += 1
            else:
                counts["ok"] += 1
                counts["cached"] += cached
            time.sleep(0.002)

    with SkylineService(registry, metrics=metrics) as service:
        fast = [hub.subscribe(dataset) for _ in range(spec.subscribers)]
        slow = [
            hub.subscribe(dataset, max_pending=1)
            for _ in range(spec.slow_subscribers)
        ]
        threads = [
            threading.Thread(target=consume, args=(sub,), daemon=True)
            for sub in fast
        ] + [
            threading.Thread(target=read_loop, args=(counts, service),
                             daemon=True)
            for counts in reads
        ]
        try:
            for thread in threads:
                thread.start()
            feed = IngestFeed(
                registry, dataset, admission=service.admission,
                config=FeedConfig(spec.batch_size, spec.on_overload),
                window=window, metrics=metrics,
            )
            started = time.perf_counter()
            for row in records:
                feed.append(row)
            feed.flush()
            ingest_seconds = time.perf_counter() - started
        finally:
            stop.set()
            for sub in fast + slow:
                sub.close()  # pending events stay readable
            for thread in threads:
                if thread.is_alive():
                    thread.join(10.0)

    final_sky = frozenset(int(i) for i in registry.snapshot(dataset).sky_ids)
    total = sum(reads, Counter())
    return StreamReport(
        records=len(records),
        batches=feed.batches_flushed,
        expired_records=feed.records_expired,
        final_version=registry.version(dataset),
        ingest_seconds=ingest_seconds,
        notifications=len(metrics.histogram(NOTIFY_LATENCY)),
        notify_p50_seconds=metrics.percentile(NOTIFY_LATENCY, 0.50),
        notify_p99_seconds=metrics.percentile(NOTIFY_LATENCY, 0.99),
        reads_ok=total["ok"],
        reads_failed=total["failed"],
        reads_cached=total["cached"],
        replay_sound=all(
            replay(sub, sub.start_sky_ids, sub.start_version)[0] == final_sky
            for sub in slow
        ),
    )

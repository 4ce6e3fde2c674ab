"""Perf smoke for the streaming layer (``repro.streaming``).

One guarded end-to-end measurement, written to ``BENCH_streaming.json``:
a CDC feed sustains **>= 1k records/s** of windowed ingest while
push-notification latency (publish -> subscriber receipt) holds
**p99 <= 50ms** and concurrent cached reads stay available — the
serving SLO the subsystem was built around.  The run is
``repro.streaming.replay_stream``, the driver behind ``repro
stream-bench``; it re-checks the diff stream for soundness (replay
reconstructs the final skyline id-set) so a fast-but-wrong run cannot
pass.

Absolute numbers are host-dependent; the thresholds are deliberately
loose for CI boxes — local runs land far inside them.
"""

from __future__ import annotations

import numpy as np

from conftest import update_bench

from repro.observability.metrics import MetricsRegistry
from repro.serving import DatasetRegistry, DriftPolicy
from repro.streaming import StreamSpec, replay_stream

#: sustained windowed ingest floor, records/second
MIN_INGEST_PER_SEC = 1_000.0
#: publish -> notify latency ceiling at p99, seconds
MAX_NOTIFY_P99_SECONDS = 0.050
#: concurrent cached reads must succeed at least this often
MIN_READ_SUCCESS = 0.99

RECORDS = 4_000
BATCH = 64
WINDOW = 2_000
DIMS = 5
BITS = 8


class TestStreamingSLO:
    def test_ingest_throughput_with_p99_notify_latency(self):
        rng = np.random.default_rng(31)
        seed_points = rng.integers(
            0, 2**BITS, size=(1_000, DIMS)
        ).astype(np.float64)
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics, keep_versions=4)
        registry.register("stream", seed_points, drift=DriftPolicy.never())
        stream_rows = rng.integers(
            0, 2**BITS, size=(RECORDS, DIMS)
        ).astype(np.float64)
        report = replay_stream(
            registry,
            "stream",
            stream_rows,
            StreamSpec(
                batch_size=BATCH, window=WINDOW, subscribers=1,
                slow_subscribers=1, readers=1, on_overload="block",
            ),
        )

        # Soundness before speed: the coalescing subscriber's surviving
        # event stream must still reconstruct the final skyline.
        assert report.replay_sound, "coalesced diff replay diverged"
        assert report.notifications, "no notifications were observed"
        total_reads = report.reads_ok + report.reads_failed
        read_success = report.reads_ok / total_reads if total_reads else 0.0
        counters = metrics.counters_as_dict().get("streaming", {})

        payload = {
            "records": RECORDS,
            "batch_size": BATCH,
            "window": WINDOW,
            "ingest_seconds": round(report.ingest_seconds, 4),
            "ingest_records_per_sec": round(
                report.ingest_records_per_sec, 1
            ),
            "notify_p50_ms": round(report.notify_p50_seconds * 1e3, 3),
            "notify_p99_ms": round(report.notify_p99_seconds * 1e3, 3),
            "notifications": report.notifications,
            "diffs_published": counters.get("diffs_published", 0),
            "diffs_coalesced": counters.get("diffs_coalesced", 0),
            "concurrent_reads": total_reads,
            "concurrent_read_success": round(read_success, 4),
            "concurrent_reads_cached": report.reads_cached,
            "expired_records": report.expired_records,
            "replay_sound": True,
            "min_ingest_per_sec": MIN_INGEST_PER_SEC,
            "max_notify_p99_ms": MAX_NOTIFY_P99_SECONDS * 1e3,
        }
        update_bench("streaming", "streaming_slo", payload)

        failed = report.gate(MIN_INGEST_PER_SEC, MAX_NOTIFY_P99_SECONDS)
        assert not failed, "; ".join(failed)
        assert total_reads > 0 and read_success >= MIN_READ_SUCCESS, (
            f"concurrent reads degraded: {read_success:.4f} success "
            f"over {total_reads}"
        )
        assert report.reads_cached > 0, "cache never hit during ingest"

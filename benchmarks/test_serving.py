"""Perf smoke for the serving layer (``repro.serving``).

Two guarded measurements, written to ``BENCH_serving.json``:

* **cache speedup** — a repeated-query read workload against the same
  snapshot must run at least **5x** faster with the version-keyed
  result cache than with caching disabled (identical answers, checked
  bit-for-bit before the timing means anything);
* **admission control** — under a read flood with one worker, p99
  queue wait with a bounded queue must stay far below the
  unbounded-queue control run (shed-fast beats wait-forever).

Absolute seconds are host-dependent; both guards are self-relative
ratios measured on the same host in the same process.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import List

import numpy as np

from conftest import update_bench

from repro.core.exceptions import OverloadedError
from repro.serving import (
    AdmissionConfig,
    DatasetRegistry,
    Query,
    ServiceConfig,
    SkylineService,
)

#: minimum cached-vs-uncached read throughput ratio
MIN_CACHE_SPEEDUP = 5.0
#: bounded p99 queue wait must be at most this fraction of unbounded
MAX_BOUNDED_WAIT_FRACTION = 1.0 / 3.0


def _registry(n: int = 2500, d: int = 5, seed: int = 21) -> DatasetRegistry:
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 256, size=(n, d)).astype(np.float64)
    registry = DatasetRegistry()
    registry.register("bench", points)
    return registry


#: the repeated-query rotation (what a dashboard refresh looks like)
QUERY_POOL = (
    Query.full("bench"),
    Query.subspace("bench", [0, 1, 2]),
    Query.subspace("bench", [1, 3]),
    Query.kdominant("bench", 4),
    Query.topk("bench", 8, method="sum"),
    Query.topk("bench", 4, method="dominance"),
)


class TestCacheSpeedup:
    def test_version_keyed_cache_delivers_5x_reads(self):
        rounds = 30
        registry = _registry()

        def run_reads(cache_entries: int):
            config = ServiceConfig(cache_entries=cache_entries)
            with SkylineService(registry, config=config) as service:
                # Warm both variants identically (first round pays the
                # compute either way; the cached variant then hits).
                answers = [service.query(q) for q in QUERY_POOL]
                start = time.perf_counter()
                for _ in range(rounds):
                    for query in QUERY_POOL:
                        service.query(query)
                elapsed = time.perf_counter() - start
            return answers, elapsed

        cached_answers, cached_s = run_reads(cache_entries=256)
        uncached_answers, uncached_s = run_reads(cache_entries=0)

        # Identical answers first — a fast wrong cache is worthless.
        for warm, cold in zip(cached_answers, uncached_answers):
            assert np.array_equal(warm.ids, cold.ids)
            assert np.array_equal(warm.points, cold.points)

        reads = rounds * len(QUERY_POOL)
        speedup = uncached_s / cached_s
        payload = {
            "reads": reads,
            "distinct_queries": len(QUERY_POOL),
            "cached_seconds": round(cached_s, 4),
            "uncached_seconds": round(uncached_s, 4),
            "cached_reads_per_s": round(reads / cached_s),
            "uncached_reads_per_s": round(reads / uncached_s),
            "speedup": round(speedup, 2),
        }
        update_bench("serving", "cache_speedup", payload)
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"cache delivers only {speedup:.2f}x read throughput "
            f"(need >= {MIN_CACHE_SPEEDUP}x)"
        )


class TestAdmissionControl:
    def _flood(self, max_read_queue: int, flood: int):
        """Submit a read flood against one slow worker; return the
        queue waits of completed requests + the shed count."""
        registry = _registry(n=1500)
        config = ServiceConfig(
            admission=AdmissionConfig(
                read_concurrency=1, max_read_queue=max_read_queue
            ),
            cache_entries=0,  # every request pays full compute
        )
        waits: List[float] = []
        shed = 0
        with SkylineService(registry, config=config) as service:
            futures: List[Future] = []
            for _ in range(flood):
                try:
                    futures.append(
                        service.submit(Query.kdominant("bench", 4))
                    )
                except OverloadedError:
                    shed += 1
            for future in futures:
                waits.append(future.result().queue_wait_seconds)
        return waits, shed

    def test_bounded_queue_bounds_p99_wait(self):
        flood = 150
        bounded_waits, bounded_shed = self._flood(
            max_read_queue=8, flood=flood
        )
        unbounded_waits, unbounded_shed = self._flood(
            max_read_queue=10**9, flood=flood
        )
        assert unbounded_shed == 0  # the control run queues everything
        assert bounded_shed > 0  # admission control actually shed load

        bounded_p99 = float(np.percentile(bounded_waits, 99))
        unbounded_p99 = float(np.percentile(unbounded_waits, 99))
        payload = {
            "flood_requests": flood,
            "bounded": {
                "max_read_queue": 8,
                "completed": len(bounded_waits),
                "shed": bounded_shed,
                "p50_wait_s": round(
                    float(np.percentile(bounded_waits, 50)), 4
                ),
                "p99_wait_s": round(bounded_p99, 4),
            },
            "unbounded_control": {
                "completed": len(unbounded_waits),
                "shed": unbounded_shed,
                "p50_wait_s": round(
                    float(np.percentile(unbounded_waits, 50)), 4
                ),
                "p99_wait_s": round(unbounded_p99, 4),
            },
            "p99_ratio": round(bounded_p99 / unbounded_p99, 4),
        }
        update_bench("serving", "admission_control", payload)
        assert bounded_p99 <= unbounded_p99 * MAX_BOUNDED_WAIT_FRACTION, (
            f"bounded p99 wait {bounded_p99:.4f}s is not well below the "
            f"unbounded control's {unbounded_p99:.4f}s"
        )

"""Hammer tests: snapshot isolation and cache coherence under real
concurrent mutation.

A writer thread streams insert/delete batches through the service
while reader threads continuously issue all five query types.  The
invariants checked are the serving layer's whole contract:

* every answer is internally consistent with the *single* version it
  claims (skyline of that version's alive set, verified against the
  brute-force oracle) — i.e. no result ever mixes two versions;
* versions observed by any one reader never go backwards;
* cached answers are bit-identical to uncached recomputation even
  while the writer races ahead.
"""

from __future__ import annotations

import threading
from typing import Dict

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.skyline import skyline_indices_oracle
from repro.extensions.kdominant import k_dominant_skyline
from repro.extensions.subspace import subspace_skyline
from repro.serving import (
    DatasetRegistry,
    DriftPolicy,
    Mutation,
    Query,
    SkylineService,
)

DIMS = 3
TOP = 16


def _oracle_ids(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(ids[skyline_indices_oracle(points)])


class TestSnapshotIsolationUnderWrites:
    def test_readers_never_observe_torn_versions(self, rng):
        registry = DatasetRegistry(keep_versions=4)
        points = rng.integers(0, TOP, size=(120, DIMS)).astype(np.float64)
        registry.register(
            "h", points,
            drift=DriftPolicy.bounded(max_deletes=30,
                                      max_delete_fraction=None),
        )
        errors: list = []
        stop = threading.Event()

        def writer() -> None:
            wrng = np.random.default_rng(99)
            next_id = 10_000
            try:
                for step in range(40):
                    if step % 2 == 0:
                        batch = wrng.integers(
                            0, TOP, size=(6, DIMS)
                        ).astype(np.float64)
                        ids = np.arange(next_id, next_id + 6)
                        next_id += 6
                        registry.insert("h", batch, ids)
                    else:
                        alive = registry.snapshot("h").ids
                        doomed = wrng.choice(
                            alive, size=min(4, alive.size - 10),
                            replace=False,
                        )
                        registry.delete("h", doomed)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader(seed: int) -> None:
            last_version = 0
            try:
                while not stop.is_set():
                    snap = registry.snapshot("h")
                    # monotone versions per reader
                    assert snap.version >= last_version
                    last_version = snap.version
                    # the snapshot is a consistent cut: its skyline is
                    # exactly the oracle skyline of its own alive set
                    assert np.array_equal(
                        np.sort(snap.sky_ids),
                        _oracle_ids(snap.points, snap.ids),
                    )
                    # and immutable: ids/points agree in length forever
                    assert snap.ids.shape[0] == snap.points.shape[0]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        readers = [
            threading.Thread(target=reader, args=(i,)) for i in range(3)
        ]
        writer_thread.start()
        for thread in readers:
            thread.start()
        writer_thread.join(timeout=60)
        for thread in readers:
            thread.join(timeout=60)
        assert not errors, errors[0]
        final = registry.snapshot("h")
        assert final.version == 41  # register + 40 mutation batches

    def test_held_snapshot_is_immune_to_later_writes(self, rng):
        registry = DatasetRegistry()
        points = rng.integers(0, TOP, size=(60, DIMS)).astype(np.float64)
        registry.register("h", points)
        held = registry.snapshot("h")
        held_ids = held.ids.copy()
        held_sky = held.sky_ids.copy()
        for step in range(10):
            registry.insert(
                "h",
                rng.integers(0, TOP, size=(3, DIMS)).astype(np.float64),
                np.arange(1000 + 3 * step, 1003 + 3 * step),
            )
        registry.delete("h", held_ids[:5])
        assert held.version == 1
        assert np.array_equal(held.ids, held_ids)
        assert np.array_equal(held.sky_ids, held_sky)


class TestCacheCoherenceUnderWrites:
    def test_all_query_types_bit_identical_cached_vs_fresh(self, rng):
        """Reader threads hammer all five query types (getting a mix of
        hits and misses) while a writer mutates; every answer must be
        bit-identical to an offline recomputation on the snapshot of the
        version it reports."""
        registry = DatasetRegistry()
        points = rng.integers(0, TOP, size=(100, DIMS)).astype(np.float64)
        registry.register("h", points)
        errors: list = []
        stop = threading.Event()
        #: answers returned per version, so the writer can hold each
        #: version until readers have repeated a kind on it
        answered: Dict[int, int] = {}
        progress = threading.Condition()

        queries = [
            Query.full("h"),
            Query.subspace("h", [0, 2]),
            Query.kdominant("h", 2),
            Query.topk("h", 4, method="sum"),
            Query.explain("h", point=[float(TOP - 1)] * DIMS),
        ]
        # More answers per version than kinds: some kind repeats there.
        per_version = 2 * len(queries)

        with SkylineService(registry) as service:

            def writer() -> None:
                wrng = np.random.default_rng(7)
                try:
                    for step in range(25):
                        batch = wrng.integers(
                            0, TOP, size=(4, DIMS)
                        ).astype(np.float64)
                        ids = np.arange(5000 + 4 * step, 5004 + 4 * step)
                        version = service.mutate(
                            Mutation.insert("h", batch, ids)
                        ).version
                        with progress:
                            progress.wait_for(
                                lambda: errors
                                or answered.get(version, 0) >= per_version,
                                timeout=30,
                            )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    stop.set()

            def check(result, query, snap) -> None:
                if query.kind == "full":
                    expected = _oracle_ids(snap.points, snap.ids)
                elif query.kind == "subspace":
                    _, ids = subspace_skyline(
                        snap.points, list(query.dims), ids=snap.ids
                    )
                    expected = np.sort(ids)
                elif query.kind == "kdominant":
                    _, ids = k_dominant_skyline(
                        snap.points, query.k, ids=snap.ids
                    )
                    expected = np.sort(ids)
                elif query.kind == "topk":
                    assert result.size == min(query.k, snap.skyline_size)
                    assert np.all(np.diff(result.scores) >= 0)
                    return
                else:  # explain: worst corner is dominated by all
                    assert not result.explanation.is_skyline_member
                    return
                assert np.array_equal(result.ids, expected), (
                    f"{query.kind}@v{result.version}: "
                    f"{result.ids} != {expected}"
                )

            def reader(seed: int) -> None:
                rrng = np.random.default_rng(seed)
                try:
                    while not stop.is_set():
                        query = queries[int(rrng.integers(0, len(queries)))]
                        result = service.query(query)
                        with progress:
                            answered[result.version] = (
                                answered.get(result.version, 0) + 1
                            )
                            progress.notify_all()
                        try:
                            # Re-fetch exactly the version the answer
                            # claims; it can age out of the retention
                            # ring while the writer races ahead, in
                            # which case there is nothing to verify.
                            snap = registry.snapshot_at("h", result.version)
                        except DatasetError:
                            continue
                        check(result, query, snap)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    with progress:
                        progress.notify_all()

            writer_thread = threading.Thread(target=writer)
            readers = [
                threading.Thread(target=reader, args=(100 + i,))
                for i in range(3)
            ]
            writer_thread.start()
            for thread in readers:
                thread.start()
            writer_thread.join(timeout=60)
            for thread in readers:
                thread.join(timeout=60)
        assert not errors, errors[0]
        # The cache actually participated.
        assert service.cache is not None and service.cache.hits > 0

    def test_cached_equals_fresh_service_for_every_kind(self, rng):
        """Same query against a cached service and an uncached one:
        answers must be indistinguishable."""
        points = rng.integers(0, TOP, size=(90, DIMS)).astype(np.float64)

        def build(cache_entries):
            registry = DatasetRegistry()
            registry.register("h", points)
            from repro.serving import ServiceConfig

            return SkylineService(
                registry, config=ServiceConfig(cache_entries=cache_entries)
            )

        queries = [
            Query.full("h"),
            Query.subspace("h", [1, 2]),
            Query.kdominant("h", 2),
            Query.topk("h", 5, method="sum"),
            Query.explain("h", point=[float(TOP - 1)] * DIMS),
        ]
        with build(256) as cached_svc, build(0) as uncached_svc:
            for query in queries:
                cached_svc.query(query)  # warm
                warm = cached_svc.query(query)
                cold = uncached_svc.query(query)
                assert warm.cached and not cold.cached
                assert np.array_equal(warm.ids, cold.ids)
                assert np.array_equal(warm.points, cold.points)
                if warm.scores is not None:
                    assert np.array_equal(warm.scores, cold.scores)

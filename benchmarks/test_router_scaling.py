"""Coordinator scaling smoke: merge cache, shard fan-out, drift rebuilds.

Measures what this tier's perf work actually bought, and writes the
evidence to ``BENCH_router_scaling.json`` at the repo root (a CI
artifact):

* **cached reads** — repeat full-skyline queries against a 4-shard
  router with the coordinator caches on vs the same router with them
  off (the uncached scatter+Z-merge path).  Gate: cached p90 at least
  ``MIN_CACHED_SPEEDUP``x faster, enforced on any host — a version-keyed
  cache hit costs a dict probe, the miss path re-folds four ZB-trees;
* **shard-count scaling** — aggregate ``replay_workload`` throughput at
  1, 2, and 4 shards.  Gate: 4-shard throughput at least
  ``MIN_SCALING``x the 1-shard run, enforced only with >=
  ``GATE_CORES`` usable cores (scatter parallelism cannot beat a serial
  host);
* **identity** — after an identical mutation stream, every query kind
  at every shard count, cached and uncached, answers bit-identically to
  a single unsharded service (id-sorted canonical arrays).  Always
  enforced;
* **drift rebuilds** — delete churn against a registry whose
  :class:`DriftPolicy` recomputes the skyline from scratch (one direct
  Z-search, inline in the writer) vs a never-rebuilding twin.  Gates,
  always enforced: at least one publish is ``rebuilt``, the final
  ``state_digest()`` matches the twin exactly, and the drifting
  registry's mutation p99 is no worse than the median wall time of a
  three-phase pipeline recompute (``supervised_run``) of the same final
  alive set — the stall a writer paid when rebuilds ran the pipeline.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.pipeline.supervisor import supervised_run
from repro.serving import (
    DatasetRegistry,
    DriftPolicy,
    Mutation,
    Query,
    RouterConfig,
    ShardedSkylineService,
    SkylineService,
    WorkloadSpec,
    replay_workload,
)
from repro.zorder.encoding import quantize_dataset

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_router_scaling.json")

#: repeat full-query p90: cached path vs cache-disabled path, 4 shards
MIN_CACHED_SPEEDUP = 5.0
#: replay throughput: 4 shards over 1 shard (needs real cores)
MIN_SCALING = 1.5
GATE_CORES = 4

N, D = 4_000, 4
SEED = 17
SHARD_COUNTS = (1, 2, 4)
#: timed repeat reads per cache configuration
READ_REPEATS = 60
#: mutation batches for the rebuild-latency comparison
CHURN_ROUNDS = 30
#: timed pipeline recomputes of the final alive set
PIPELINE_REPEATS = 3


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _p(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _workload():
    rng = np.random.default_rng(SEED)
    raw = rng.random((N, D))
    snapped, codec = quantize_dataset(
        Dataset(raw, name="bench"), bits_per_dim=10
    )
    ids = np.arange(N, dtype=np.int64)
    return snapped.points, ids, codec


def _query_variants() -> List[Query]:
    return [
        Query.full("ds"),
        Query.subspace("ds", [0, 1]),
        Query.kdominant("ds", D - 1),
        Query.topk("ds", 5, method="sum"),
        Query.topk("ds", 5, method="representative"),
    ]


def _mutation_stream(rounds: int = 12) -> List[Mutation]:
    """A fixed, snapshot-independent mutation sequence every service
    variant can replay identically (inserts of fresh ids, deletes of
    ids known alive by construction)."""
    rng = np.random.default_rng(SEED + 1)
    stream: List[Mutation] = []
    next_id = N
    for i in range(rounds):
        if i % 3 == 2:
            doomed = np.arange(i * 40, i * 40 + 6, dtype=np.int64)
            stream.append(Mutation.delete("ds", doomed))
        else:
            pts = rng.integers(0, 1024, size=(6, D)).astype(np.float64)
            new_ids = np.arange(next_id, next_id + 6, dtype=np.int64)
            next_id += 6
            stream.append(Mutation.insert("ds", pts, new_ids))
    return stream


def _canonical(result) -> tuple:
    ids = np.asarray(result.ids)
    order = np.argsort(ids, kind="stable")
    return (
        ids[order].tolist(),
        np.asarray(result.points)[order].tolist(),
        None if result.scores is None
        else np.asarray(result.scores)[order].tolist(),
    )


def _router(points, ids, codec, shards, caches=True, **kw):
    config = RouterConfig(
        num_shards=shards,
        merge_cache_entries=32 if caches else 0,
    )
    return ShardedSkylineService(
        "ds", points.copy(), ids=ids.copy(), codec=codec, config=config,
        drift=DriftPolicy.never(), **kw,
    )


def _measure_cached_reads(points, ids, codec) -> Dict[str, object]:
    latencies: Dict[str, List[float]] = {}
    answers: Dict[str, tuple] = {}
    for label, caches in (("cached", True), ("uncached", False)):
        with _router(points, ids, codec, 4, caches=caches) as router:
            router.query(Query.full("ds"))  # warm shard-level state
            samples = []
            for _ in range(READ_REPEATS):
                start = time.perf_counter()
                result = router.query(Query.full("ds"))
                samples.append(time.perf_counter() - start)
            latencies[label] = samples
            answers[label] = _canonical(result)
    assert answers["cached"] == answers["uncached"]
    cached_p90 = _p(latencies["cached"], 90)
    uncached_p90 = _p(latencies["uncached"], 90)
    return {
        "repeats": READ_REPEATS,
        "cached_p90_ms": round(cached_p90 * 1e3, 4),
        "uncached_p90_ms": round(uncached_p90 * 1e3, 4),
        "speedup": round(uncached_p90 / max(cached_p90, 1e-9), 2),
    }


def _measure_identity(points, ids, codec) -> Dict[str, object]:
    stream = _mutation_stream()
    registry = DatasetRegistry(keep_versions=16)
    registry.register(
        "ds", points.copy(), ids=ids.copy(), codec=codec,
        drift=DriftPolicy.never(),
    )
    single = SkylineService(registry)
    for mutation in stream:
        single.mutate(mutation)
    want = [_canonical(single.query(q)) for q in _query_variants()]

    checked = 0
    for shards in SHARD_COUNTS:
        for caches in (True, False):
            with _router(points, ids, codec, shards, caches=caches) as r:
                for mutation in stream:
                    r.mutate(mutation)
                for _ in range(2):  # second pass exercises cache hits
                    got = [_canonical(r.query(q)) for q in _query_variants()]
                    assert got == want, (
                        f"answer mismatch at shards={shards}, "
                        f"caches={caches}"
                    )
                    checked += len(got)
    return {
        "query_kinds": len(_query_variants()),
        "configurations": len(SHARD_COUNTS) * 2,
        "answers_checked": checked,
    }


def _measure_scaling(points, ids, codec) -> Dict[str, object]:
    spec = WorkloadSpec(
        dataset="ds", operations=300, read_fraction=0.9,
        query_pool=6, batch_size=6, seed=SEED,
    )
    throughput: Dict[int, float] = {}
    for shards in SHARD_COUNTS:
        with _router(points, ids, codec, shards) as router:
            report = replay_workload(router, spec)
            assert report.operations == spec.operations
            assert not report.failures, report.failures
            throughput[shards] = report.throughput
    return {
        "operations": spec.operations,
        "read_fraction": spec.read_fraction,
        "throughput_ops_per_second": {
            str(shards): round(value, 1)
            for shards, value in throughput.items()
        },
        "scaling_4_over_1": round(throughput[4] / throughput[1], 3),
    }


def _measure_drift_rebuilds(points, ids, codec) -> Dict[str, object]:
    def churn(drift):
        registry = DatasetRegistry()
        registry.register(
            "ds", points.copy(), ids=ids.copy(), codec=codec, drift=drift,
        )
        samples = []
        rebuilds = 0
        for i in range(CHURN_ROUNDS):
            doomed = list(range(i * 4, i * 4 + 4))
            start = time.perf_counter()
            rebuilds += registry.delete("ds", doomed).rebuilt
            samples.append(time.perf_counter() - start)
        return registry.snapshot("ds"), samples, rebuilds

    final, drift_lat, rebuilds = churn(DriftPolicy(max_deletes=10))
    never, _, _ = churn(DriftPolicy.never())

    # The recompute a rebuild used to run: the paper's three-phase
    # pipeline over the same alive set, with the registry's old sizing.
    n = final.size
    pipeline_s = []
    for _ in range(PIPELINE_REPEATS):
        start = time.perf_counter()
        report = supervised_run(
            "ZHG+ZS",
            Dataset(final.points, ids=final.ids, name="ds[rebuild]"),
            bits_per_dim=codec.bits_per_dim,
            num_workers=4,
            num_groups=max(1, min(16, n // 32)),
            sample_ratio=min(1.0, max(0.05, 256.0 / n)),
        )
        pipeline_s.append(time.perf_counter() - start)

    return {
        "churn_rounds": CHURN_ROUNDS,
        "drift_max_deletes": 10,
        "rebuilt_publishes": rebuilds,
        "drift_mutation_p99_ms": round(_p(drift_lat, 99) * 1e3, 3),
        "pipeline_recompute_median_ms": round(
            float(np.median(pipeline_s)) * 1e3, 3
        ),
        "pipeline_ids_identical": bool(np.array_equal(
            np.sort(np.asarray(report.skyline.ids)), np.sort(final.sky_ids)
        )),
        "digests_identical": final.state_digest() == never.state_digest(),
    }


@pytest.fixture(scope="module")
def measurements():
    points, ids, codec = _workload()
    cpus = _available_cpus()
    payload = {
        "workload": {"n": N, "d": D, "seed": SEED,
                     "shard_counts": list(SHARD_COUNTS)},
        "available_cpus": cpus,
        "cached_reads": _measure_cached_reads(points, ids, codec),
        "identity": _measure_identity(points, ids, codec),
        "scaling": _measure_scaling(points, ids, codec),
        "drift_rebuilds": _measure_drift_rebuilds(points, ids, codec),
        "gates": {
            "min_cached_speedup": MIN_CACHED_SPEEDUP,
            "min_scaling_4_over_1": MIN_SCALING,
            "scaling_enforced": cpus >= GATE_CORES,
        },
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


class TestRouterScaling:
    def test_cached_reads_beat_uncached_p90(self, measurements):
        cached = measurements["cached_reads"]
        assert cached["speedup"] >= MIN_CACHED_SPEEDUP, (
            f"cached full-query p90 only {cached['speedup']}x faster "
            f"than the uncached scatter+merge path "
            f"(need >= {MIN_CACHED_SPEEDUP}x); "
            f"see BENCH_router_scaling.json"
        )

    def test_all_paths_identical_to_single_service(self, measurements):
        identity = measurements["identity"]
        assert identity["answers_checked"] == (
            identity["query_kinds"] * identity["configurations"] * 2
        )

    def test_throughput_scales_with_shards(self, measurements):
        if not measurements["gates"]["scaling_enforced"]:
            pytest.skip(
                f"scaling gate needs >= {GATE_CORES} usable cores, "
                f"this host has {measurements['available_cpus']} "
                f"(measured ratio "
                f"{measurements['scaling']['scaling_4_over_1']}x is "
                f"recorded in BENCH_router_scaling.json)"
            )
        ratio = measurements["scaling"]["scaling_4_over_1"]
        assert ratio >= MIN_SCALING, (
            f"4-shard replay only {ratio}x the 1-shard throughput "
            f"(need >= {MIN_SCALING}x); see BENCH_router_scaling.json"
        )

    def test_drift_rebuild_latency_and_digest(self, measurements):
        drift = measurements["drift_rebuilds"]
        assert drift["rebuilt_publishes"] >= 1
        assert drift["digests_identical"]
        assert drift["pipeline_ids_identical"]
        assert (
            drift["drift_mutation_p99_ms"]
            <= drift["pipeline_recompute_median_ms"]
        ), (
            "drift-rebuild mutation p99 exceeds one pipeline recompute "
            "of the same alive set; see BENCH_router_scaling.json"
        )

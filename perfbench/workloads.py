"""The benchmark's three workloads, each a single-threaded closed loop.

* ``batch-indep-d8`` — ``run_plan("ZDG+ZS+ZM")`` on the simulated
  executor over a fixed rotation of seeded independent d=8 datasets.
* ``serve-sharded-d4`` — a 2-shard ``ShardedSkylineService`` driven by a
  fixed script of rounds: one write, the five query kinds once
  (uncached), then the same five again (cached).
* ``stream-window-d4`` — an ``IngestFeed`` into a durable registry with
  a count window, a ``ContinuousQuery`` over the same window, one drained
  hub subscriber and a ``Query.full`` poll after every flush.

The seed varies data and write payloads only.  Which op kinds run, in
which order, and every query parameter are fixed, so two seeds give the
same op sequence (``op_log``).  Oracles run outside all timing.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.algorithms.bnl import bnl_skyline
from repro.core.dataset import Dataset
from repro.observability.metrics import MetricsRegistry
from repro import run_plan
from repro.serving import (
    AdmissionConfig,
    DatasetRegistry,
    DriftPolicy,
    Mutation,
    Query,
    RouterConfig,
    ServiceConfig,
    ShardedSkylineService,
    SkylineService,
)
from repro.serving.service import execute_on_snapshot
from repro.streaming import (
    ContinuousQueryManager,
    FeedConfig,
    IngestFeed,
    SubscriptionHub,
    WindowSpec,
    replay,
)
from repro.zorder.encoding import ZGridCodec, quantize_dataset

from perfbench.trace import SpanLog

PLAN = "ZDG+ZS+ZM"


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` the smoke."""

    batch_n: int = 10_000
    batch_d: int = 8
    batch_datasets: int = 8
    batch_workers: int = 8
    serve_n: int = 2_000
    serve_d: int = 4
    serve_shards: int = 2
    serve_write: int = 8
    stream_seed_n: int = 2_000
    stream_window: int = 2_000
    stream_batch: int = 64
    stream_d: int = 4
    bits: int = 12
    #: set-ups per run (serve, stream); the median is reported
    setup_repeats: int = 5
    #: windowed-skyline oracle snapshot every this many stream flushes
    stream_check_every: int = 25


FULL = Scale()
TINY = replace(
    FULL, batch_n=600, batch_datasets=2, serve_n=300, stream_seed_n=200,
    stream_window=128, stream_batch=16, setup_repeats=1,
    stream_check_every=4,
)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def _grid(rng: np.random.Generator, n: int, d: int, bits: int) -> np.ndarray:
    return rng.integers(0, 1 << bits, size=(n, d)).astype(np.float64)


def _ids(array) -> Tuple[int, ...]:
    return tuple(sorted(int(i) for i in np.asarray(array).tolist()))


def _bnl_ids(points: np.ndarray, ids: np.ndarray) -> Tuple[int, ...]:
    _pts, sky = bnl_skyline(points, ids)
    return _ids(sky)


class Recorder:
    """Latency samples per op kind, each tagged with its op and whether
    that op was traced."""

    def __init__(self, log: Optional[SpanLog] = None) -> None:
        self.log = log
        self.tracing = False
        #: (kind, op index, traced, seconds)
        self.records: List[Tuple[str, int, bool, float]] = []
        self.ops = 0
        self.traced_ops = 0

    def add(self, kind: str, seconds: float) -> None:
        self.records.append((kind, self.ops, self.tracing, seconds))

    def seconds(self, kind: str, traced: bool = False,
                factors: Optional[List[float]] = None) -> List[float]:
        """Samples of ``kind``, each scaled by its op's factor if given."""
        return [
            s * (factors[op] if factors is not None else 1.0)
            for k, op, t, s in self.records if k == kind and t == traced
        ]

    @contextmanager
    def timed(self, kind: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(kind, time.perf_counter() - started)

    @contextmanager
    def op(self) -> Iterator[None]:
        """One closed-loop op: its latency is the ``op`` sample, and in a
        traced op it is the root span every layer span hangs under."""
        root = self.log.begin_op(self.ops) if self.tracing else None
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                self.log.end_op(root)
                self.traced_ops += 1
            self.add("op", elapsed)
            self.ops += 1


class Workload:
    """Shared shape: inputs from the seed, set-up, steps, oracles."""

    name = ""
    #: op kinds whose medians the geometric-mean metric combines
    kinds: Tuple[str, ...] = ()
    #: records ingested per op (the ingest-rate metric; 0 = not an ingest)
    records_per_op = 0

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.workdir = workdir
        #: (op kind, parameters) of every op run, in order
        self.op_log: List[Tuple[str, str]] = []
        self.failures: List[str] = []
        self.oracle_checks = 0

    def inputs(self) -> List[np.ndarray]:
        """Every array the seed determines up front (seed-discipline test)."""
        raise NotImplementedError

    def setup_repeats(self) -> int:
        return self.scale.setup_repeats

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def step(self, rec: Recorder) -> None:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        return {}

    def verify(self) -> None:
        raise NotImplementedError

    def fail(self, message: str) -> None:
        self.failures.append(message)


# ----------------------------------------------------------------------
# batch-indep-d8
# ----------------------------------------------------------------------
class BatchWorkload(Workload):
    name = "batch-indep-d8"
    kinds = ("job",)

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        s = scale
        self.raw = [
            _rng(seed, 1, k).random((s.batch_n, s.batch_d))
            for k in range(s.batch_datasets)
        ]
        self.datasets = [
            Dataset(points, name=f"indep-{k}")
            for k, points in enumerate(self.raw)
        ]
        self.jobs = 0
        #: (dataset index, skyline id-set) per job, checked in verify()
        self.answers: List[Tuple[int, Tuple[int, ...]]] = []
        self._counts: Dict[str, float] = {}

    def inputs(self) -> List[np.ndarray]:
        return list(self.raw)

    def _job(self):
        k = self.jobs % len(self.datasets)
        self.jobs += 1
        self.op_log.append(("job", f"{PLAN}|dataset={k}"))
        report = run_plan(
            PLAN, self.datasets[k],
            num_workers=self.scale.batch_workers,
            bits_per_dim=self.scale.bits,
        )
        return k, report

    def _keep(self, k: int, report) -> None:
        self.answers.append((k, _ids(report.skyline.ids)))
        merged = report.merged_counters()
        for name, value in (
            ("pipeline.candidates", report.num_candidates),
            ("pipeline.prefiltered_records", report.phase1.counters.get(
                "phase1", "prefiltered_records")),
            ("pipeline.skyline", report.skyline_size),
            ("mapreduce.shuffle_records", report.shuffle_records),
            ("mapreduce.shuffle_bytes",
             report.phase1.shuffle_bytes + report.phase2.shuffle_bytes),
            ("mapreduce.reduce_cost_skew", report.reducer_skew),
            ("dominance.point_tests",
             merged.counter("dominance", "point_tests")),
            ("dominance.region_tests",
             merged.counter("dominance", "region_tests")),
        ):
            self._counts[name] = self._counts.get(name, 0.0) + float(value)

    def setup_repeats(self) -> int:
        return 1  # a process has one cold first job

    def setup(self) -> None:
        # The cold first job of a fresh process is the set-up.
        k, report = self._job()
        self._keep(k, report)

    def step(self, rec: Recorder) -> None:
        with rec.op():
            with rec.timed("job"):
                k, report = self._job()
        self._keep(k, report)

    def counts(self) -> Dict[str, float]:
        return dict(self._counts)

    def verify(self) -> None:
        oracle: Dict[int, Tuple[int, ...]] = {}
        for k, got in self.answers:
            if k not in oracle:
                snapped, _codec = quantize_dataset(
                    self.datasets[k], bits_per_dim=self.scale.bits
                )
                oracle[k] = _bnl_ids(snapped.points, snapped.ids)
            self.oracle_checks += 1
            if got != oracle[k]:
                self.fail(
                    f"job on dataset {k}: {len(got)} skyline ids, "
                    f"BNL has {len(oracle[k])}"
                )


# ----------------------------------------------------------------------
# serve-sharded-d4
# ----------------------------------------------------------------------
DATASET = "ds"
READ_KINDS = ("full", "subspace", "kdominant", "topk", "explain")


def serve_queries(d: int, bits: int) -> List[Tuple[str, Query]]:
    """The five read kinds with fixed parameters."""
    middle = float(1 << (bits - 1))
    return [
        ("full", Query.full(DATASET)),
        ("subspace", Query.subspace(DATASET, [0, 1])),
        ("kdominant", Query.kdominant(DATASET, d - 1)),
        ("topk", Query.topk(DATASET, 5, method="dominance")),
        ("explain", Query.explain(DATASET, point=[middle] * d)),
    ]


def _canonical(payload) -> tuple:
    """Comparable form of a query answer or an executor payload."""
    scores = getattr(payload, "scores", None)
    explanation = getattr(payload, "explanation", None)
    return (
        np.asarray(payload.ids).tolist(),
        np.asarray(payload.points).tolist(),
        None if scores is None else np.asarray(scores).tolist(),
        None if explanation is None else bool(explanation.is_skyline_member),
    )


class ServeWorkload(Workload):
    name = "serve-sharded-d4"
    kinds = ("write",) + READ_KINDS + ("cached_read",)

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        s = scale
        self.codec = ZGridCodec.grid_identity(s.serve_d, bits_per_dim=s.bits)
        self.base_points = _grid(_rng(seed, 2), s.serve_n, s.serve_d, s.bits)
        self.base_ids = np.arange(s.serve_n, dtype=np.int64)
        self.queries = serve_queries(s.serve_d, s.bits)
        self.router: Optional[ShardedSkylineService] = None
        self.metrics: Optional[MetricsRegistry] = None
        self._home: Optional[str] = None
        self.mismatches = 0
        self.alive_ids = self.base_ids
        #: (alive points, alive ids, full answer) per version
        self.versions: List[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]] = []

    def inputs(self) -> List[np.ndarray]:
        return [self.base_points, self.write_payload(0)[1],
                self.write_payload(1)[1]]

    def write_payload(self, index: int) -> Tuple[str, np.ndarray]:
        """Round ``index``'s write: 8 new points on even rounds, 8 alive
        ids to delete on odd rounds (chosen from the model's alive set)."""
        rng = _rng(self.seed, 2, 1, index)
        if index % 2 == 0:
            return "insert", _grid(
                rng, self.scale.serve_write, self.scale.serve_d,
                self.scale.bits,
            )
        return "delete", np.sort(
            rng.choice(self.alive_ids, size=self.scale.serve_write,
                       replace=False)
        )

    def setup(self) -> None:
        self.teardown()
        self._home = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        self.metrics = MetricsRegistry()
        config = RouterConfig(
            num_shards=self.scale.serve_shards,
            hedge_after_seconds=0.0,
            heartbeat_every_ops=0,
            service_config=ServiceConfig(
                admission=AdmissionConfig(read_concurrency=1)
            ),
        )
        self.router = ShardedSkylineService(
            DATASET, self.base_points.copy(), ids=self.base_ids.copy(),
            codec=self.codec, config=config, metrics=self.metrics,
            durability_dir=self._home, drift=DriftPolicy.never(),
        )
        self.alive_points = self.base_points.copy()
        self.alive_ids = self.base_ids.copy()
        self.next_id = int(self.scale.serve_n)
        self.rounds = 0
        self.op_log = []
        self.versions = []
        self.mismatches = 0
        self.step(Recorder())  # warm-up round

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        if self._home is not None:
            shutil.rmtree(self._home, ignore_errors=True)
            self._home = None

    def step(self, rec: Recorder) -> None:
        assert self.router is not None
        kind, payload = self.write_payload(self.rounds)
        if kind == "insert":
            new_ids = np.arange(
                self.next_id, self.next_id + payload.shape[0], dtype=np.int64
            )
            mutation = Mutation.insert(DATASET, payload, new_ids)
        else:
            mutation = Mutation.delete(DATASET, payload)
        self.op_log.append(("write", kind))
        for name, query in self.queries + self.queries:
            self.op_log.append((name, query.fingerprint()))
        answers = []
        with rec.op():
            with rec.timed("write"):
                self.router.mutate(mutation)
            for name, query in self.queries:
                with rec.timed(name):
                    answers.append(self.router.query(query))
            for name, query in self.queries:
                with rec.timed("cached_read"):
                    answers.append(self.router.query(query))
        self.rounds += 1
        if kind == "insert":
            self.alive_points = np.vstack([self.alive_points, payload])
            self.alive_ids = np.concatenate([self.alive_ids, new_ids])
            self.next_id += payload.shape[0]
        else:
            keep = ~np.isin(self.alive_ids, payload)
            self.alive_points = self.alive_points[keep]
            self.alive_ids = self.alive_ids[keep]
        # The script, not QueryResult.cached, says which reads are fresh.
        self.mismatches += sum(1 for a in answers[: len(READ_KINDS)] if a.cached)
        self.versions.append(
            (self.alive_points, self.alive_ids, _ids(answers[0].ids))
        )

    def counts(self) -> Dict[str, float]:
        assert self.router is not None and self.metrics is not None
        counters = self.metrics.counters_as_dict()
        serving = counters.get("serving", {})
        maintenance = counters.get("maintenance", {})
        merge = self.router.stats()["merge_cache"] or {}
        return {
            "router.merge_cache_reused": merge.get("trees_reused", 0),
            "router.merge_cache_refreshed": merge.get("trees_refreshed", 0),
            "router.merge_cache_incremental": merge.get("incremental", 0),
            "router.merge_cache_full": merge.get("full_merges", 0),
            "router.cached_flag_mismatch": self.mismatches,
            "serving.cache_hits": serving.get("cache_hits", 0),
            "serving.cache_misses": serving.get("cache_misses", 0),
            "serving.hedged_subqueries": serving.get("hedged_subqueries", 0),
            "serving.publishes": serving.get("publishes", 0),
            "serving.wal_appends": serving.get("wal_appends", 0),
            "serving.checkpoints": serving.get("checkpoints", 0),
            "maintenance.point_tests": maintenance.get("point_tests", 0),
            "maintenance.region_tests": maintenance.get("region_tests", 0),
        }

    def verify(self) -> None:
        assert self.router is not None
        for version, (points, ids, got) in enumerate(self.versions):
            self.oracle_checks += 1
            want = _bnl_ids(points, ids)
            if got != want:
                self.fail(
                    f"round {version}: full skyline has {len(got)} ids, "
                    f"BNL over the alive union has {len(want)}"
                )
        # Every kind at the final version against one unsharded snapshot.
        single = DatasetRegistry()
        single.register(
            DATASET, self.alive_points.copy(), ids=self.alive_ids.copy(),
            codec=self.codec, drift=DriftPolicy.never(),
        )
        snapshot = single.snapshot(DATASET)
        for name, query in self.queries:
            self.oracle_checks += 1
            got = _canonical(self.router.query(query))
            want = _canonical(execute_on_snapshot(query, snapshot))
            if got != want:
                self.fail(f"final {name} answer differs from the snapshot")


# ----------------------------------------------------------------------
# stream-window-d4
# ----------------------------------------------------------------------
STREAM = "stream"


class StreamWorkload(Workload):
    name = "stream-window-d4"
    kinds = ("flush", "poll")

    def __init__(self, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        s = scale
        self.codec = ZGridCodec.grid_identity(s.stream_d, bits_per_dim=s.bits)
        self.seed_points = _grid(
            _rng(seed, 3), s.stream_seed_n, s.stream_d, s.bits
        )
        self.poll = Query.full(STREAM)
        self.prefill_batches = -(-s.stream_window // s.stream_batch)
        self.records_per_op = s.stream_batch
        self._home: Optional[str] = None
        self.service: Optional[SkylineService] = None
        self.feed: Optional[IngestFeed] = None
        #: every appended row by id (ids are sequential past the seed set)
        self.rows: List[np.ndarray] = []

    def inputs(self) -> List[np.ndarray]:
        return [self.seed_points, self.batch_rows(0), self.batch_rows(1)]

    def batch_rows(self, index: int) -> np.ndarray:
        s = self.scale
        return _grid(_rng(self.seed, 3, 1, index), s.stream_batch,
                     s.stream_d, s.bits)

    def _append_batch(self, rows: np.ndarray) -> None:
        assert self.feed is not None
        for row in rows:
            self.feed.append(row, point_id=self.next_id)
            self.rows.append(row)
            self.next_id += 1

    def setup(self) -> None:
        self.teardown()
        s = self.scale
        self._home = tempfile.mkdtemp(prefix="stream-", dir=self.workdir)
        self.metrics = MetricsRegistry()
        self.registry = DatasetRegistry(
            metrics=self.metrics, durability_dir=self._home
        )
        self.registry.register(
            STREAM, self.seed_points.copy(),
            ids=np.arange(s.stream_seed_n, dtype=np.int64),
            codec=self.codec, drift=DriftPolicy.never(),
        )
        self.hub = SubscriptionHub(metrics=self.metrics).attach(self.registry)
        manager = ContinuousQueryManager(metrics=self.metrics)
        manager.attach(self.registry)
        self.query = manager.register(
            "window", STREAM, WindowSpec.count(s.stream_window)
        )
        self.service = SkylineService(
            self.registry,
            config=ServiceConfig(admission=AdmissionConfig(read_concurrency=1)),
            metrics=self.metrics,
        )
        self.feed = IngestFeed(
            self.registry, STREAM, admission=self.service.admission,
            config=FeedConfig(batch_size=s.stream_batch, on_overload="block"),
            window=WindowSpec.count(s.stream_window), metrics=self.metrics,
        )
        self.next_id = s.stream_seed_n
        self.rows = []
        self.batches = 0
        for _ in range(self.prefill_batches):
            self._append_batch(self.batch_rows(self.batches))
            self.batches += 1
        self.sub = self.hub.subscribe(STREAM)
        self.events: List = []
        self.diff_ids = 0
        self.records = 0
        self.op_log = []
        #: (window ids, continuous skyline ids) snapshots for the oracle
        self.checks: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self._home is not None:
            shutil.rmtree(self._home, ignore_errors=True)
            self._home = None

    def step(self, rec: Recorder) -> None:
        rows = self.batch_rows(self.batches)
        self.batches += 1
        self.op_log.append(("flush", f"batch={rows.shape[0]}"))
        self.op_log.append(("poll", self.poll.fingerprint()))
        last = rows.shape[0] - 1
        drained = []
        with rec.op():
            self._append_batch(rows[:last])
            with rec.timed("flush"):
                self._append_batch(rows[last:])
                while True:
                    event = self.sub.get(timeout=0)
                    if event is None:
                        break
                    drained.append(event)
            with rec.timed("poll"):
                answer = self.service.query(self.poll)
        self.records += rows.shape[0]
        self.events.extend(drained)
        for event in drained:
            self.diff_ids += len(getattr(event, "entered_ids", ())) + len(
                getattr(event, "exited_ids", ())
            )
        if answer.version != self.registry.version(STREAM):
            self.fail(f"poll answered version {answer.version}, "
                      f"registry is at {self.registry.version(STREAM)}")
        if self.batches % self.scale.stream_check_every == 0:
            self._snapshot_check()

    def _snapshot_check(self) -> None:
        self.checks.append(
            (tuple(self.query.window_ids()), _ids(self.query.skyline_ids()))
        )

    def counts(self) -> Dict[str, float]:
        counters = self.metrics.counters_as_dict()
        serving = counters.get("serving", {})
        maintenance = counters.get("maintenance", {})
        streaming = counters.get("streaming", {})
        return {
            "serving.cache_hits": serving.get("cache_hits", 0),
            "serving.cache_misses": serving.get("cache_misses", 0),
            "serving.hedged_subqueries": serving.get("hedged_subqueries", 0),
            "serving.publishes": serving.get("publishes", 0),
            "serving.wal_appends": serving.get("wal_appends", 0),
            "serving.checkpoints": serving.get("checkpoints", 0),
            "maintenance.point_tests": maintenance.get("point_tests", 0),
            "maintenance.region_tests": maintenance.get("region_tests", 0),
            "streaming.diffs_published": streaming.get("diffs_published", 0),
            "streaming.diffs_coalesced": streaming.get("diffs_coalesced", 0),
            "streaming.full_syncs": streaming.get("full_syncs", 0),
            "streaming.diff_ids": self.diff_ids,
        }

    def verify(self) -> None:
        self._snapshot_check()
        rows = np.asarray(self.rows)
        first = self.scale.stream_seed_n
        for window, got in self.checks:
            self.oracle_checks += 1
            ids = np.asarray(window, dtype=np.int64)
            want = _bnl_ids(rows[ids - first], ids)
            if got != want:
                self.fail(
                    f"continuous skyline has {len(got)} ids, BNL over the "
                    f"window has {len(want)}"
                )
        self.oracle_checks += 1
        final = frozenset(
            int(i) for i in self.registry.snapshot(STREAM).sky_ids
        )
        rebuilt, _version = replay(
            self.events, self.sub.start_sky_ids, self.sub.start_version
        )
        if rebuilt != final:
            self.fail("replaying the subscriber's diffs does not rebuild "
                      "the final skyline")


WORKLOADS = {
    cls.name: cls for cls in (BatchWorkload, ServeWorkload, StreamWorkload)
}

"""Fault-tolerant sharded serving: scatter-gather over Z-range shards.

:class:`ShardedSkylineService` puts a coordinator in front of ``N``
independent :class:`~repro.serving.service.SkylineService` shards, each
owning one contiguous Z-address range of the dataset
(:class:`~repro.serving.shard.ShardMap` — the paper's equidepth
partitioning reused as a shard map).  Queries scatter to the shards
that can contribute, and every query kind then runs the single
service's own executor (:func:`~repro.serving.service.execute_on_snapshot`)
on a :class:`LogicalSnapshot` — a pinned, ``Snapshot``-compatible view
of the whole logical dataset:

* its skyline is one scan-order acceptance
  (:func:`~repro.zorder.zsearch.accept`) over the union of the
  per-shard skylines in ascending row-sum order, yielding exactly the
  global skyline (``full``, and ``topk`` ranks
  over it; ``kdominant`` computes on it, since the k-dominant skyline
  of a set is that of its skyline, so its view is never floor-masked);
* its alive set is the id-sorted union of the shard snapshots
  (``explain`` and the top-k dominance/representative scores count
  over it);
* ``subspace`` runs on a view of the union of per-shard subspace
  candidates (membership survives against fewer competitors, so the
  union of local answers always contains the global one).

Answers are cached once, at the coordinator, keyed by the pinned
version vector, the lost-shard set and the query fingerprint
(:class:`~repro.serving.cache.MergeCache`).

Robustness features, all seeded and replayable via
:class:`~repro.serving.faults.ServingFaultPlan`:

* **health checks** — a :class:`~repro.serving.health.HealthMonitor`
  heartbeats every shard into a per-shard
  :class:`~repro.serving.resilience.CircuitBreaker`; an open breaker
  drops the shard from the scatter set (certified partial answer)
  instead of stalling the query.  A false positive (lost heartbeat,
  shard actually fine) self-heals: the next probe let through closes
  the breaker.
* **hedged sub-queries** — a sub-query that has not answered within
  ``hedge_after_seconds`` gets a duplicate submission; first answer
  wins.  Straggler injection (``shard_slow``) makes this testable.
* **failover** — a crashed shard's replacement is cold-started from
  its durable home (checkpoint + WAL,
  :meth:`~repro.serving.registry.DatasetRegistry.adopt`) once its
  breaker's cooldown admits a probe; the republished snapshot is
  digest-checked against the pre-crash state
  (:meth:`~repro.serving.snapshot.Snapshot.state_digest`).
* **certified partial answers** — while shards are down, answers are
  computed over the live union and *masked* with the lost shards'
  Z-region floors (:func:`~repro.serving.shard.floor_dominated_mask`):
  what remains is a certified subset of the true answer, and the
  certificate carries the lost shards, their floor bounds, and the
  version vector so a client (or the benchmark's offline recompute)
  can verify the claim.
* **version-vector reads** — the coordinator pins ``{shard: version}``
  and the matching snapshot objects atomically (mutations publish the
  vector under the same lock), so a gathered answer never mixes shard
  states that were not simultaneously current; a sub-answer that
  raced a write is recomputed against its pinned snapshot
  (:func:`~repro.serving.service.execute_on_snapshot`).

Mutations route by the shard map (deletes via the coordinator's
id-owner table), are pre-checked against shard health so a batch is
not half-applied onto a known-dead shard, and resume idempotently if a
retry re-sends a partially applied batch.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, replace
from functools import cached_property
from time import monotonic, sleep
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DatasetError,
    ShardDownError,
)
from repro.core.point import GridRows, grid_dtype
from repro.observability.metrics import MetricsRegistry
from repro.serving.cache import MergeCache
from repro.serving.faults import ServingFaultPlan
from repro.serving.health import HealthMonitor
from repro.serving.registry import (
    SERVING_GROUP,
    DatasetRegistry,
    DriftPolicy,
    PublishResult,
)
from repro.serving.resilience import CircuitBreaker
from repro.serving.service import (
    Mutation,
    MutationResult,
    Query,
    QueryResult,
    ServiceConfig,
    SkylineService,
    _by_id,
    _Payload,
    execute_on_snapshot,
    snapshot_certificate,
)
from repro.serving.shard import (
    ShardMap,
    floor_dominated_mask,
    floor_k_dominated_mask,
)
from repro.serving.snapshot import Snapshot
from repro.zorder.encoding import ZGridCodec, quantize_dataset
from repro.zorder.zsearch import accept

__all__ = ["RouterConfig", "ShardedSkylineService"]

#: certificate kinds, least to most degraded (the worst shard wins)
_SEVERITY = {"fresh": 0, "stale": 1, "partial": 2}


def _sub_vector(
    vector: Dict[int, int], snaps: Dict[int, Snapshot]
) -> Dict[int, int]:
    """The version vector restricted to the pinned (answering) shards."""
    return {sid: int(vector[sid]) for sid in snaps}


@dataclass(frozen=True)
class RouterConfig:
    """Coordinator-level knobs."""

    num_shards: int = 4
    #: duplicate a sub-query not answered within this many seconds;
    #: 0 disables hedging
    hedge_after_seconds: float = 0.05
    #: failover (WAL re-adoption) attempts per shard before it is
    #: declared terminally lost
    failover_attempts: int = 2
    #: per-shard breaker: consecutive failures to open, cooldown before
    #: the half-open probe that gates failover / re-admission
    breaker_failure_threshold: int = 2
    breaker_cooldown_seconds: float = 0.05
    #: run one heartbeat round every this many operations (0 = only
    #: explicit ``health.tick()`` / the background thread)
    heartbeat_every_ops: int = 0
    #: snapshot retention ring per shard registry
    keep_versions: int = 8
    checkpoint_every: int = 8
    #: coordinator answer-cache entries (every kind, keyed by version
    #: vector + lost-shard set + query fingerprint; the merged skyline
    #: is the cached ``full`` answer); 0 disables the cache and every
    #: query re-merges
    merge_cache_entries: int = 256
    #: per-shard service knobs (admission, cache, intra-shard faults);
    #: one config shared by every shard service
    service_config: Optional[ServiceConfig] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.hedge_after_seconds < 0:
            raise ConfigurationError("hedge_after_seconds must be >= 0")
        if self.failover_attempts < 0:
            raise ConfigurationError("failover_attempts must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError(
                "breaker_failure_threshold must be >= 1"
            )
        if self.breaker_cooldown_seconds < 0:
            raise ConfigurationError(
                "breaker_cooldown_seconds must be >= 0"
            )
        if self.heartbeat_every_ops < 0:
            raise ConfigurationError("heartbeat_every_ops must be >= 0")
        if self.merge_cache_entries < 0:
            raise ConfigurationError("merge_cache_entries must be >= 0")


class _Shard:
    """Coordinator-side state of one shard slot."""

    __slots__ = (
        "sid", "durability_dir", "registry", "service", "breaker",
        "down", "terminal", "incarnation", "failovers",
        "pre_crash_digest", "last_failover_identical",
    )

    def __init__(
        self,
        sid: int,
        durability_dir: Optional[str],
        registry: DatasetRegistry,
        service: SkylineService,
        breaker: CircuitBreaker,
    ) -> None:
        self.sid = sid
        self.durability_dir = durability_dir
        self.registry: Optional[DatasetRegistry] = registry
        self.service: Optional[SkylineService] = service
        self.breaker = breaker
        self.down = False
        #: lost for good: no durable home, terminal fault schedule, or
        #: failover budget exhausted
        self.terminal = False
        self.incarnation = 0
        self.failovers = 0
        self.pre_crash_digest: Optional[str] = None
        self.last_failover_identical: Optional[bool] = None


class LogicalSnapshot:
    """A pinned, ``Snapshot``-compatible view of the logical dataset.

    Built over the shard snapshots one read pinned (mutually consistent
    under the version vector), so the single service's executors run on
    it unchanged.  ``version`` is the vector sum.  ``points``/``ids``
    are the id-sorted alive union (or, for subspace, the gathered
    per-shard candidates); ``sky_points``/``sky_ids`` the merged
    skyline with the lost shards' uncertain rows masked (``masked``
    counts them).  Both are computed on first access.
    """

    def __init__(
        self,
        router: "ShardedSkylineService",
        vector: Dict[int, int],
        snaps: Dict[int, Snapshot],
        lost: List[int],
        union: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.dataset = router.name
        self.codec = router.codec
        self.version = sum(vector.values())
        self._router = router
        self._vector = vector
        self._snaps = snaps
        self._lost = lost
        self._given_union = union

    @cached_property
    def _union(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._given_union is not None:
            return self._given_union
        return self._router._alive_union(self._snaps)

    @cached_property
    def _skyline(self) -> _Payload:
        return self._router._merged_entry(
            self._vector, self._snaps, self._lost
        )

    @property
    def points(self) -> np.ndarray:
        return self._union[0]

    @property
    def ids(self) -> np.ndarray:
        return self._union[1]

    @property
    def sky_points(self) -> np.ndarray:
        return self._skyline.points

    @property
    def sky_ids(self) -> np.ndarray:
        return self._skyline.ids

    @property
    def masked(self) -> int:
        return self._skyline.masked

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dimensions(self) -> int:
        return int(self.codec.dimensions)

    @property
    def skyline_size(self) -> int:
        return int(self.sky_ids.shape[0])

    def point_of(self, point_id: int) -> np.ndarray:
        row = np.flatnonzero(self.ids == int(point_id))
        if row.shape[0] == 0:
            raise DatasetError(
                f"point id {point_id} is not alive in "
                f"{self.dataset!r}@v{self.version}"
            )
        return self.points[int(row[0])]


class _RouterRegistryView:
    """Duck-typed stand-in for ``service.registry`` used by clients."""

    def __init__(self, router: "ShardedSkylineService") -> None:
        self._router = router

    def snapshot(self, name: str) -> LogicalSnapshot:
        return self._router._logical_snapshot(name)

    def version(self, name: str) -> int:
        self._router._check_dataset(name)
        return self._router.logical_version()


class ShardedSkylineService:
    """Scatter-gather skyline serving over Z-range shards.

    Construct with grid-resident points (like
    :meth:`DatasetRegistry.register <repro.serving.registry.DatasetRegistry.register>`)
    or via :meth:`from_dataset` for raw float data.  With
    ``durability_dir`` set, each shard gets its own WAL + checkpoint
    home under ``<durability_dir>/shard-<sid>/`` and crashed shards
    fail over; without it a crashed shard is terminally lost (answers
    stay certified-partial).
    """

    def __init__(
        self,
        name: str,
        points: np.ndarray,
        ids: Optional[np.ndarray] = None,
        codec: Optional[ZGridCodec] = None,
        config: Optional[RouterConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        durability_dir: Optional[str] = None,
        fault_plan: Optional[ServingFaultPlan] = None,
        drift: Optional[DriftPolicy] = None,
        tracer: Any = None,
    ) -> None:
        self.name = name
        self.config = config or RouterConfig()
        self.metrics = metrics
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.durability_dir = durability_dir
        self._drift = drift
        self._service_config = self.config.service_config or ServiceConfig()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise DatasetError("need a non-empty (n, d) point matrix")
        if ids is None:
            ids = np.arange(points.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        if codec is None:
            top = int(points.max()) if points.size else 1
            codec = ZGridCodec.grid_identity(
                points.shape[1], bits_per_dim=max(1, top.bit_length())
            )
        self.codec = codec
        self.map = ShardMap.fit(codec, points, self.config.num_shards)
        self._closed = False
        #: reentrant: mutations hold it across apply+publish; failover
        #: (which can trigger inside a mutation's health pre-check)
        #: takes it again to publish the recovered vector entry
        self._write_lock = threading.RLock()
        self._ops = 0
        self._ops_lock = threading.Lock()
        self._vector: Dict[int, int] = {}
        self._owner: Dict[int, int] = {}
        self._shards: Dict[int, _Shard] = {}
        for sid, (shard_pts, shard_ids) in sorted(
            self.map.split(points, ids).items()
        ):
            shard_dir = (
                os.path.join(durability_dir, f"shard-{sid}")
                if durability_dir is not None
                else None
            )
            registry = DatasetRegistry(
                metrics=metrics,
                keep_versions=self.config.keep_versions,
                durability_dir=shard_dir,
                checkpoint_every=self.config.checkpoint_every,
            )
            publish = registry.register(
                name, shard_pts, ids=shard_ids, codec=codec, drift=drift,
            )
            service = SkylineService(
                registry, config=self._service_config, metrics=metrics,
                tracer=tracer,
            )
            breaker = CircuitBreaker(
                f"{name}/shard-{sid}",
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_seconds=self.config.breaker_cooldown_seconds,
            )
            self._shards[sid] = _Shard(
                sid, shard_dir, registry, service, breaker
            )
            self._vector[sid] = publish.version
            for pid in shard_ids:
                self._owner[int(pid)] = sid
        #: the coordinator's one answer cache, keyed by the pinned
        #: version vector (+ lost set) and the query fingerprint
        self._merge_cache: Optional[MergeCache] = (
            MergeCache(self.config.merge_cache_entries)
            if self.config.merge_cache_entries > 0
            else None
        )
        self.registry = _RouterRegistryView(self)
        self.health = HealthMonitor(
            name,
            probe=self._probe_shard,
            breakers={
                sid: shard.breaker for sid, shard in self._shards.items()
            },
            fault_plan=fault_plan,
            metrics=metrics,
        )

    @classmethod
    def from_dataset(
        cls,
        name: str,
        dataset: Dataset,
        bits_per_dim: int = 12,
        **kwargs: Any,
    ) -> "ShardedSkylineService":
        """Quantise raw float data and shard the grid version."""
        snapped, codec = quantize_dataset(dataset, bits_per_dim=bits_per_dim)
        return cls(
            name, snapped.points, ids=snapped.ids, codec=codec, **kwargs
        )

    # ------------------------------------------------------------------
    # lifecycle / bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.health.stop()
        for shard in self._shards.values():
            if shard.service is not None:
                shard.service.close()

    def __enter__(self) -> "ShardedSkylineService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_dataset(self, name: str) -> None:
        if name != self.name:
            raise DatasetError(
                f"dataset {name!r} is not served here (serving "
                f"{self.name!r})"
            )

    def _count(self, counter: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, counter, value)

    def _next_op(self) -> int:
        with self._ops_lock:
            self._ops += 1
            return self._ops

    def logical_version(self) -> int:
        """Sum of the shard version vector — monotone under mutation,
        invariant under bit-identical failover."""
        with self._write_lock:
            return sum(self._vector.values())

    # ------------------------------------------------------------------
    # health / crash / failover machinery
    # ------------------------------------------------------------------
    def _probe_shard(self, sid: int) -> int:
        """Heartbeat path: liveness-check one shard, attempting
        failover of a down one (that is what a health prober is *for*;
        it also keeps down-shard probes from starving the breaker's
        half-open window)."""
        shard = self._shards[sid]
        if shard.down and not self._try_failover(shard, gated=False):
            raise ShardDownError(
                f"shard {sid} of {self.name!r} is down",
                dataset=self.name, shard=sid, terminal=shard.terminal,
            )
        assert shard.service is not None
        return shard.service.ping(self.name)

    def _inject_shard_faults(self, op: int) -> None:
        plan = self.fault_plan
        if plan is None or not plan.any_shard_faults:
            return
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            if shard.down or shard.service is None:
                continue
            if plan.shard_crashes(sid, op, shard.incarnation):
                self._crash_shard(shard)

    def _crash_shard(self, shard: _Shard) -> None:
        """Kill one shard: capture the pre-crash digest (the failover
        bit-identity oracle), drop its process state, trip its breaker
        so traffic routes around it immediately."""
        assert shard.registry is not None and shard.service is not None
        shard.pre_crash_digest = (
            shard.registry.snapshot(self.name).state_digest()
        )
        shard.service.close()
        shard.service = None
        shard.registry = None
        shard.down = True
        if shard.durability_dir is None or (
            self.fault_plan is not None
            and self.fault_plan.shard_terminal(shard.sid)
        ):
            shard.terminal = True
        shard.breaker.trip()
        self._count("shard_crashes")

    def _try_failover(self, shard: _Shard, gated: bool = True) -> bool:
        """Attempt to replace a down shard from its durable home.

        ``gated`` runs the attempt through the breaker's half-open
        window (the read path's behaviour: during cooldown, queries
        degrade to certified-partial instead of hammering recovery).
        Returns True when the shard is up afterwards.
        """
        if not shard.down:
            return True
        if shard.terminal:
            return False
        if gated:
            try:
                shard.breaker.allow()
            except CircuitOpenError:
                return False
        ok = self._adopt_replacement(shard)
        if ok:
            shard.breaker.record_success()
        else:
            shard.breaker.record_failure()
        return ok

    def _adopt_replacement(self, shard: _Shard) -> bool:
        if shard.failovers >= self.config.failover_attempts:
            shard.terminal = True
            self._count("shard_failover_exhausted")
            return False
        shard.failovers += 1
        try:
            registry = DatasetRegistry(
                metrics=self.metrics,
                keep_versions=self.config.keep_versions,
                durability_dir=shard.durability_dir,
                checkpoint_every=self.config.checkpoint_every,
            )
            publish = registry.adopt(self.name, drift=self._drift)
        except Exception:
            self._count("shard_failover_failed")
            return False
        service = SkylineService(
            registry, config=self._service_config, metrics=self.metrics,
            tracer=self.tracer,
        )
        digest = registry.snapshot(self.name).state_digest()
        identical = (
            shard.pre_crash_digest is None
            or digest == shard.pre_crash_digest
        )
        shard.last_failover_identical = identical
        shard.registry = registry
        shard.service = service
        shard.down = False
        shard.incarnation += 1
        with self._write_lock:
            self._vector[shard.sid] = publish.version
        self._count("shard_failovers")
        self._count(
            "shard_failover_identical"
            if identical
            else "shard_failover_divergent"
        )
        return True

    def _maybe_heartbeat(self, op: int) -> None:
        every = self.config.heartbeat_every_ops
        if every > 0 and op % every == 0:
            self.health.tick()

    # ------------------------------------------------------------------
    # the pinned read set
    # ------------------------------------------------------------------
    def _pin(
        self,
    ) -> Tuple[Dict[int, int], Dict[int, Snapshot], List[_Shard], List[int]]:
        """Atomically pin ``(version vector, per-shard snapshots)`` and
        split shards into alive (scatter targets) and lost (certified
        away).  Mutations publish under the same lock, so the pinned
        snapshots are mutually consistent — a gathered answer never
        mixes shard states that were not simultaneously current.

        An up shard whose breaker is open (heartbeat loss) is *lost for
        this query* — the alternative is stalling the answer on a shard
        the health layer distrusts.  The breaker's half-open probe lets
        one query through after cooldown; its success re-admits the
        shard (false positives self-heal through real traffic).
        """
        alive: List[_Shard] = []
        lost: List[int] = []
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            if shard.down and not self._try_failover(shard):
                lost.append(sid)
                continue
            try:
                shard.breaker.allow()
            except CircuitOpenError:
                self._count("shard_skipped_open")
                lost.append(sid)
                continue
            alive.append(shard)
        vector, snaps = self._pin_snapshots(alive)
        return vector, snaps, alive, lost

    def _pin_snapshots(
        self, shards: List[_Shard]
    ) -> Tuple[Dict[int, int], Dict[int, Snapshot]]:
        with self._write_lock:
            vector = dict(self._vector)
            snaps: Dict[int, Snapshot] = {}
            for shard in shards:
                assert shard.registry is not None
                snaps[shard.sid] = shard.registry.snapshot(self.name)
                vector[shard.sid] = snaps[shard.sid].version
        return vector, snaps

    def _sub_result(
        self,
        shard: _Shard,
        future: Future,
        query: Query,
        pinned: Snapshot,
    ) -> _Payload:
        """Gather one shard's sub-answer: hedge stragglers, then pin —
        a sub-answer that raced a concurrent write (its version differs
        from the pinned vector entry) is recomputed directly against
        the pinned snapshot."""
        hedge_after = self.config.hedge_after_seconds
        result: Optional[QueryResult] = None
        if hedge_after <= 0:
            result = future.result()
        else:
            try:
                result = future.result(timeout=hedge_after)
            except FutureTimeout:
                assert shard.service is not None
                self._count("hedged_subqueries")
                hedge = shard.service.submit(query)
                done, _ = wait_futures(
                    {future, hedge}, return_when=FIRST_COMPLETED
                )
                winner = hedge if hedge in done else future
                if winner is hedge:
                    self._count("hedge_wins")
                try:
                    result = winner.result()
                except Exception:
                    loser = future if winner is hedge else hedge
                    result = loser.result()
        assert result is not None
        if result.version != pinned.version:
            self._count("version_pinned_recomputes")
            return execute_on_snapshot(query, pinned)
        return _Payload(
            points=result.points,
            ids=result.ids,
            scores=result.scores,
            explanation=result.explanation,
        )

    def _scatter(
        self,
        query: Query,
        alive: List[_Shard],
        snaps: Dict[int, Snapshot],
        op: int,
    ) -> Tuple[List[Tuple[int, _Payload]], List[int]]:
        """Fan ``query`` out to the alive shards and gather.

        A shard that fails mid-query joins the lost set (this query
        degrades to certified-partial for its region) and feeds its
        breaker.  Returns ``(per-shard payloads, newly lost sids)``.
        """
        plan = self.fault_plan
        futures: List[Tuple[_Shard, Optional[Future]]] = []
        for shard in alive:
            slow = (
                plan.shard_slow(shard.sid, op)
                if plan is not None
                else 0.0
            )
            assert shard.service is not None
            try:
                future = shard.service.submit(query)
            except Exception:
                futures.append((shard, None))
                continue
            if slow > 0:
                self._count("shard_slow_injected")
                future = _delayed_future(future, slow)
            futures.append((shard, future))
        payloads: List[Tuple[int, _Payload]] = []
        newly_lost: List[int] = []
        for shard, future in futures:
            if future is None:
                shard.breaker.record_failure()
                newly_lost.append(shard.sid)
                continue
            try:
                payload = self._sub_result(
                    shard, future, query, snaps[shard.sid]
                )
            except Exception:
                shard.breaker.record_failure()
                newly_lost.append(shard.sid)
                continue
            shard.breaker.record_success()
            payloads.append((shard.sid, payload))
        return payloads, newly_lost

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def _empty(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.empty((0, self.codec.dimensions), dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    def _alive_union(
        self, snaps: Dict[int, Snapshot]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All alive rows across the pinned shard snapshots, id-sorted
        (canonical, so order-sensitive downstream code is shard-count
        invariant)."""
        if not snaps:
            return self._empty()
        pts = np.vstack([snaps[sid].points for sid in sorted(snaps)])
        ids = np.concatenate([snaps[sid].ids for sid in sorted(snaps)])
        return _by_id(pts, ids)

    def _union_candidates(
        self, candidates: List[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not candidates:
            return self._empty()
        return (
            np.vstack([p for p, _ in candidates]),
            np.concatenate([i for _, i in candidates]),
        )

    def _merged_entry(
        self,
        vector: Dict[int, int],
        snaps: Dict[int, Snapshot],
        lost: List[int],
    ) -> _Payload:
        """The merged, masked, id-sorted skyline for exactly this
        version vector (restricted to the shards in ``snaps``) — the
        logical ``full`` answer, read from and stored under the ``full``
        key of the coordinator cache, so every kind pinned to the same
        vector shares one merge.

        The merge scans the union of the shard skylines in stable
        ascending row-sum order and keeps the rows no earlier row
        dominates: a dominator has the strictly smaller sum, so it is
        always scanned first."""
        sub_vector = _sub_vector(vector, snaps)
        full = Query.full(self.name)
        cache = self._merge_cache
        if cache is not None:
            cached = cache.get(sub_vector, lost, full)
            if cached is not None:
                return cached
        pts, ids = self._union_candidates(
            [(snaps[sid].sky_points, snaps[sid].sky_ids) for sid in sorted(snaps)]
        )
        grid = GridRows.of(pts, grid_dtype(self.codec.cells_per_dim - 1))
        order = np.argsort(grid.sums, kind="stable")
        keep = order[accept(grid[order])]
        pts, ids = _by_id(pts[keep], ids[keep])
        pts, ids, masked = self._mask_lost(pts, ids, lost)
        payload = _Payload(points=pts, ids=ids, masked=masked)
        if cache is not None:
            cache.store(sub_vector, lost, full, payload)
        return payload

    # ------------------------------------------------------------------
    # public query path
    # ------------------------------------------------------------------
    def query(
        self, request: Query, timeout: Optional[float] = None
    ) -> QueryResult:
        if self._closed:
            raise ConfigurationError("router is closed")
        request.validate()
        self._check_dataset(request.dataset)
        op = self._next_op()
        self._inject_shard_faults(op)
        self._maybe_heartbeat(op)
        started = monotonic()
        vector, snaps, alive, lost = self._pin()
        if request.kind == "explain" and request.point_id is not None:
            owner = self._owner.get(int(request.point_id))
            if owner is not None and owner in lost:
                raise ShardDownError(
                    f"point id {request.point_id} lives on down shard "
                    f"{owner} of {self.name!r}",
                    dataset=self.name, shard=owner,
                    terminal=self._shards[owner].terminal,
                    retry_after_seconds=(
                        self.config.breaker_cooldown_seconds
                    ),
                )
        # The pinned vector (+ lost set) is the cache identity: a hit
        # skips the scatter, and was computed from the exact same shard
        # states, so the answer is bit-identical by construction.
        cache = self._merge_cache
        payload = (
            cache.get(_sub_vector(vector, snaps), lost, request)
            if cache is not None
            else None
        )
        cached = payload is not None
        if payload is None:
            payload, snaps, lost = self._execute(
                request, vector, snaps, alive, lost, op
            )
            if cache is not None:
                cache.store(_sub_vector(vector, snaps), lost, request, payload)
        certificate = self._logical_certificate(
            vector, snaps, lost, payload.masked
        )
        if certificate["kind"] == "partial":
            self._count("shard_queries_partial")
        if (
            request.kind == "explain"
            and lost
            and payload.explanation is not None
        ):
            floors = self.map.floors(lost)
            point = np.asarray(
                payload.explanation.point, dtype=np.float64
            )
            if bool(
                floor_dominated_mask(point.reshape(1, -1), floors)[0]
            ):
                # A lost shard *could* hold a dominator of this point:
                # the membership verdict is uncertain.
                certificate["explain_uncertain"] = True
        return QueryResult(
            kind=request.kind,
            dataset=self.name,
            version=sum(vector.values()),
            points=payload.points,
            ids=payload.ids,
            scores=payload.scores,
            explanation=payload.explanation,
            live_member=None,
            cached=cached,
            queue_wait_seconds=0.0,
            service_seconds=monotonic() - started,
            certificate=certificate,
        )

    def _execute(
        self,
        request: Query,
        vector: Dict[int, int],
        snaps: Dict[int, Snapshot],
        alive: List[_Shard],
        lost: List[int],
        op: int,
    ) -> Tuple[_Payload, Dict[int, Snapshot], List[int]]:
        """Compute one answer with the single service's executor on the
        pinned :class:`LogicalSnapshot`, then certify it against the
        lost shards.

        ``full``/``topk`` scatter a full sub-query and ``subspace`` its
        own (the shards answer from their caches; the scatter is also
        where mid-query shard loss is detected); subspace then runs on
        the union of the gathered candidates.  Returns ``(payload,
        answering snapshots, lost sids)``."""
        union = None
        if request.kind in ("full", "subspace", "topk"):
            sub_query = (
                Query.full(self.name, timeout_seconds=request.timeout_seconds)
                if request.kind == "topk"
                else request
            )
            payloads, newly_lost = self._scatter(sub_query, alive, snaps, op)
            lost = sorted(lost + newly_lost)
            snaps = {sid: snaps[sid] for sid, _ in payloads}
            if request.kind == "subspace":
                union = self._union_candidates(
                    [(p.points, p.ids) for _sid, p in payloads]
                )
        # k-dominant runs on the view's skyline, which must be the exact
        # skyline of the live union: its view is the unmasked merge
        # (cached under the live shards' own sub-vector key), and the
        # lost-floor k-mask below certifies the answer.
        view_lost = [] if request.kind == "kdominant" else lost
        view = LogicalSnapshot(self, vector, snaps, view_lost, union)
        payload = execute_on_snapshot(request, view)
        if request.kind == "subspace":
            pts, ids, masked = self._mask_lost(
                payload.points, payload.ids, lost, dims=list(request.dims)
            )
        elif request.kind == "kdominant":
            pts, ids, masked = self._mask_lost(
                payload.points, payload.ids, lost, k=request.k
            )
        else:
            masked = view.masked if request.kind in ("full", "topk") else 0
            return replace(payload, masked=masked), snaps, lost
        return _Payload(points=pts, ids=ids, masked=masked), snaps, lost

    def _mask_lost(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        lost: List[int],
        dims: Optional[List[int]] = None,
        k: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Certify a merged answer against the lost shards' floors:
        drop every point a lost shard *could* still dominate.  Returns
        ``(points, ids, masked_count)``."""
        if not lost or ids.shape[0] == 0:
            return points, ids, 0
        floors = self.map.floors(lost)
        if k is not None:
            mask = floor_k_dominated_mask(points, floors, k)
        elif dims is not None:
            mask = floor_dominated_mask(
                points[:, dims], floors[:, dims]
            )
        else:
            mask = floor_dominated_mask(points, floors)
        if not mask.any():
            return points, ids, 0
        keep = ~mask
        pts = points[keep].copy()
        out_ids = ids[keep].copy()
        pts.setflags(write=False)
        out_ids.setflags(write=False)
        return pts, out_ids, int(mask.sum())

    def _logical_certificate(
        self,
        vector: Dict[int, int],
        snaps: Dict[int, Snapshot],
        lost: List[int],
        masked: int,
    ) -> Dict[str, Any]:
        """Provenance of a gathered answer: the worst of the single
        service's certificates over the answering shard snapshots
        (``stale`` while a shard's writer is down, ``partial`` on a
        snapshot whose WAL replay dropped a torn tail), and ``partial``
        when any shard is certified away (the certificate then carries
        the floors a verifier needs)."""
        kind = "fresh"
        stale_shards: List[int] = []
        partial_shards: List[int] = []
        for sid in sorted(snaps):
            registry = self._shards[sid].registry
            if registry is None:
                continue
            try:
                status = registry.writer_status(self.name)
            except DatasetError:
                continue
            shard_cert = snapshot_certificate(snaps[sid], status)
            if shard_cert.get("writer_down"):
                stale_shards.append(sid)
            if shard_cert["kind"] == "partial":
                partial_shards.append(sid)
            if _SEVERITY[shard_cert["kind"]] > _SEVERITY[kind]:
                kind = shard_cert["kind"]
        if lost:
            kind = "partial"
        certificate: Dict[str, Any] = {
            "kind": kind,
            "version": sum(vector.values()),
            "version_vector": {
                str(sid): int(v) for sid, v in sorted(vector.items())
            },
        }
        if stale_shards:
            certificate["stale_shards"] = stale_shards
        if partial_shards:
            certificate["partial_shards"] = partial_shards
        if lost:
            certificate["scope"] = "shards"
            certificate["lost_shards"] = list(lost)
            certificate["floors"] = [
                [float(v) for v in self.map.floor(sid)] for sid in lost
            ]
            certificate["masked"] = int(masked)
        return certificate

    # ------------------------------------------------------------------
    # public write path
    # ------------------------------------------------------------------
    def mutate(
        self, request: Mutation, timeout: Optional[float] = None
    ) -> MutationResult:
        if self._closed:
            raise ConfigurationError("router is closed")
        request.validate()
        self._check_dataset(request.dataset)
        op = self._next_op()
        self._inject_shard_faults(op)
        self._maybe_heartbeat(op)
        started = monotonic()
        with self._write_lock:
            if request.kind == "insert":
                assert request.points is not None and request.ids is not None
                parts: Dict[int, Tuple[Optional[np.ndarray], np.ndarray]] = {
                    sid: (pts, ids)
                    for sid, (pts, ids) in self.map.split(
                        request.points, request.ids
                    ).items()
                }
            else:
                assert request.ids is not None
                by_shard: Dict[int, List[int]] = {}
                missing = [
                    int(pid)
                    for pid in request.ids
                    if int(pid) not in self._owner
                ]
                if missing:
                    # Reject before touching any shard — the resume
                    # filter would otherwise mistake a never-owned id
                    # for an already-applied retry and skip it silently.
                    raise DatasetError(
                        f"point ids not alive: {missing}"
                    )
                for pid in request.ids:
                    by_shard.setdefault(
                        self._owner[int(pid)], []
                    ).append(int(pid))
                parts = {
                    sid: (None, np.asarray(pids, dtype=np.int64))
                    for sid, pids in by_shard.items()
                }
            # Health pre-check: refuse up front rather than half-apply
            # onto a shard we already know is dead.
            for sid in sorted(parts):
                shard = self._shards[sid]
                if shard.down and not self._try_failover(shard):
                    self._count("mutations_rejected_shard_down")
                    raise ShardDownError(
                        f"shard {sid} of {self.name!r} is down; "
                        f"{'terminal' if shard.terminal else 'failover pending'}",
                        dataset=self.name,
                        shard=sid,
                        terminal=shard.terminal,
                        retry_after_seconds=(
                            None
                            if shard.terminal
                            else self.config.breaker_cooldown_seconds
                        ),
                    )
            results: List[MutationResult] = []
            rebuilt = False
            for sid in sorted(parts):
                shard = self._shards[sid]
                assert shard.service is not None
                pts, ids = parts[sid]
                sub = self._resume_filter(shard, request.kind, pts, ids)
                if sub is None:
                    continue
                pts, ids = sub
                if request.kind == "insert":
                    mutation = Mutation.insert(
                        self.name, pts, ids,
                        timeout_seconds=request.timeout_seconds,
                    )
                else:
                    mutation = Mutation.delete(
                        self.name, ids,
                        timeout_seconds=request.timeout_seconds,
                    )
                try:
                    result = shard.service.mutate(mutation)
                except Exception:
                    # Partial application: earlier shards committed
                    # (their WALs have the sub-batches); a retry
                    # resumes idempotently via _resume_filter.
                    shard.breaker.record_failure()
                    self._count("mutations_partial_failures")
                    raise
                shard.breaker.record_success()
                self._vector[sid] = result.publish.version
                rebuilt = rebuilt or result.publish.rebuilt
                if request.kind == "insert":
                    for pid in ids:
                        self._owner[int(pid)] = sid
                else:
                    for pid in ids:
                        self._owner.pop(int(pid), None)
                results.append(result)
            size = 0
            skyline_size = 0
            for sid in sorted(self._shards):
                shard = self._shards[sid]
                if shard.registry is None:
                    continue
                snap = shard.registry.snapshot(self.name)
                size += snap.size
                # Sum of shard skylines: an upper bound on the global
                # skyline size (cross-shard dominance not yet folded).
                skyline_size += snap.skyline_size
            publish = PublishResult(
                dataset=self.name,
                version=sum(self._vector.values()),
                size=size,
                skyline_size=skyline_size,
                rebuilt=rebuilt,
            )
        return MutationResult(
            publish=publish,
            queue_wait_seconds=max(
                (r.queue_wait_seconds for r in results), default=0.0
            ),
            service_seconds=monotonic() - started,
        )

    def _resume_filter(
        self,
        shard: _Shard,
        kind: str,
        pts: Optional[np.ndarray],
        ids: np.ndarray,
    ) -> Optional[Tuple[Optional[np.ndarray], np.ndarray]]:
        """Idempotent-resume backstop for retried batches: skip inserts
        already alive on their shard and deletes of ids no longer owned
        (a previous attempt applied them before failing on a later
        shard).  None = nothing left for this shard."""
        assert shard.registry is not None
        snap = shard.registry.snapshot(self.name)
        alive = np.isin(ids, snap.ids)
        fresh = ~alive if kind == "insert" else alive
        if fresh.all():
            return pts, ids
        self._count("mutations_resumed")
        if not fresh.any():
            return None
        return (
            pts[fresh] if pts is not None else None,
            ids[fresh],
        )

    # ------------------------------------------------------------------
    # registry-view / introspection
    # ------------------------------------------------------------------
    def _logical_snapshot(self, name: str) -> LogicalSnapshot:
        """The registry view: every up shard pinned (no breaker gating —
        this is introspection, not a query), down shards masked as
        lost."""
        self._check_dataset(name)
        up = [
            self._shards[sid]
            for sid in sorted(self._shards)
            if self._shards[sid].registry is not None
        ]
        vector, snaps = self._pin_snapshots(up)
        lost = [sid for sid in sorted(self._shards) if sid not in snaps]
        return LogicalSnapshot(self, vector, snaps, lost)

    def ping(self, dataset: str) -> int:
        self._check_dataset(dataset)
        if self._closed:
            raise ConfigurationError("router is closed")
        return self.logical_version()

    def shard_states(self) -> Dict[int, Dict[str, Any]]:
        out: Dict[int, Dict[str, Any]] = {}
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            out[sid] = {
                "down": shard.down,
                "terminal": shard.terminal,
                "incarnation": shard.incarnation,
                "failovers": shard.failovers,
                "breaker": shard.breaker.state,
                "version": self._vector.get(sid),
                "last_failover_identical": shard.last_failover_identical,
            }
        return out

    def shard_admission_stats(self) -> Dict[int, Dict[str, Dict[str, int]]]:
        """Per-shard admission counters (read/mutate classes): the raw
        material for shed-rate fairness in
        :class:`~repro.serving.client.ReplayReport`.  Down shards are
        omitted (their controllers died with the service)."""
        out: Dict[int, Dict[str, Dict[str, int]]] = {}
        for sid in sorted(self._shards):
            shard = self._shards[sid]
            if shard.service is None:
                continue
            out[sid] = shard.service.admission.stats()
        return out

    def stats(self) -> Dict[str, Any]:
        with self._write_lock:
            vector = {
                str(sid): int(v) for sid, v in sorted(self._vector.items())
            }
        return {
            "dataset": self.name,
            "shard_map": self.map.describe(),
            "logical_version": sum(int(v) for v in vector.values()),
            "version_vector": vector,
            "shards": self.shard_states(),
            "health": self.health.status(),
            "operations": self._ops,
            "merge_cache": (
                self._merge_cache.stats()
                if self._merge_cache is not None
                else None
            ),
        }

    def __repr__(self) -> str:
        down = sum(1 for s in self._shards.values() if s.down)
        return (
            f"ShardedSkylineService({self.name!r}, "
            f"shards={self.num_shards}, down={down})"
        )


def _delayed_future(future: Future, delay: float) -> Future:
    """A future resolving ``delay`` seconds after ``future`` does — the
    injected straggler: the shard computed fine, its answer is late."""
    out: Future = Future()

    def _chain(done: Future) -> None:
        def _deliver() -> None:
            sleep(delay)
            exc = done.exception()
            if exc is not None:
                out.set_exception(exc)
            else:
                out.set_result(done.result())

        threading.Thread(target=_deliver, daemon=True).start()

    future.add_done_callback(_chain)
    return out

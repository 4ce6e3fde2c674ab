"""The :class:`DatasetRegistry`: named datasets as versioned snapshots.

The registry is the serving layer's write path.  Each registered
dataset has

* a live :class:`~repro.maintenance.maintainer.SkylineMaintainer`
  (the incremental index — inserts are Z-merge folds, deletes
  re-promote shadowed points), owned exclusively by the writer;
* a current immutable :class:`~repro.serving.snapshot.Snapshot`,
  republished atomically after every mutation batch (readers never
  block writers; a reader holding version N keeps reading version N);
* a :class:`DriftPolicy` bounding how much incremental delete churn is
  tolerated before the skyline is recomputed from scratch (one Z-search
  over a freshly built ZB-tree, inline in the writer), so incremental
  error can never compound silently;
* optionally, a durable home (:class:`~repro.serving.wal.DatasetStore`):
  every mutation batch is appended to a CRC32-framed WAL *before* it is
  applied, and the full state is checkpointed (tmp+rename) every
  ``checkpoint_every`` publishes.  A crashed writer recovers by
  replaying WAL-onto-last-durable-snapshot (:meth:`recover`), and the
  republished snapshot is bit-identical — same alive set, same skyline,
  same version — to the uninterrupted run.

While a writer is down (a real crash, or one injected by a
:class:`~repro.serving.faults.ServingFaultPlan`), reads keep serving
the last published snapshot — bounded staleness, never an error — and
mutations fail fast with a typed
:class:`~repro.core.exceptions.WriterDownError` whose ``applied`` field
tells the caller whether the batch already reached the durable WAL
(and will therefore take effect on recovery).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    WriterDownError,
    ZOrderError,
)
from repro.maintenance.maintainer import BatchDelta, SkylineMaintainer
from repro.observability.metrics import MetricsRegistry
from repro.serving.faults import ServingFaultPlan
from repro.serving.snapshot import Snapshot
from repro.serving.wal import DatasetStore, WalRecord
from repro.zorder.encoding import ZGridCodec, quantize_dataset

#: metrics group for registry-level events
SERVING_GROUP = "serving"

#: default retry-after hint handed to writers while the writer is down
_WRITER_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class DriftPolicy:
    """When does accumulated delete churn force a full rebuild?

    Each delete of an existing point counts toward the drift budget;
    the budget resets on every full rebuild.  Either bound may be
    ``None`` (unbounded); with both ``None`` the policy is pure
    incremental maintenance (:meth:`never`).
    """

    #: absolute number of deleted records tolerated since last rebuild
    max_deletes: Optional[int] = None
    #: deleted records as a fraction of the current alive set size
    max_delete_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_deletes is not None and self.max_deletes < 0:
            raise ConfigurationError("max_deletes must be >= 0")
        if self.max_delete_fraction is not None and not (
            self.max_delete_fraction >= 0.0
        ):
            raise ConfigurationError("max_delete_fraction must be >= 0")

    @classmethod
    def never(cls) -> "DriftPolicy":
        """Pure incremental maintenance: no rebuild, ever."""
        return cls()

    @classmethod
    def bounded(
        cls,
        max_deletes: Optional[int] = None,
        max_delete_fraction: Optional[float] = 0.25,
    ) -> "DriftPolicy":
        """The default serving policy: rebuild once deletes since the
        last rebuild exceed 25% of the alive set (or an absolute cap)."""
        return cls(
            max_deletes=max_deletes,
            max_delete_fraction=max_delete_fraction,
        )

    def should_rebuild(self, deletes_since: int, alive: int) -> bool:
        if self.max_deletes is not None and deletes_since > self.max_deletes:
            return True
        if (
            self.max_delete_fraction is not None
            and alive > 0
            and deletes_since > self.max_delete_fraction * alive
        ):
            return True
        return False


@dataclass(frozen=True)
class PublishResult:
    """Outcome of one mutation batch: the newly published version."""

    dataset: str
    version: int
    size: int
    skyline_size: int
    #: did this publish include a full drift rebuild?
    rebuilt: bool = False
    #: did this publish come from WAL replay after a crash?
    recovered: bool = False


class _DatasetState:
    """Writer-side state of one registered dataset."""

    __slots__ = (
        "name", "codec", "maintainer", "snapshot", "lock",
        "drift", "deletes_since_rebuild", "history",
        "store", "writer_down", "pending_batches",
        "publishes_since_checkpoint", "recoveries",
    )

    def __init__(
        self,
        name: str,
        codec: ZGridCodec,
        drift: DriftPolicy,
        keep_versions: int,
    ) -> None:
        self.name = name
        self.codec = codec
        #: set by register() or recover(); None while the writer is down
        self.maintainer: Optional[SkylineMaintainer] = None
        self.snapshot: Optional[Snapshot] = None
        self.lock = threading.Lock()
        self.drift = drift
        self.deletes_since_rebuild = 0
        self.history: Deque[Snapshot] = deque(maxlen=max(1, keep_versions))
        self.store: Optional[DatasetStore] = None
        self.writer_down = False
        #: durable-but-unpublished WAL batches (crash between WAL
        #: append and publish)
        self.pending_batches = 0
        self.publishes_since_checkpoint = 0
        self.recoveries = 0


class DatasetRegistry:
    """Named, versioned, concurrently readable skyline datasets.

    All mutation goes through :meth:`insert` / :meth:`delete`, which
    serialise per dataset behind a writer lock and publish a fresh
    snapshot atomically.  Reads (:meth:`snapshot`) are a single
    attribute load and never block on writers.

    ``durability_dir`` turns on the WAL + checkpoint store (one
    subdirectory per dataset); ``fault_plan`` arms seeded writer-crash
    injection for chaos testing.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        keep_versions: int = 3,
        durability_dir: Optional[str] = None,
        checkpoint_every: int = 8,
        fault_plan: Optional[ServingFaultPlan] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        self.metrics = metrics
        self._keep_versions = keep_versions
        self.durability_dir = durability_dir
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        self._states: Dict[str, _DatasetState] = {}
        self._lock = threading.Lock()
        #: called with each freshly published Snapshot (see
        #: add_publish_hook for the contract)
        self._publish_hooks: List[Callable[[Snapshot], None]] = []

    @property
    def durable(self) -> bool:
        return self.durability_dir is not None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        points: np.ndarray,
        ids: Optional[np.ndarray] = None,
        codec: Optional[ZGridCodec] = None,
        drift: Optional[DriftPolicy] = None,
    ) -> PublishResult:
        """Register grid-resident points as version 1 of ``name``.

        ``points`` must already hold integer grid coordinates for
        ``codec`` (like everywhere else in the z-order stack); use
        :meth:`register_dataset` for raw float data.  The initial
        skyline is computed with the same recompute drift rebuilds use.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise DatasetError("need a non-empty (n, d) point matrix")
        n, d = points.shape
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,) or len(np.unique(ids)) != n:
                raise DatasetError("ids must be unique, one per point")
        if codec is None:
            top = int(points.max()) if points.size else 1
            bits = max(1, top.bit_length())
            codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        if codec.dimensions != d:
            raise DatasetError(
                f"codec is {codec.dimensions}-D but points are {d}-D"
            )
        try:
            codec.check_grid(points)
        except ZOrderError as exc:
            raise DatasetError(
                f"{exc} — quantise first (see register_dataset)"
            ) from exc
        state = _DatasetState(
            name, codec, drift or DriftPolicy.bounded(), self._keep_versions
        )
        # Build the whole version-1 state before the name becomes
        # visible, so a reader can never observe a half-registered
        # dataset.
        state.maintainer = SkylineMaintainer.from_points(
            codec, points, ids, metrics=self.metrics
        )
        if self.durable:
            state.store = DatasetStore(self.durability_dir, name)
        result = self._publish(state, rebuilt=False)
        if state.store is not None:
            # Version 1 is the recovery baseline: checkpoint it (and
            # start an empty WAL) before the dataset becomes visible.
            self._checkpoint(state)
        with self._lock:
            if name in self._states:
                raise ConfigurationError(
                    f"dataset {name!r} is already registered"
                )
            self._states[name] = state
        return result

    def register_dataset(
        self,
        name: str,
        dataset: Dataset,
        bits_per_dim: int = 12,
        drift: Optional[DriftPolicy] = None,
    ) -> PublishResult:
        """Quantise a raw float dataset and register the grid version."""
        snapped, codec = quantize_dataset(dataset, bits_per_dim=bits_per_dim)
        return self.register(
            name,
            snapped.points,
            ids=snapped.ids,
            codec=codec,
            drift=drift,
        )

    # ------------------------------------------------------------------
    # publish hooks
    # ------------------------------------------------------------------
    def add_publish_hook(
        self, hook: Callable[[Snapshot], None]
    ) -> None:
        """Call ``hook(snapshot)`` after every snapshot publication.

        The contract is strict, because hooks run on the writer thread
        *under the dataset's writer lock*, immediately after the
        atomic snapshot swap (readers already see the new version):

        * a hook must be fast — O(diff computation), never O(dataset) —
          and must never block on consumers (hand off to bounded,
          non-blocking queues; see ``repro.streaming.hub``);
        * a hook must not call back into mutation or writer-lock-taking
          registry APIs (``insert``/``delete``/``snapshot_at``/
          ``recover``) — ``snapshot()`` is safe;
        * a hook exception is contained: counted in
          ``serving.publish_hook_errors``, never unpublishing the
          version or failing the mutation.

        Hooks also fire for recovery/adopt republishes (same dataset,
        same or reconstructed version) — consumers use the snapshot's
        version to recognise replays.
        """
        with self._lock:
            self._publish_hooks.append(hook)

    def remove_publish_hook(
        self, hook: Callable[[Snapshot], None]
    ) -> None:
        with self._lock:
            try:
                self._publish_hooks.remove(hook)
            except ValueError:
                pass

    def _notify_publish(self, snapshot: Snapshot) -> None:
        with self._lock:
            hooks = list(self._publish_hooks)
        for hook in hooks:
            try:
                hook(snapshot)
            except Exception:
                if self.metrics is not None:
                    self.metrics.inc(SERVING_GROUP, "publish_hook_errors")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._states)

    def _state(self, name: str) -> _DatasetState:
        with self._lock:
            state = self._states.get(name)
        if state is None:
            raise DatasetError(f"dataset {name!r} is not registered")
        return state

    def snapshot(self, name: str) -> Snapshot:
        """The current snapshot (an atomic attribute read; never blocks
        on writers)."""
        snapshot = self._state(name).snapshot
        assert snapshot is not None  # set before registration returns
        return snapshot

    def snapshot_at(self, name: str, version: int) -> Snapshot:
        """A recent retained version (the retention ring is small; old
        versions a reader still references remain valid regardless)."""
        state = self._state(name)
        with state.lock:
            for snap in state.history:
                if snap.version == version:
                    return snap
        raise DatasetError(
            f"version {version} of {name!r} is no longer retained"
        )

    def version(self, name: str) -> int:
        return self.snapshot(name).version

    def is_skyline_member(self, name: str, point_id: int) -> bool:
        """Live skyline membership (the maintainer's cached id-set).

        Falls back to the last published snapshot's skyline while the
        writer is down (bounded staleness, same as every other read).
        """
        state = self._state(name)
        with state.lock:
            if state.maintainer is not None:
                return state.maintainer.is_skyline_member(point_id)
        snapshot = self.snapshot(name)
        if snapshot.row_of(point_id) is None:
            raise DatasetError(f"point id {point_id} is not alive")
        return bool(np.any(snapshot.sky_ids == int(point_id)))

    def writer_status(self, name: str) -> Dict[str, Any]:
        """Typed writer-health snapshot (feeds query certificates).

        Deliberately lock-free: each field is a single atomic attribute
        read, so the read path never blocks behind an in-flight
        mutation (a momentarily stale answer is fine — the certificate
        describes the serving regime, not a transaction).
        """
        state = self._state(name)
        snapshot = state.snapshot
        return {
            "writer_down": state.writer_down,
            "pending_batches": state.pending_batches,
            "recoveries": state.recoveries,
            "published_version": snapshot.version if snapshot else 0,
        }

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(
        self, name: str, points: np.ndarray, ids: Sequence[int]
    ) -> PublishResult:
        """Insert a batch and publish the next version."""
        state = self._state(name)
        with state.lock:
            self._require_writer(state)
            return self._mutate(state, "insert", points, ids)

    def delete(self, name: str, ids: Sequence[int]) -> PublishResult:
        """Delete a batch by id and publish the next version."""
        state = self._state(name)
        with state.lock:
            self._require_writer(state)
            return self._mutate(state, "delete", None, ids)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def adopt(
        self,
        name: str,
        drift: Optional[DriftPolicy] = None,
    ) -> PublishResult:
        """Cold-start ``name`` from its durable home (checkpoint + WAL).

        :meth:`recover` heals a writer *within* a live registry; adopt
        is for when the whole owning process died — a fresh registry
        (pointed at the same ``durability_dir``) takes the dataset over
        by loading the checkpoint, replaying the WAL, and publishing the
        same bit-identical snapshot recovery would have.  This is what
        shard failover uses to stand up a replacement shard.
        """
        if not self.durable:
            raise ConfigurationError(
                "adopt() requires DatasetRegistry(durability_dir=...)"
            )
        store = DatasetStore(self.durability_dir, name)
        baseline = store.load_checkpoint()
        if baseline is None:
            raise ConfigurationError(
                f"dataset {name!r} has no durable checkpoint to adopt"
            )
        state = _DatasetState(
            name,
            baseline.codec,
            drift or DriftPolicy.bounded(),
            self._keep_versions,
        )
        state.store = store
        state.writer_down = True
        with self._lock:
            if name in self._states:
                raise ConfigurationError(
                    f"dataset {name!r} is already registered"
                )
            self._states[name] = state
        try:
            return self.recover(name)
        except BaseException:
            with self._lock:
                self._states.pop(name, None)
            raise

    def recover(self, name: str) -> PublishResult:
        """Replay WAL-onto-last-durable-checkpoint and republish.

        Rebuilds the writer's in-memory state from the durable baseline,
        re-applies every WAL batch beyond it (dropping at most one torn
        tail frame — a crash mid-append of an unacknowledged batch),
        republishes a snapshot bit-identical to the uninterrupted run at
        the same version, checkpoints the recovered state, and brings
        the writer back up.  Idempotent: recovering a healthy durable
        dataset is a no-op republish of the current version.
        """
        state = self._state(name)
        with state.lock:
            if state.store is None:
                raise ConfigurationError(
                    f"dataset {name!r} has no durable store; recovery "
                    "requires DatasetRegistry(durability_dir=...)"
                )
            baseline = state.store.load_checkpoint()
            if baseline is None:
                raise ConfigurationError(
                    f"dataset {name!r} has no durable checkpoint to "
                    "recover from"
                )
            maintainer = SkylineMaintainer.from_state(
                state.codec,
                baseline.points,
                baseline.ids,
                baseline.sky_ids,
                metrics=self.metrics,
            )
            state.maintainer = maintainer
            state.deletes_since_rebuild = baseline.deletes_since_rebuild
            # The delta the republish carries: every replayed batch past
            # the version this registry last published (none on adopt).
            published = (
                state.snapshot.version if state.snapshot is not None
                else math.inf
            )
            delta: Optional[BatchDelta] = None
            replay = state.store.wal.replay()
            version = baseline.version
            replayed = 0
            expected = baseline.seq
            for record in replay.records:
                if record.seq <= baseline.seq:
                    continue
                if record.seq != expected + 1:
                    # The WAL itself is contiguous (replay() checks),
                    # so a gap here means the log lost its head across
                    # the checkpoint/rotation boundary — an
                    # acknowledged batch would vanish silently if we
                    # replayed past it.
                    raise ConfigurationError(
                        f"dataset {name!r}: WAL resumes at seq "
                        f"{record.seq} but the checkpoint ends at seq "
                        f"{baseline.seq}; refusing to recover across a "
                        "sequence gap at the rotation point"
                    )
                expected = record.seq
                if record.op == "insert":
                    applied = maintainer.insert_block(
                        np.asarray(record.points, dtype=np.float64),
                        np.asarray(record.ids, dtype=np.int64),
                    )
                else:
                    # dict.fromkeys: frames logged before repeated
                    # delete ids were rejected may list an id twice
                    applied = maintainer.delete(dict.fromkeys(record.ids))
                    state.deletes_since_rebuild += applied.exited_ids.size
                if record.seq > published:
                    delta = applied if delta is None else delta.then(applied)
                self._maybe_rebuild(state)
                version = record.seq
                replayed += 1
            state.writer_down = False
            state.pending_batches = 0
            state.recoveries += 1
            meta = {
                "recovered": True,
                "replayed_batches": replayed,
                "dropped_tail": replay.dropped_tail,
                "baseline_version": baseline.version,
            }
            result = self._publish(
                state, rebuilt=False, version=version, meta=meta,
                recovered=True, delta=delta,
            )
            # Recovery checkpoint: the next crash replays from here.
            self._checkpoint(state)
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "writer_recoveries")
                self.metrics.inc(SERVING_GROUP, "wal_replayed", replayed)
                if replay.dropped_tail:
                    self.metrics.inc(
                        SERVING_GROUP, "wal_torn_tails", replay.dropped_tail
                    )
            return result

    # ------------------------------------------------------------------
    # internals (caller holds state.lock)
    # ------------------------------------------------------------------
    def _require_writer(self, state: _DatasetState) -> None:
        if state.writer_down:
            raise WriterDownError(
                f"writer for dataset {state.name!r} is down; reads are "
                "serving the last published snapshot — call recover() "
                "to replay the WAL",
                dataset=state.name,
                stale_version=(
                    state.snapshot.version if state.snapshot else 0
                ),
                applied=False,
                retry_after_seconds=_WRITER_RETRY_AFTER,
            )

    def _mutate(
        self,
        state: _DatasetState,
        op: str,
        points: Optional[np.ndarray],
        ids: Sequence[int],
    ) -> PublishResult:
        assert state.snapshot is not None and state.maintainer is not None
        # Reject an inapplicable batch *before* it reaches the WAL.  The
        # log must only ever record batches that apply cleanly: a frame
        # whose apply then fails would never publish its sequence
        # number, the next batch would reuse it, and recovery would
        # refuse the duplicate-seq log.  This is also what makes the
        # service's recover-then-re-execute path safe — re-executing a
        # batch that recovery already applied fails here, as a typed
        # DatasetError, with the WAL untouched.
        maintainer = state.maintainer
        if op == "insert":
            points, ids = maintainer.validate_insert(points, ids)
        else:
            ids = maintainer.validate_delete(ids)
        seq = state.snapshot.version + 1
        phase = (
            self.fault_plan.writer_crash_phase(
                state.name, seq, state.recoveries
            )
            if self.fault_plan is not None
            else None
        )
        if phase == "before":
            # Crash before the WAL append: the batch is lost entirely.
            self._crash_writer(state, seq, phase, applied=False)
        if state.store is not None:
            record = (
                WalRecord.insert(seq, points, ids)
                if op == "insert"
                else WalRecord.delete(seq, ids)
            )
            state.store.wal.append(record)
            if self.metrics is not None:
                self.metrics.inc(SERVING_GROUP, "wal_appends")
        if phase == "during":
            # Crash after the WAL append but before apply/publish: the
            # batch is durable and will take effect on recovery.
            durable = state.store is not None
            if durable:
                state.pending_batches += 1
            self._crash_writer(state, seq, phase, applied=durable)
        if op == "insert":
            delta = maintainer.apply_insert(points, ids)
        else:
            delta = maintainer.apply_delete(ids)
            state.deletes_since_rebuild += delta.exited_ids.size
        rebuilt = self._maybe_rebuild(state)
        result = self._publish(state, rebuilt=rebuilt, delta=delta)
        if phase == "after":
            # Crash after the publish: readers already see the new
            # version; only the writer's in-memory state is lost.
            self._crash_writer(state, seq, phase, applied=True)
        self._maybe_checkpoint(state)
        return result

    def _crash_writer(
        self,
        state: _DatasetState,
        seq: int,
        phase: str,
        applied: Optional[bool],
    ) -> None:
        """Simulate a writer process death: the in-memory incremental
        state is gone; only durable artefacts (WAL + checkpoint) and
        already-published snapshots survive."""
        state.writer_down = True
        state.maintainer = None
        if state.store is not None:
            state.store.wal.close()
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "writer_crashes")
            self.metrics.inc(SERVING_GROUP, f"writer_crashes_{phase}")
        raise WriterDownError(
            f"writer for dataset {state.name!r} crashed {phase} "
            f"publishing batch seq={seq}",
            dataset=state.name,
            stale_version=state.snapshot.version if state.snapshot else 0,
            applied=applied,
            retry_after_seconds=_WRITER_RETRY_AFTER,
        )

    def _publish(
        self,
        state: _DatasetState,
        rebuilt: bool,
        version: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        recovered: bool = False,
        delta: Optional[BatchDelta] = None,
    ) -> PublishResult:
        assert state.maintainer is not None
        previous = state.snapshot
        if version is None:
            version = 1 if previous is None else previous.version + 1
        points, ids = state.maintainer.alive()
        sky_points, sky_ids = state.maintainer.skyline()
        snapshot = Snapshot.build(
            state.name, version, state.codec, points, ids, sky_points,
            sky_ids, meta=meta, delta=delta,
        )
        if state.history and state.history[-1].version == version:
            # Recovery republish of an already-published version:
            # replace it in the ring instead of duplicating.
            state.history.pop()
        state.history.append(snapshot)
        # The single publication point: readers see old or new, nothing
        # in between.
        state.snapshot = snapshot
        state.publishes_since_checkpoint += 1
        self._notify_publish(snapshot)
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "publishes")
            if rebuilt:
                self.metrics.inc(SERVING_GROUP, "drift_rebuilds")
        return PublishResult(
            dataset=state.name,
            version=version,
            size=snapshot.size,
            skyline_size=snapshot.skyline_size,
            rebuilt=rebuilt,
            recovered=recovered,
        )

    def _maybe_checkpoint(self, state: _DatasetState) -> None:
        if (
            state.store is not None
            and state.publishes_since_checkpoint >= self.checkpoint_every
        ):
            self._checkpoint(state)

    def _checkpoint(self, state: _DatasetState) -> None:
        assert state.store is not None and state.maintainer is not None
        assert state.snapshot is not None
        points, ids = state.maintainer.alive()
        state.store.save_checkpoint(
            state.codec,
            seq=state.snapshot.version,
            version=state.snapshot.version,
            points=points,
            ids=ids,
            sky_ids=state.snapshot.sky_ids,
            deletes_since_rebuild=state.deletes_since_rebuild,
        )
        state.publishes_since_checkpoint = 0
        if self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "checkpoints")

    def _maybe_rebuild(self, state: _DatasetState) -> bool:
        """Drift check + rebuild: recompute the skyline of the alive set
        from scratch (one Z-search over the stored rows), here in the
        writer thread, and return True so the publish is flagged
        ``rebuilt``."""
        assert state.maintainer is not None
        if not state.drift.should_rebuild(
            state.deletes_since_rebuild, state.maintainer.size
        ):
            return False
        state.deletes_since_rebuild = 0
        if state.maintainer.size == 0:
            return False
        state.maintainer.recompute()
        return True

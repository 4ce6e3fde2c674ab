"""Seeded, deterministic fault injection for the serving tier.

:class:`~repro.mapreduce.faults.FaultPlan` made the *offline* engine's
failures a first-class seeded object; :class:`ServingFaultPlan` extends
the same keyed-draw idiom to the failure modes a long-lived service
actually sees:

* **worker crashes** — a worker thread dies mid-request; the service
  respawns it, re-enqueues the in-flight request once, and quarantines
  it as a poison pill if it keeps killing workers;
* **writer crashes** — the registry writer dies *before*, *during*, or
  *after* publishing a mutation batch, losing its in-memory incremental
  state; recovery replays the durable WAL onto the last durable
  snapshot (:mod:`repro.serving.wal`);
* **result-cache corruption** — a stored payload is bit-flipped in
  place; the cache's CRC guard detects it at lookup and recomputes
  instead of serving wrong data;
* **queue latency** — an injected scheduling delay before a request is
  handled (a GC pause, a noisy neighbour);
* **shard crashes** — a whole shard process dies (registry + service),
  drawn per ``(shard, router op index)`` or scripted at an exact op;
  the router fails over to a WAL-recovered replacement, or serves
  certified partial answers when the shard is *terminal* (recovery
  always fails — a lost disk);
* **shard slowness** — one sub-query straggles past the router's hedge
  threshold, triggering a duplicate hedged sub-query;
* **heartbeat loss** — a health probe response is dropped even though
  the shard is up (a network blip), feeding the per-shard circuit
  breaker with a false positive.

Every decision is a keyed draw (:func:`~repro.mapreduce.faults.keyed_draw`
— BLAKE2 of ``(seed, kind, ...identity)``), so the same plan produces
the same fault schedule regardless of thread interleaving, process, or
host.  Identities are logical (per-dataset mutation sequence numbers,
per-class dequeue indices), not wall-clock, which is what makes chaos
runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.exceptions import ConfigurationError
from repro.mapreduce.faults import keyed_draw, parse_spec

__all__ = ["ServingFaultPlan", "WRITER_PHASES"]

#: where, relative to the publish point, a writer crash can land:
#: ``before`` = before the batch reaches the WAL (mutation lost),
#: ``during`` = after the WAL append but before the snapshot publish
#: (mutation durable, applied on recovery), ``after`` = after the
#: snapshot publish (readers already see it; recovery is a no-op
#: replay to the same state).
WRITER_PHASES = ("before", "during", "after")


def _scripted_shard_crashes(raw: str) -> Dict[int, int]:
    """``crashshard`` spec value: ``SID:OP`` entries joined by ``+``."""
    return {
        int(sid): int(op)
        for sid, _, op in (entry.partition(":") for entry in raw.split("+"))
    }


def _shard_ids(raw: str) -> Tuple[int, ...]:
    """``terminal`` spec value: shard ids joined by ``+``."""
    return tuple(int(sid) for sid in raw.split("+"))


@dataclass(frozen=True)
class ServingFaultPlan:
    """A seeded, deterministic schedule of serving-tier failures.

    Parameters
    ----------
    seed:
        Keys every draw; same seed → identical fault schedule.
    worker_crash_rate:
        Probability that handling one dequeued request kills its worker
        thread (drawn per ``(class, dequeue index, attempt)``, so a
        re-enqueued request re-draws).
    writer_crash_rate:
        Probability that one mutation batch crashes the dataset writer
        (drawn per ``(dataset, wal sequence)``); a second draw picks the
        crash phase uniformly from :data:`WRITER_PHASES`.
    cache_corruption_rate:
        Probability that a payload is bit-flipped as it is stored in
        the result cache (drawn per cache key).
    queue_delay_rate / queue_delay_seconds:
        Probability that one dequeued request is delayed by
        ``queue_delay_seconds`` before execution.
    max_requeues:
        How many times a request whose worker crashed is re-enqueued
        before being quarantined as poisoned.
    scripted_writer_crashes:
        Exact schedules for tests: ``{(dataset, seq): phase}`` forces
        the writer crash for that WAL sequence number, independent of
        ``writer_crash_rate``.
    shard_crash_rate:
        Probability that serving one router operation kills a shard it
        touches (drawn per ``(shard, op index, incarnation)``; the
        incarnation keying means a recovered shard re-draws instead of
        dying again deterministically).
    scripted_shard_crashes:
        Exact schedules for tests: ``{shard_id: op_index}`` kills that
        shard when the router's operation counter reaches ``op_index``
        (incarnation 0 only — crash once, then let the recovered shard
        live).
    terminal_shards:
        Shards whose recovery *always* fails (a lost disk): every
        failover attempt burns retry budget until the router gives the
        shard up for dead and serves certified partial answers.
    shard_slow_rate / shard_slow_seconds:
        Probability that one sub-query to a shard straggles by
        ``shard_slow_seconds`` (drawn per ``(shard, op index)``),
        tripping the router's hedge threshold.
    heartbeat_loss_rate:
        Probability that one health probe's response is dropped even
        though the shard is healthy (drawn per ``(shard, tick)``).
    """

    seed: int = 0
    worker_crash_rate: float = 0.0
    writer_crash_rate: float = 0.0
    cache_corruption_rate: float = 0.0
    queue_delay_rate: float = 0.0
    queue_delay_seconds: float = 0.002
    max_requeues: int = 1
    scripted_writer_crashes: Mapping[Tuple[str, int], str] = field(
        default_factory=dict
    )
    shard_crash_rate: float = 0.0
    scripted_shard_crashes: Mapping[int, int] = field(
        default_factory=dict
    )
    terminal_shards: Tuple[int, ...] = ()
    shard_slow_rate: float = 0.0
    shard_slow_seconds: float = 0.05
    heartbeat_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "worker_crash_rate",
            "writer_crash_rate",
            "cache_corruption_rate",
            "queue_delay_rate",
            "shard_crash_rate",
            "shard_slow_rate",
            "heartbeat_loss_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(
                    f"{name} must be in [0, 1]; got {rate!r}"
                )
        if self.queue_delay_seconds < 0:
            raise ConfigurationError("queue_delay_seconds must be >= 0")
        if self.shard_slow_seconds < 0:
            raise ConfigurationError("shard_slow_seconds must be >= 0")
        if self.max_requeues < 0:
            raise ConfigurationError("max_requeues must be >= 0")
        for sid, op_index in self.scripted_shard_crashes.items():
            if int(sid) < 0 or int(op_index) < 0:
                raise ConfigurationError(
                    "scripted shard crashes need non-negative shard ids "
                    f"and op indices; got {{{sid}: {op_index}}}"
                )
        if any(int(sid) < 0 for sid in self.terminal_shards):
            raise ConfigurationError("terminal shard ids must be >= 0")
        for (dataset, seq), phase in self.scripted_writer_crashes.items():
            if phase not in WRITER_PHASES:
                raise ConfigurationError(
                    f"scripted writer crash for ({dataset!r}, {seq}) has "
                    f"unknown phase {phase!r}; choose from {WRITER_PHASES}"
                )

    @property
    def any_faults(self) -> bool:
        return bool(
            self.worker_crash_rate
            or self.writer_crash_rate
            or self.cache_corruption_rate
            or self.queue_delay_rate
            or self.scripted_writer_crashes
            or self.any_shard_faults
        )

    @property
    def any_shard_faults(self) -> bool:
        return bool(
            self.shard_crash_rate
            or self.scripted_shard_crashes
            or self.terminal_shards
            or self.shard_slow_rate
            or self.heartbeat_loss_rate
        )

    # ------------------------------------------------------------------
    # the four fault kinds
    # ------------------------------------------------------------------
    def worker_crashes(self, klass: str, index: int, attempt: int) -> bool:
        """Does handling attempt ``attempt`` (1-based) of the
        ``index``-th dequeued ``klass`` request kill its worker?"""
        if self.worker_crash_rate <= 0.0:
            return False
        return (
            keyed_draw(self.seed, "svc-worker", klass, index, attempt)
            < self.worker_crash_rate
        )

    def writer_crash_phase(
        self, dataset: str, seq: int, incarnation: int = 0
    ) -> Optional[str]:
        """The crash phase for mutation ``seq`` of ``dataset``, or
        ``None`` if the writer survives this batch.

        ``incarnation`` is the writer's recovery count; keying the draw
        on it means a batch that crashed incarnation 0 re-draws after
        recovery instead of deterministically crashing on every retry
        forever (the version — and hence ``seq`` — doesn't advance
        across a failed batch).  Scripted crashes fire on incarnation 0
        only: crash once, then let the recovered writer succeed.
        """
        if incarnation == 0:
            scripted = self.scripted_writer_crashes.get((dataset, seq))
            if scripted is not None:
                return scripted
        if self.writer_crash_rate <= 0.0:
            return None
        if (
            keyed_draw(self.seed, "svc-writer", dataset, seq, incarnation)
            >= self.writer_crash_rate
        ):
            return None
        pick = keyed_draw(
            self.seed, "svc-writer-phase", dataset, seq, incarnation
        )
        return WRITER_PHASES[int(pick * len(WRITER_PHASES))]

    def cache_corrupts(self, dataset: str, version: int,
                       fingerprint: str) -> bool:
        """Is the payload stored under this cache key bit-flipped?"""
        if self.cache_corruption_rate <= 0.0:
            return False
        return (
            keyed_draw(self.seed, "svc-cache", dataset, version, fingerprint)
            < self.cache_corruption_rate
        )

    def queue_delay(self, klass: str, index: int) -> float:
        """Injected scheduling delay (seconds) before handling the
        ``index``-th dequeued ``klass`` request; 0.0 almost always."""
        if self.queue_delay_rate <= 0.0 or self.queue_delay_seconds <= 0.0:
            return 0.0
        if (
            keyed_draw(self.seed, "svc-delay", klass, index)
            < self.queue_delay_rate
        ):
            return self.queue_delay_seconds
        return 0.0

    # ------------------------------------------------------------------
    # shard fault kinds (drawn by the router, not the shard services)
    # ------------------------------------------------------------------
    def shard_crashes(
        self, shard: int, op_index: int, incarnation: int = 0
    ) -> bool:
        """Does serving router operation ``op_index`` kill ``shard``?

        ``incarnation`` is the shard's failover count; keying the draw
        on it means a shard that crashed and recovered re-draws instead
        of dying again at its very next operation.  Scripted crashes
        fire on incarnation 0 only.
        """
        if incarnation == 0:
            scripted = self.scripted_shard_crashes.get(int(shard))
            if scripted is not None and int(scripted) == int(op_index):
                return True
        if self.shard_crash_rate <= 0.0:
            return False
        return (
            keyed_draw(
                self.seed, "svc-shard", int(shard), int(op_index),
                int(incarnation),
            )
            < self.shard_crash_rate
        )

    def shard_terminal(self, shard: int) -> bool:
        """Is ``shard`` beyond recovery (every failover attempt fails)?"""
        return int(shard) in {int(s) for s in self.terminal_shards}

    def shard_slow(self, shard: int, op_index: int) -> float:
        """Injected straggle (seconds) for this sub-query; 0.0 almost
        always.  A non-zero value is the router's cue to hedge."""
        if self.shard_slow_rate <= 0.0 or self.shard_slow_seconds <= 0.0:
            return 0.0
        if (
            keyed_draw(self.seed, "svc-shard-slow", int(shard), int(op_index))
            < self.shard_slow_rate
        ):
            return self.shard_slow_seconds
        return 0.0

    def heartbeat_lost(self, shard: int, tick: int) -> bool:
        """Is the ``tick``-th health probe of ``shard`` dropped in
        flight (a false positive: the shard is actually up)?"""
        if self.heartbeat_loss_rate <= 0.0:
            return False
        return (
            keyed_draw(self.seed, "svc-heartbeat", int(shard), int(tick))
            < self.heartbeat_loss_rate
        )

    # ------------------------------------------------------------------
    # CLI spec parsing (shared with FaultPlan: ``parse_spec``)
    # ------------------------------------------------------------------
    _SPEC_KEYS = {
        "seed": ("seed", int),
        "worker": ("worker_crash_rate", float),
        "writer": ("writer_crash_rate", float),
        "cache": ("cache_corruption_rate", float),
        "delay": ("queue_delay_rate", float),
        "delaysec": ("queue_delay_seconds", float),
        "requeues": ("max_requeues", int),
        "shard": ("shard_crash_rate", float),
        "shardslow": ("shard_slow_rate", float),
        "shardslowsec": ("shard_slow_seconds", float),
        "heartbeat": ("heartbeat_loss_rate", float),
        "crashshard": ("scripted_shard_crashes", _scripted_shard_crashes),
        "terminal": ("terminal_shards", _shard_ids),
    }

    @classmethod
    def parse(cls, spec: str) -> "ServingFaultPlan":
        """Parse ``"seed=7,worker=0.05,writer=0.1,cache=0.1"`` specs.

        Keys: ``seed``, ``worker`` (crash rate), ``writer`` (crash
        rate), ``cache`` (corruption rate), ``delay`` (rate),
        ``delaysec`` (magnitude), ``requeues``, ``shard`` (crash
        rate), ``shardslow`` (rate), ``shardslowsec`` (magnitude),
        ``heartbeat`` (loss rate), ``crashshard`` (scripted:
        ``SID:OP`` entries joined by ``+``), ``terminal`` (shard ids
        joined by ``+``).
        """
        return cls(**parse_spec(spec, cls._SPEC_KEYS))  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact one-line summary (CLI/report headers)."""
        text = (
            f"seed={self.seed} worker={self.worker_crash_rate} "
            f"writer={self.writer_crash_rate} "
            f"cache={self.cache_corruption_rate} "
            f"delay={self.queue_delay_rate}@{self.queue_delay_seconds}s "
            f"requeues={self.max_requeues}"
        )
        if self.any_shard_faults:
            text += (
                f" shard={self.shard_crash_rate} "
                f"shardslow={self.shard_slow_rate}"
                f"@{self.shard_slow_seconds}s "
                f"heartbeat={self.heartbeat_loss_rate}"
            )
            if self.scripted_shard_crashes:
                scripted = "+".join(
                    f"{sid}:{op}"
                    for sid, op in sorted(self.scripted_shard_crashes.items())
                )
                text += f" crashshard={scripted}"
            if self.terminal_shards:
                text += " terminal=" + "+".join(
                    str(s) for s in sorted(self.terminal_shards)
                )
        return text

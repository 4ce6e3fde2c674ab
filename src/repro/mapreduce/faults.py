"""Deterministic fault injection for the MapReduce runtime.

The paper motivates its grouping design with straggler causes — "faulty
disk, server failure" (§1) — and the engine's headline guarantee is that
the skyline is *identical* under any fault schedule.  This module makes
that schedule a first-class, seeded object:

* **transient task failures** — an attempt raises before the task body
  runs; the cluster retries with exponential-backoff accounting up to
  ``max_attempts``;
* **worker crashes** — a worker dies at the end of a map round, *losing
  its already-completed map output*; the runtime re-executes exactly the
  lost map tasks on the survivors before shuffling (Hadoop's lineage
  semantics);
* **block corruption** — a shuffled block arrives bit-flipped; the
  receiver detects the checksum mismatch and re-fetches from the mapper
  output.

Every decision is a *keyed draw*: a BLAKE2 hash of
``(seed, kind, phase, index, attempt)`` mapped to ``[0, 1)``.  No RNG
state is consumed sequentially, so the schedule is independent of task
execution order — the same plan produces the same faults on the
sequential :class:`~repro.mapreduce.cluster.SimulatedCluster` and the
thread-racing :class:`~repro.mapreduce.parallel.ThreadedCluster`, across
processes and hosts (no dependence on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.exceptions import ConfigurationError, MapReduceError
from repro.mapreduce.types import Block

__all__ = ["FaultPlan", "TransientTaskError", "keyed_draw", "parse_spec"]


class TransientTaskError(MapReduceError):
    """The injected, retryable failure of one task attempt."""


_DRAW_DENOM = float(2 ** 64)


def keyed_draw(seed: int, *key: object) -> float:
    """Uniform [0, 1) draw keyed by ``(seed, *key)``.

    The backbone of every deterministic fault schedule in the repo
    (this module's :class:`FaultPlan` and the serving tier's
    :class:`~repro.serving.faults.ServingFaultPlan`): a BLAKE2 hash of
    the key material mapped to the unit interval.  No RNG state is
    consumed sequentially, so draws are independent of evaluation
    order, stable across threads, processes, and hosts (no dependence
    on ``PYTHONHASHSEED``).
    """
    material = ":".join(str(part) for part in (seed,) + key)
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / _DRAW_DENOM


#: spec key -> (constructor field, cast from the raw value text)
SpecKeys = Mapping[str, Tuple[str, Callable[[str], object]]]


def parse_spec(spec: str, keys: SpecKeys) -> Dict[str, object]:
    """Parse a ``"key=value,key=value"`` fault spec into constructor
    keyword arguments (the CLI ``--faults`` syntax of both fault plans).

    Keys are case-insensitive; a cast raising ``ValueError`` is a bad
    value.  Every malformed token raises
    :class:`~repro.core.exceptions.ConfigurationError`.
    """
    kwargs: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigurationError(
                f"fault spec token {token!r} must look like key=value"
            )
        key, _, raw = token.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key not in keys:
            raise ConfigurationError(
                f"unknown fault spec key {key!r}; choose from {sorted(keys)}"
            )
        attr, cast = keys[key]
        try:
            kwargs[attr] = cast(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"bad value {raw!r} for fault spec key {key!r}"
            ) from exc
    return kwargs


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of failures.

    Parameters
    ----------
    seed:
        Keys every draw; same seed → identical fault schedule.
    task_failure_rate:
        Probability that one task *attempt* raises
        :class:`TransientTaskError` (drawn per attempt, so a task can
        fail several times before succeeding).
    worker_crash_rate:
        Probability that a worker crashes at the end of a map round,
        losing the map output it produced in that round.
    corruption_rate:
        Probability that one shuffled block arrives corrupted and must
        be re-fetched after the checksum mismatch.
    max_attempts:
        Retry budget per task (includes the final successful attempt);
        exhausting it raises
        :class:`~repro.core.exceptions.FaultInjectionError`.
    backoff_base:
        Accounted (not slept) retry delay: attempt ``k`` adds
        ``backoff_base * 2**(k-1)`` seconds to the worker's wall ledger.
    scripted_failures:
        Exact schedules for tests: ``{(phase, task_index): n}`` makes the
        first ``n`` attempts of that task fail, independent of
        ``task_failure_rate``.
    """

    seed: int = 0
    task_failure_rate: float = 0.0
    worker_crash_rate: float = 0.0
    corruption_rate: float = 0.0
    max_attempts: int = 4
    backoff_base: float = 0.05
    scripted_failures: Mapping[Tuple[str, int], int] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for name in ("task_failure_rate", "worker_crash_rate",
                     "corruption_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ConfigurationError(
                    f"{name} must be in [0, 1); got {rate!r}"
                )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ConfigurationError("backoff_base must be >= 0")

    # ------------------------------------------------------------------
    # keyed draws
    # ------------------------------------------------------------------
    def _draw(self, *key: object) -> float:
        """Uniform [0, 1) draw keyed by (seed, *key) — order-independent
        of when it is evaluated, stable across processes."""
        return keyed_draw(self.seed, *key)

    # ------------------------------------------------------------------
    # the three fault kinds
    # ------------------------------------------------------------------
    def task_attempt_fails(self, phase: str, index: int, attempt: int) -> bool:
        """Does attempt ``attempt`` (1-based) of task ``index`` fail?"""
        scripted = self.scripted_failures.get((phase, index))
        if scripted is not None:
            return attempt <= scripted
        if self.task_failure_rate <= 0.0:
            return False
        return self._draw("task", phase, index, attempt) < self.task_failure_rate

    def backoff_seconds(self, attempt: int) -> float:
        """Accounted retry delay after a failed attempt (1-based)."""
        return self.backoff_base * (2.0 ** (attempt - 1))

    def crashed_workers(self, phase: str, num_workers: int) -> List[int]:
        """Workers that crash at the end of ``phase``; at least one
        worker always survives (the one with the largest draw is spared
        if every draw lands under the rate)."""
        if self.worker_crash_rate <= 0.0 or num_workers <= 0:
            return []
        draws = {
            w: self._draw("crash", phase, w) for w in range(num_workers)
        }
        crashed = [w for w, u in draws.items() if u < self.worker_crash_rate]
        if len(crashed) == num_workers:
            crashed.remove(max(crashed, key=lambda w: draws[w]))
        return crashed

    def corrupts(self, phase: str, key: int, fetch_index: int) -> bool:
        """Is the ``fetch_index``-th block fetched for reduce ``key``
        corrupted in flight?"""
        if self.corruption_rate <= 0.0:
            return False
        return (
            self._draw("corrupt", phase, key, fetch_index)
            < self.corruption_rate
        )

    @staticmethod
    def corrupt_copy(block: Block) -> Block:
        """A bit-flipped copy of ``block`` (what the wire delivered).

        Empty blocks have nothing to flip and are returned unchanged
        (their checksum still matches, i.e. empty transfers cannot be
        corrupted — there are no payload bytes on the wire).
        """
        if block.size == 0:
            return block
        points = block.points.copy()
        points[0, 0] += 1.0
        return Block(block.ids.copy(), points)

    # ------------------------------------------------------------------
    # CLI spec parsing
    # ------------------------------------------------------------------
    # plain (unannotated) class attribute so the dataclass machinery
    # does not mistake it for a field
    _SPEC_KEYS = {
        "seed": ("seed", int),
        "task": ("task_failure_rate", float),
        "crash": ("worker_crash_rate", float),
        "corrupt": ("corruption_rate", float),
        "attempts": ("max_attempts", int),
        "backoff": ("backoff_base", float),
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"seed=7,task=0.1,crash=0.2,corrupt=0.05"`` specs.

        Keys: ``seed``, ``task`` (failure rate), ``crash``, ``corrupt``,
        ``attempts``, ``backoff``.
        """
        return cls(**parse_spec(spec, cls._SPEC_KEYS))  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact one-line summary (CLI/report headers)."""
        return (
            f"seed={self.seed} task={self.task_failure_rate} "
            f"crash={self.worker_crash_rate} corrupt={self.corruption_rate} "
            f"attempts={self.max_attempts} backoff={self.backoff_base}"
        )

"""Size-bounded LRU result cache keyed by ``(dataset, version, query)``.

Because the snapshot version is part of the key, publishing a new
version *is* the invalidation: queries against the new version simply
miss.  Nothing ever has to be flushed for correctness, and a reader
still holding an old snapshot keeps getting (correct) hits for it.
Entries for superseded versions otherwise age out of the LRU tail; an
owner that only ever reads the current version (the service) drops
them as soon as it stores a newer one (:meth:`ResultCache.drop_below`),
counted under ``serving.cache_superseded_dropped``.

Cached values are the query handlers' frozen payloads (write-protected
numpy arrays), so handing the same object to many readers is safe.

**CRC guard.**  Every stored payload is fingerprinted with a CRC32 over
its array contents at store time; every hit re-verifies the CRC before
the payload is returned.  A mismatch — a bit flip in cache memory, or
one injected by a :class:`~repro.serving.faults.ServingFaultPlan` — is
*detected*, the entry is evicted, and the lookup reports a non-hit, so
the service recomputes from the authoritative snapshot instead of
serving a wrong data.  Detection events are counted *separately* from
cold misses — ``serving.cache_corrupt`` (and the legacy
``serving.cache_corruption_detected`` alias) vs ``serving.cache_misses``
— so a chaos run can tell corruption from an empty cache at a glance.

Hits, misses, and evictions flow into the shared
:class:`~repro.observability.metrics.MetricsRegistry` under the
``serving`` group.
"""

from __future__ import annotations

import dataclasses
import threading
import zlib
from collections import OrderedDict
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.observability.metrics import MetricsRegistry

from repro.serving.faults import ServingFaultPlan
from repro.serving.registry import SERVING_GROUP

#: cache key: (dataset name, snapshot version, canonical fingerprint)
CacheKey = Tuple[str, int, str]

#: payload attributes folded into the CRC, in order
_CRC_FIELDS = ("ids", "points", "scores")


def payload_crc(value: Any) -> Optional[int]:
    """CRC32 over a payload's array contents, or None if uncheckable.

    Works on anything exposing ``ids`` / ``points`` / ``scores`` numpy
    arrays (the service's ``_Payload``); values without them are stored
    unguarded rather than rejected.
    """
    crc = 0
    seen = False
    for name in _CRC_FIELDS:
        array = getattr(value, name, None)
        if array is None:
            continue
        arr = np.ascontiguousarray(array)
        crc = zlib.crc32(arr.tobytes(), crc)
        seen = True
    return (crc & 0xFFFFFFFF) if seen else None


def _corrupted_copy(value: Any) -> Optional[Any]:
    """A copy of ``value`` with one array element bit-flipped (the
    fault plan's cache-corruption injection).  None if the payload has
    nothing to flip or is not a dataclass."""
    if not dataclasses.is_dataclass(value):
        return None
    for name in ("points", "scores", "ids"):
        array = getattr(value, name, None)
        if array is None or getattr(array, "size", 0) == 0:
            continue
        mutated = np.array(array, copy=True)
        flat = mutated.reshape(-1)
        if mutated.dtype.kind == "f":
            flat[0] = flat[0] + 1.0
        else:
            flat[0] = flat[0] ^ 1
        mutated.setflags(write=False)
        return dataclasses.replace(value, **{name: mutated})
    return None


class ResultCache:
    """Thread-safe LRU over query results (entry-count bounded).

    Entries are ``(payload, crc)`` pairs; ``fault_plan`` arms seeded
    corruption injection (the CRC is computed over the *pristine*
    payload, then a corrupted copy is stored, so the guard must catch
    it at lookup — exactly the memory-corruption scenario).
    """

    def __init__(
        self,
        max_entries: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[ServingFaultPlan] = None,
    ) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self.metrics = metrics
        self.fault_plan = fault_plan
        self._entries: "OrderedDict[CacheKey, Tuple[Any, Optional[int]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corruptions_detected = 0

    @staticmethod
    def make_key(dataset: str, version: int, fingerprint: str) -> CacheKey:
        return (dataset, int(version), fingerprint)

    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey) -> Tuple[bool, Any]:
        """``(hit, value)``; a hit moves the entry to the MRU end.

        A stored CRC that no longer matches the payload is a detected
        corruption: the entry is evicted and the lookup reports no hit
        (the caller recomputes), but it is counted under the dedicated
        corrupt counter — *not* as a cold miss — so chaos runs can
        distinguish flipped bits from an empty cache.
        """
        corrupted = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, crc = entry
                if crc is not None and payload_crc(value) != crc:
                    del self._entries[key]
                    self._corruptions_detected += 1
                    corrupted = True
                    value, hit = None, False
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    hit = True
            else:
                self._misses += 1
                value, hit = None, False
        if self.metrics is not None:
            if corrupted:
                self.metrics.inc(SERVING_GROUP, "cache_corrupt")
                # legacy alias, kept for dashboards built on PR 6
                self.metrics.inc(SERVING_GROUP, "cache_corruption_detected")
            else:
                self.metrics.inc(
                    SERVING_GROUP, "cache_hits" if hit else "cache_misses"
                )
        return hit, value

    def store(self, key: CacheKey, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        crc = payload_crc(value)
        if (
            self.fault_plan is not None
            and crc is not None
            and self.fault_plan.cache_corrupts(*key)
        ):
            mutated = _corrupted_copy(value)
            if mutated is not None:
                # Store the corrupted bytes under the pristine CRC: the
                # next lookup must detect the mismatch.
                value = mutated
                if self.metrics is not None:
                    self.metrics.inc(
                        SERVING_GROUP, "cache_corruption_injected"
                    )
        evicted = 0
        with self._lock:
            self._entries[key] = (value, crc)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted and self.metrics is not None:
            self.metrics.inc(SERVING_GROUP, "cache_evictions", evicted)

    def drop_below(self, dataset: str, version: int) -> int:
        """Drop ``dataset``'s entries for versions below ``version``;
        returns how many went (also counted under
        ``serving.cache_superseded_dropped``)."""
        with self._lock:
            stale = [
                key for key in self._entries
                if key[0] == dataset and key[1] < version
            ]
            for key in stale:
                del self._entries[key]
        if stale and self.metrics is not None:
            self.metrics.inc(
                SERVING_GROUP, "cache_superseded_dropped", len(stale)
            )
        return len(stale)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    @property
    def corruptions_detected(self) -> int:
        with self._lock:
            return self._corruptions_detected

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "corruptions_detected": self._corruptions_detected,
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class MergeCache:
    """The shard router's answer cache: a :class:`ResultCache` keyed by
    the pinned version vector.

    The key is the exact ``{shard: version}`` mapping an answer was
    computed from (the full vector, not just its sum — vectors with
    equal sums but different shard states must never collide), the
    sorted lost-shard set (certified partial answers live under their
    own degraded key) and the query fingerprint.  Publishing on any
    shard changes that shard's version, so every later pin produces a
    new key and simply misses — publish *is* the invalidation — while a
    reader pinned to the old vector keeps hitting its own entry and can
    never observe a newer answer.  The merged skyline is just the cached
    ``full`` answer, so every kind pinned to one vector shares a single
    merge.  Entries keep the :class:`ResultCache` CRC guard.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.results = ResultCache(max_entries)

    @staticmethod
    def key(
        dataset: str,
        vector: Mapping[int, int],
        lost: Sequence[int],
        fingerprint: str,
    ) -> CacheKey:
        vec = ",".join(f"{s}:{v}" for s, v in sorted(vector.items()))
        lost_part = ",".join(str(s) for s in sorted(lost))
        return ResultCache.make_key(
            dataset, sum(vector.values()), f"{vec}|{lost_part}|{fingerprint}"
        )

    def get(
        self, vector: Mapping[int, int], lost: Sequence[int], query: Any
    ) -> Optional[Any]:
        """The answer to ``query`` computed from exactly this vector and
        lost set, or None."""
        hit, value = self.results.lookup(
            self.key(query.dataset, vector, lost, query.fingerprint())
        )
        return value if hit else None

    def store(
        self,
        vector: Mapping[int, int],
        lost: Sequence[int],
        query: Any,
        value: Any,
    ) -> None:
        self.results.store(
            self.key(query.dataset, vector, lost, query.fingerprint()),
            value,
        )

    def stats(self) -> dict:
        return self.results.stats()

    def __repr__(self) -> str:
        return f"MergeCache({self.results!r})"

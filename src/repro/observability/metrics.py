"""One registry for every measured quantity: counters, timers, histograms.

The :class:`MetricsRegistry` is the batch engine's counting type.  Its
Hadoop-style job counters (``TaskContext.counters``,
``JobResult.counters``) and the Z-address codec's kernel-path stats
(``ZGridCodec.kernel_stats``, group ``zkernel``) are registries, and so
is every run's exported metrics set:

* **counters** — ``group/name -> int``;
* **timers** — named accumulated wall seconds with call counts;
* **histograms** — named sample lists with summary statistics (the
  paper's per-group candidate counts and per-worker wall seconds).

:meth:`merge` aggregates registries across tasks, jobs and runs, and
:meth:`export_jsonl` writes one self-describing JSON object per metric
so a benchmark row can be regenerated from the file alone.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile over a sorted copy (no numpy needed)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


class MetricsRegistry:
    """Thread-safe counters + timers + histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], int] = defaultdict(int)
        #: name -> [calls, total_seconds]
        self._timers: Dict[str, List[float]] = {}
        self._histograms: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()

    # -- counters ------------------------------------------------------
    def inc(self, group: str, name: str, amount: int = 1) -> None:
        """Increment counter ``group/name``."""
        with self._lock:
            self._counters[(group, name)] += int(amount)

    def counter(self, group: str, name: str) -> int:
        """Current counter value (0 if never incremented)."""
        with self._lock:
            return self._counters.get((group, name), 0)

    # ``perfbench/workloads.py`` reads job counters with ``get(group,
    # name)``; the benchmark is versioned apart from the program, so
    # the accessor it calls stays as an alias.
    get = counter

    def counters_as_dict(self) -> Dict[str, Dict[str, int]]:
        """Nested ``group -> name -> value`` snapshot."""
        with self._lock:
            out: Dict[str, Dict[str, int]] = {}
            for (group, name), value in self._counters.items():
                out.setdefault(group, {})[name] = value
            return out

    # -- timers --------------------------------------------------------
    def record_time(self, name: str, seconds: float) -> None:
        """Add one observation to a named timer."""
        with self._lock:
            entry = self._timers.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += float(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named timer."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - started)

    def timer_seconds(self, name: str) -> float:
        with self._lock:
            entry = self._timers.get(name)
            return float(entry[1]) if entry else 0.0

    def timers_as_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                name: {"calls": int(entry[0]), "seconds": float(entry[1])}
                for name, entry in self._timers.items()
            }

    # -- histograms ----------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Add one sample to a named histogram."""
        with self._lock:
            self._histograms[name].append(float(value))

    def histogram(self, name: str) -> List[float]:
        """Copy of a histogram's raw samples (empty if absent)."""
        with self._lock:
            return list(self._histograms.get(name, ()))

    def histogram_summary(self, name: str) -> Dict[str, float]:
        """count/min/max/mean/total/p50/p95 of one histogram."""
        samples = self.histogram(name)
        if not samples:
            return {
                "count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "total": 0.0, "p50": 0.0, "p95": 0.0,
            }
        total = float(sum(samples))
        return {
            "count": len(samples),
            "min": float(min(samples)),
            "max": float(max(samples)),
            "mean": total / len(samples),
            "total": total,
            "p50": _percentile(samples, 0.50),
            "p95": _percentile(samples, 0.95),
        }

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry into this one (cross-job /
        cross-run aggregation)."""
        with other._lock:
            counters = dict(other._counters)
            timers = {k: list(v) for k, v in other._timers.items()}
            histograms = {
                k: list(v) for k, v in other._histograms.items()
            }
        with self._lock:
            for key, value in counters.items():
                self._counters[key] += value
            for name, (calls, seconds) in timers.items():
                entry = self._timers.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
            for name, samples in histograms.items():
                self._histograms[name].extend(samples)

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": self.counters_as_dict(),
            "timers": self.timers_as_dict(),
            "histograms": {
                name: self.histogram_summary(name)
                for name in sorted(self._snapshot_histogram_names())
            },
        }

    def _snapshot_histogram_names(self) -> List[str]:
        with self._lock:
            return list(self._histograms)

    def to_rows(self) -> List[Dict[str, Any]]:
        """One self-describing dict per metric (the JSONL lines)."""
        rows: List[Dict[str, Any]] = []
        for group, names in sorted(self.counters_as_dict().items()):
            for name, value in sorted(names.items()):
                rows.append({
                    "kind": "counter",
                    "group": group,
                    "name": name,
                    "value": value,
                })
        for name, entry in sorted(self.timers_as_dict().items()):
            rows.append({
                "kind": "timer",
                "name": name,
                "calls": entry["calls"],
                "seconds": entry["seconds"],
            })
        for name in sorted(self._snapshot_histogram_names()):
            rows.append({
                "kind": "histogram",
                "name": name,
                "summary": self.histogram_summary(name),
                "samples": self.histogram(name),
            })
        return rows

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per metric; returns the row count."""
        rows = self.to_rows()
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True))
                handle.write("\n")
        return len(rows)

    def __getstate__(self) -> Dict[str, Any]:
        # The lock cannot cross a pickle boundary (a pool task ships its
        # task-local registry home); the rest is plain data.
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"timers={len(self._timers)}, "
                f"histograms={len(self._histograms)})"
            )


def load_metrics_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read an exported metrics file back."""
    rows: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def registry_from_rows(rows: List[Dict[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from exported JSONL rows (round-trip)."""
    registry = MetricsRegistry()
    for row in rows:
        kind = row.get("kind")
        if kind == "counter":
            registry.inc(row["group"], row["name"], row["value"])
        elif kind == "timer":
            entry = registry._timers.setdefault(row["name"], [0, 0.0])
            entry[0] += int(row["calls"])
            entry[1] += float(row["seconds"])
        elif kind == "histogram":
            for sample in row.get("samples", ()):
                registry.observe(row["name"], sample)
    return registry


__all__ = [
    "MetricsRegistry",
    "load_metrics_jsonl",
    "registry_from_rows",
]

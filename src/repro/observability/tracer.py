"""Span tracing: the structural record of one pipeline run.

A :class:`Tracer` collects a tree of :class:`Span` objects — run →
preprocess → phase-1 map/shuffle/reduce (one span per task/group) →
partial-merge → final z-merge — each with monotonic timestamps
(``time.perf_counter``), a parent id, and a free-form attribute dict
(records in/out, bytes shuffled, dominance tests, faults
injected/recovered).  The JSONL export is the ground truth a benchmark
row can be regenerated from: aggregating span attributes reproduces the
job ``Counters`` totals exactly (see :meth:`Tracer.totals`).

Tracing defaults to **off**: the module-level :data:`NULL_TRACER`
answers the whole API with shared no-op singletons, and the runtime
guards its per-task instrumentation on :attr:`Tracer.enabled`, so a
disabled run pays one boolean check per task
(``benchmarks/test_observability_overhead.py`` keeps that honest).

Thread-safety: span-id allocation and span registration are locked, so
tasks on a :class:`~repro.mapreduce.parallel.ThreadedCluster` may start
spans concurrently.  Each task mutates only its own span's attributes.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.exceptions import ConfigurationError

#: attribute marking a span whose work was discarded (e.g. a map task
#: whose output died with its worker and was re-executed); aggregation
#: skips these so trace totals match the only-successful-attempt
#: counter semantics
SUPERSEDED = "superseded"


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attributes")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})

    # -- attributes ----------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        """Set one attribute."""
        self.attributes[key] = value

    def update(self, **attributes: Any) -> None:
        """Set several attributes at once."""
        self.attributes.update(attributes)

    # -- lifecycle -----------------------------------------------------
    def finish(self) -> None:
        """Stamp the end time (idempotent: the first call wins)."""
        if self.end is None:
            self.end = time.perf_counter()

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and finish; ``None`` while open."""
        if self.end is None:
            return None
        return self.end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (
            f"Span(id={self.span_id}, name={self.name!r}, "
            f"parent={self.parent_id}, attrs={self.attributes!r})"
        )


class _NullSpan:
    """Shared do-nothing span: the zero-overhead disabled path."""

    __slots__ = ()

    span_id = 0
    parent_id = None
    name = "null"
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        pass

    def update(self, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: the one null span every disabled call site shares
NULL_SPAN = _NullSpan()


class NullTracer:
    """API-compatible tracer that records nothing.

    Every ``start_span`` returns :data:`NULL_SPAN`; call sites that
    need true zero overhead (per-task hot paths) should additionally
    guard on :attr:`enabled`.
    """

    enabled = False

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return NULL_SPAN

    #: ``with tracer.span("x"):`` works because NULL_SPAN is a
    #: context manager
    span = start_span

    @property
    def spans(self) -> Tuple[()]:
        return ()

    def totals(self, *names: str) -> Dict[str, float]:
        return {name: 0 for name in names}

    def export_jsonl(self, path: str) -> int:
        """Nothing to export; no file is written."""
        return 0


#: module-level singleton: the default tracer everywhere
NULL_TRACER = NullTracer()


class Tracer:
    """Collects the span tree of a run (thread-safe)."""

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; it is registered immediately (even if the task
        that owns it later dies, the trace keeps the evidence)."""
        parent_id = None
        if parent is not None and parent is not NULL_SPAN:
            parent_id = parent.span_id
        start = time.perf_counter()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(span_id, parent_id, name, start, attributes)
            self._spans.append(span)
        return span

    #: alias reading naturally in ``with tracer.span(...) as s:`` form
    span = start_span

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Register a finished span timed elsewhere (a task's own
        ``perf_counter`` stamps, measured on a worker thread or in a
        pool process)."""
        span = self.start_span(name, parent=parent, **attributes)
        span.start = start
        span.end = end
        return span

    # -- inspection ----------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Snapshot of every recorded span, in creation order."""
        with self._lock:
            return list(self._spans)

    def named(self, name: str) -> List[Span]:
        """All spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def totals(
        self, *names: str, include_superseded: bool = False
    ) -> Dict[str, float]:
        """Sum numeric span attributes across the tree.

        Spans marked :data:`SUPERSEDED` are skipped by default so the
        totals reproduce the only-successful-attempt ``Counters``
        semantics: a re-executed map task contributes once.
        """
        out: Dict[str, float] = {name: 0 for name in names}
        for span in self.spans:
            if not include_superseded and span.attributes.get(SUPERSEDED):
                continue
            for name in names:
                value = span.attributes.get(name)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    out[name] += value
        return out

    def validate(self) -> None:
        """Structural invariants of the finished tree.

        Raises :class:`~repro.core.exceptions.ConfigurationError` when a
        parent id is dangling, a finished span has negative duration, or
        a span never finished.
        """
        spans = self.spans
        ids = {span.span_id for span in spans}
        for span in spans:
            if span.parent_id is not None and span.parent_id not in ids:
                raise ConfigurationError(
                    f"span {span.span_id} ({span.name!r}) has dangling "
                    f"parent {span.parent_id}"
                )
            if span.end is None:
                raise ConfigurationError(
                    f"span {span.span_id} ({span.name!r}) never finished"
                )
            if span.end < span.start:
                raise ConfigurationError(
                    f"span {span.span_id} ({span.name!r}) has negative "
                    f"duration"
                )

    # -- export --------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        rows = self.to_dicts()
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True))
                handle.write("\n")
        return len(rows)


def load_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read an exported trace back (for offline analysis/tests)."""
    rows: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def aggregate_trace_rows(
    rows: Iterable[Dict[str, Any]], *names: str
) -> Dict[str, float]:
    """:meth:`Tracer.totals` over exported JSONL rows."""
    out: Dict[str, float] = {name: 0 for name in names}
    for row in rows:
        attributes = row.get("attributes", {})
        if attributes.get(SUPERSEDED):
            continue
        for name in names:
            value = attributes.get(name)
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                out[name] += value
    return out

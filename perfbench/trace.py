"""Outside-in layer tracing: shims around the program's layer entry points.

Nothing here edits the program.  :func:`install` replaces each traced
function or method with a thin wrapper that records a span (name, start,
end, parent, op id, thread) into an in-memory :class:`SpanLog` while
tracing is on, and calls straight through while it is off.

Names bound with ``from x import f`` are patched where they are looked
up: every loaded ``repro.*`` module whose attribute *is* the original
function gets the wrapper, so ``repro.pipeline.supervisor.preprocess`` and
``repro.serving.router.zmerge_all`` are covered as well as the defining
modules.  Install before the program builds the objects that capture
bound methods (publish hooks), so those captures see the wrappers.

The benchmark client is single-threaded and closed-loop, so at most one
op is in flight.  A span opened on a program worker thread with nothing
open on that thread is therefore parented to the innermost span open on
the client thread at that moment (for example a shard sub-query runs
under ``router.scatter``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

clock = time.monotonic

#: module-level functions: (module, function, span name)
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.zorder.encoding", "quantize_dataset", "zorder.quantize"),
    ("repro.zorder.zsearch", "zsearch", "zorder.zsearch"),
    ("repro.zorder.zmerge", "zmerge", "zorder.zmerge"),
    ("repro.zorder.zmerge", "zmerge_all", "zorder.zmerge"),
    ("repro.zorder.zbtree", "build_zbtree", "zorder.build_zbtree"),
    ("repro.pipeline.preprocess", "preprocess", "pipeline.preprocess"),
    ("repro.extensions.kdominant", "k_dominant_skyline",
     "extensions.kdominant"),
    ("repro.extensions.subspace", "subspace_skyline", "extensions.subspace"),
    ("repro.extensions.ranking", "rank_skyline", "extensions.topk"),
    ("repro.extensions.ranking", "top_k_skyline", "extensions.topk"),
    ("repro.extensions.ranking", "dominance_scores", "extensions.topk"),
    ("repro.extensions.explain", "why_not", "extensions.explain"),
)


def _job_span(args: tuple, kwargs: dict) -> str:
    job = kwargs.get("job", args[1] if len(args) > 1 else None)
    name = getattr(job, "name", "")
    return "mapreduce.phase1" if name.startswith("phase1") else "mapreduce.phase2"


def _round_span(args: tuple, kwargs: dict) -> str:
    phase = str(kwargs.get("phase", args[1] if len(args) > 1 else ""))
    if phase.startswith("phase1"):
        if phase.endswith(":map"):
            return "mapreduce.phase1_map"
        if phase.endswith(":reduce"):
            return "mapreduce.phase1_reduce"
        return "mapreduce.phase1"
    return "mapreduce.phase2"


SpanName = Union[str, Callable[[tuple, dict], str]]

#: methods: (module, class, method, span name or namer)
METHODS: Tuple[Tuple[str, str, str, SpanName], ...] = (
    ("repro.mapreduce.runtime", "MapReduceRuntime", "run", _job_span),
    ("repro.mapreduce.cluster", "SimulatedCluster", "run_round", _round_span),
    ("repro.serving.router", "ShardedSkylineService", "_scatter",
     "router.scatter"),
    ("repro.serving.router", "ShardedSkylineService", "_merged_entry",
     "router.merge"),
    ("repro.serving.router", "ShardedSkylineService", "_alive_union",
     "router.merge"),
    ("repro.serving.router", "ShardedSkylineService", "_union_candidates",
     "router.merge"),
    ("repro.serving.service", "SkylineService", "_handle", "serving.service"),
    ("repro.serving.cache", "ResultCache", "lookup",
     "serving.result_cache_lookup"),
    ("repro.serving.cache", "MergeCache", "get",
     "serving.result_cache_lookup"),
    ("repro.serving.registry", "DatasetRegistry", "insert",
     "serving.registry_write"),
    ("repro.serving.registry", "DatasetRegistry", "delete",
     "serving.registry_write"),
    ("repro.serving.wal", "MutationWAL", "append", "serving.wal_append"),
    ("repro.serving.wal", "DatasetStore", "save_checkpoint",
     "serving.checkpoint"),
    ("repro.serving.snapshot", "Snapshot", "build", "serving.snapshot_build"),
    ("repro.maintenance.maintainer", "SkylineMaintainer", "insert_block",
     "maintenance.insert"),
    ("repro.maintenance.maintainer", "SkylineMaintainer", "delete",
     "maintenance.delete"),
    ("repro.streaming.feed", "IngestFeed", "flush", "streaming.flush"),
    ("repro.streaming.continuous", "ContinuousQueryManager", "on_publish",
     "streaming.continuous"),
    ("repro.streaming.hub", "SubscriptionHub", "on_publish", "streaming.hub"),
    ("repro.streaming.hub", "Subscription", "get", "streaming.drain"),
)

#: synthetic span: admission queue wait of a service request, from its
#: ticket's admission to the moment a worker picks it up
QUEUE_WAIT = "serving.queue_wait"

#: the root span of one benchmark op
OP = "op"


def span_names() -> List[str]:
    """Every span name the shims can record (the layer table)."""
    names = {name for _m, _f, name in FUNCTIONS}
    for _m, _c, _a, name in METHODS:
        if isinstance(name, str):
            names.add(name)
    names.update((
        "mapreduce.phase1", "mapreduce.phase1_map",
        "mapreduce.phase1_reduce", "mapreduce.phase2", QUEUE_WAIT,
    ))
    return sorted(names)


class SpanLog:
    """In-memory spans: ``[name, start, end, parent, op, thread]`` rows."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        try:
            return self._client[-1]
        except IndexError:
            return None

    def start(self, name: str) -> int:
        stack = self._stack()
        row = [name, clock(), None, self._parent(stack), self.op,
               threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index][2] = clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span on the calling thread (no children)."""
        row = [name, start, end, self._parent(self._stack()), self.op,
               threading.get_ident()]
        with self._lock:
            self.spans.append(row)

    # -- ops (client thread only) ---------------------------------------
    def begin_op(self, op: int) -> int:
        self.op = op
        self._client = self._stack()
        return self.start(OP)

    def end_op(self, index: int) -> None:
        self.finish(index)

    def export_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, thread in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread,
                }))
                handle.write("\n")


def _wrap(log: SpanLog, fn: Callable, name: SpanName) -> Callable:
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not log.enabled:
            return fn(*args, **kwargs)
        index = log.start(namer(args, kwargs) if namer else name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.finish(index)

    shim.__wrapped_by_perfbench__ = True
    return shim


def _wrap_handle(log: SpanLog, fn: Callable) -> Callable:
    """``SkylineService._handle``: a queue-wait span, then the request."""

    @functools.wraps(fn)
    def shim(self, item):
        if not log.enabled:
            return fn(self, item)
        now = clock()
        log.record(QUEUE_WAIT, item.ticket.admitted_at, now)
        index = log.start("serving.service")
        try:
            return fn(self, item)
        finally:
            log.finish(index)

    return shim


class Installed:
    """The patches applied by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _repro_modules() -> Iterable[object]:
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == "repro" or key.startswith("repro."))
    ]


def install(log: SpanLog) -> Installed:
    """Patch every traced entry point to record into ``log``."""
    done = Installed()
    for module_name, _fn, _span in FUNCTIONS:
        importlib.import_module(module_name)
    for module_name, *_rest in METHODS:
        importlib.import_module(module_name)
    # Load every module that binds a traced name so the scan finds it.
    for extra in ("repro.pipeline", "repro.pipeline.supervisor",
                  "repro.pipeline.phase1", "repro.pipeline.phase2",
                  "repro.algorithms.zs", "repro.serving", "repro.streaming"):
        importlib.import_module(extra)
    for module_name, fn_name, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], fn_name)
        shim = _wrap(log, original, span)
        for module in _repro_modules():
            if module.__dict__.get(fn_name) is original:
                done.set(module, fn_name, shim)
    for module_name, class_name, attr, span in METHODS:
        owner = getattr(sys.modules[module_name], class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            shim = classmethod(_wrap(log, raw.__func__, span))
        elif attr == "_handle":
            shim = _wrap_handle(log, raw)
        else:
            shim = _wrap(log, raw, span)
        done.set(owner, attr, shim)
    return done


# ----------------------------------------------------------------------
# self time and attribution
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(
    spans: List[list],
) -> Tuple[Dict[str, Dict[int, float]], Dict[int, float], Dict[int, float]]:
    """Self time per span name and op, plus each op's totals.

    Returns ``(self seconds by name then op, op seconds by op, op seconds
    no child span covers, by op)``.  A span's self time is its duration
    minus the part of it its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in spans:
        start, end, parent = row[1], row[2], row[3]
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    by_name: Dict[str, Dict[int, float]] = {}
    op_total: Dict[int, float] = {}
    op_uncovered: Dict[int, float] = {}
    for index, (name, start, end, _parent, op, _thread) in enumerate(spans):
        if end is None:
            continue
        own = (end - start) - _covered(children.get(index, []), start, end)
        if name == OP:
            op_total[op] = end - start
            op_uncovered[op] = own
        else:
            per_op = by_name.setdefault(name, {})
            per_op[op] = per_op.get(op, 0.0) + own
    return by_name, op_total, op_uncovered

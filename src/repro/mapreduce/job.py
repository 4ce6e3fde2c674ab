"""MapReduce job specification and task context.

A job is three callables over :class:`~repro.mapreduce.types.Block`
batches:

* ``mapper(block, ctx) -> iterable of (key, Block)``
* ``combiner(emitted, ctx) -> {key: list of Block}``   (optional)
* ``reducer(key, blocks, ctx) -> anything``

Keys are the integer group ids produced by the partition rule.  The
combiner runs once per map task: ``emitted`` is the task's whole keyed
output, ``{key: [Block, ...]}`` in first-emitted key order, and it
returns the blocks the task shuffles, keyed the same way.  Seeing every
key at once lets a combiner batch work across keys (the phase-1 ZS
combiner cuts all of a task's one-leaf groups in one pass).  The
:class:`TaskContext` hands tasks the distributed cache, the job counters
(a :class:`~repro.observability.metrics.MetricsRegistry`), and an
:class:`~repro.zorder.zbtree.OpCounter` whose total becomes the task's
abstract cost on the worker ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.exceptions import MapReduceError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import ClusterMetrics
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry
from repro.zorder.zbtree import OpCounter

Mapper = Callable[[Block, "TaskContext"], Iterable[Tuple[int, Block]]]
Combiner = Callable[
    [Dict[int, List[Block]], "TaskContext"], Dict[int, List[Block]]
]
Reducer = Callable[[int, List[Block], "TaskContext"], Any]


class TaskContext:
    """Per-task execution context.

    A task keeps two :class:`~repro.observability.metrics.MetricsRegistry`
    instances because their merge rules differ: ``counters`` reach the
    job only from the attempt whose output survives (Hadoop's rule),
    while ``metrics`` (optional) collects samples merged for every
    attempt that ran.  Without ``metrics`` :meth:`observe` degrades to a
    no-op so job code never branches.
    """

    def __init__(
        self,
        cache: DistributedCache,
        counters: MetricsRegistry,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cache = cache
        self.counters = counters
        self.ops = OpCounter()
        self.metrics = metrics

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample (no-op when metrics are off)."""
        if self.metrics is not None:
            self.metrics.observe(name, value)

    def cost_units(self, records: int = 0) -> int:
        """Abstract cost of the task: records touched + dominance work."""
        return int(records) + self.ops.total()


@dataclass
class MapReduceJob:
    """Declarative job: wire the three phases together."""

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Combiner] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise MapReduceError("job needs a non-empty name")


#: the ``group -> name`` counters that describe recovery activity
FAULT_COUNTER_KEYS: "tuple" = (
    ("map", "failed_attempts"),
    ("map", "worker_crashes"),
    ("map", "lost_map_outputs"),
    ("map", "reexecuted_tasks"),
    ("reduce", "failed_attempts"),
    ("reduce", "retries"),
    ("reduce", "lost_tasks"),
    ("shuffle", "corrupt_blocks"),
    ("shuffle", "refetched_bytes"),
    ("dfs", "skipped_outputs"),
)


def fault_counts(counters: MetricsRegistry) -> Dict[str, int]:
    """Flat ``"group.name" -> value`` view of the failure counters (all
    keys present, zero when the fault never fired)."""
    return {
        f"{group}.{name}": counters.counter(group, name)
        for group, name in FAULT_COUNTER_KEYS
    }


@dataclass
class JobResult:
    """Everything a driver learns from one executed job."""

    job_name: str
    outputs: Dict[int, Any]
    counters: MetricsRegistry
    map_metrics: ClusterMetrics
    reduce_metrics: ClusterMetrics
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    elapsed_seconds: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)
    #: metrics of the map re-execution round after a worker crash lost
    #: completed map output (None when no recovery round ran)
    recovery_metrics: Optional[ClusterMetrics] = None
    #: whole-job execution attempt (a supervisor-level retry runs the
    #: same job under attempt 1, 2, ...); 0 on a first execution
    attempt: int = 0

    @property
    def tagged_name(self) -> str:
        """Job name carrying the attempt tag — ``phase1@2`` — so a
        retried job is distinguishable in reports and fault summaries."""
        if self.attempt == 0:
            return self.job_name
        return f"{self.job_name}@{self.attempt}"

    def fault_summary(self) -> Dict[str, int]:
        """:func:`fault_counts` of the job's counters, plus the job's
        execution attempt under ``"job.attempt"``."""
        out = fault_counts(self.counters)
        out["job.attempt"] = self.attempt
        return out

    @property
    def recovery_cost(self) -> int:
        """Abstract cost spent re-executing lost map tasks."""
        if self.recovery_metrics is None:
            return 0
        return self.recovery_metrics.total_cost

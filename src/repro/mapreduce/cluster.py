"""Simulated cluster: workers, task placement, and cost ledgers.

Tasks are executed in-process but *attributed* to workers, giving two
complementary views of each job phase:

* **wall cost** — measured ``perf_counter`` seconds per task, optionally
  inflated by a per-worker slowdown factor (straggler fault injection:
  "faulty disk, server failure" from §1 become a deterministic multiplier
  on one worker's ledger);
* **abstract cost** — records processed plus dominance tests executed
  (from :class:`~repro.zorder.zbtree.OpCounter`), which is deterministic
  across hosts and is what the figure benchmarks report.

The *makespan* of a phase is the maximum per-worker total — the quantity
that degrades under data skew and stragglers, since a phase finishes only
when its slowest worker does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.exceptions import FaultInjectionError, MapReduceError
from repro.mapreduce.faults import FaultPlan, TransientTaskError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.observability.metrics import MetricsRegistry

T = TypeVar("T")

#: a task returns (result, abstract_cost_units)
Task = Callable[[], Tuple[T, int]]


@dataclass(frozen=True)
class LostTask:
    """Sentinel result for a task terminally lost in a *lenient* round.

    Hadoop's ``mapreduce.reduce.failures.maxpercent`` knob lets a job
    succeed despite a bounded fraction of failed reduce tasks; lenient
    rounds are that semantics: instead of aborting the round, the
    exhausted task's slot holds this sentinel and the caller decides
    what losing it means (the pipeline supervisor turns lost phase-1
    groups into a degraded partial skyline).
    """

    index: int
    error: MapReduceError


@dataclass
class WorkerLedger:
    """Accrued work of one worker within one phase."""

    worker_id: int
    tasks: int = 0
    wall_seconds: float = 0.0
    cost_units: int = 0
    speculative_copies: int = 0
    failed_attempts: int = 0
    backoff_seconds: float = 0.0


@dataclass
class ClusterMetrics:
    """Summary of one executed phase."""

    phase: str
    ledgers: List[WorkerLedger] = field(default_factory=list)
    #: effective worker id per task (after failed-worker rerouting) —
    #: the lineage the runtime uses to re-execute lost map output
    placements: Optional[List[int]] = None

    @property
    def makespan_seconds(self) -> float:
        """Wall-clock makespan: the slowest worker's total."""
        return max((w.wall_seconds for w in self.ledgers), default=0.0)

    @property
    def total_seconds(self) -> float:
        return sum(w.wall_seconds for w in self.ledgers)

    @property
    def makespan_cost(self) -> int:
        """Abstract-cost makespan (deterministic skew/straggler view)."""
        return max((w.cost_units for w in self.ledgers), default=0)

    @property
    def total_cost(self) -> int:
        return sum(w.cost_units for w in self.ledgers)

    def cost_skew(self) -> float:
        """Max-to-mean abstract cost over workers that did any work."""
        costs = np.asarray(
            [w.cost_units for w in self.ledgers if w.tasks > 0], dtype=np.float64
        )
        if costs.size == 0 or costs.mean() == 0:
            return 1.0
        return float(costs.max() / costs.mean())

    @property
    def speculative_copies(self) -> int:
        """Total speculative task re-executions in this phase."""
        return sum(w.speculative_copies for w in self.ledgers)

    @property
    def failed_attempts(self) -> int:
        """Total transient task-attempt failures (injected faults)."""
        return sum(w.failed_attempts for w in self.ledgers)

    @property
    def backoff_seconds(self) -> float:
        """Total accounted retry backoff across workers."""
        return sum(w.backoff_seconds for w in self.ledgers)

    def active_ledgers(self) -> List[WorkerLedger]:
        """Ledgers of workers that actually ran tasks this phase (the
        population the per-worker load-balance histograms are over)."""
        return [w for w in self.ledgers if w.tasks > 0]


class SimulatedCluster:
    """A fixed pool of workers executing task rounds.

    Parameters
    ----------
    num_workers:
        Worker pool size (the paper's reducer slots).
    slowdown_factors:
        Optional per-worker wall-time multipliers for straggler
        injection; length must equal ``num_workers``.
    fault_plan:
        Optional :class:`~repro.mapreduce.faults.FaultPlan`; injects
        transient per-attempt task failures, retried with
        exponential-backoff accounting up to ``max_attempts``.
    """

    def __init__(
        self,
        num_workers: int,
        slowdown_factors: Optional[Sequence[float]] = None,
        speculative: bool = False,
        speculation_threshold: float = 1.5,
        failed_workers: Optional[Sequence[int]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_workers <= 0:
            raise MapReduceError("num_workers must be positive")
        if slowdown_factors is not None:
            factors = list(slowdown_factors)
            if len(factors) != num_workers:
                raise MapReduceError(
                    "slowdown_factors must have one entry per worker"
                )
            if any(f <= 0 for f in factors):
                raise MapReduceError("slowdown factors must be positive")
        else:
            factors = [1.0] * num_workers
        if speculation_threshold <= 1.0:
            raise MapReduceError("speculation_threshold must be > 1")
        failed = set(int(w) for w in failed_workers or ())
        if any(not (0 <= w < num_workers) for w in failed):
            raise MapReduceError("failed worker id out of range")
        if len(failed) >= num_workers:
            raise MapReduceError("at least one worker must survive")
        self.num_workers = num_workers
        self.slowdown_factors = factors
        self.speculative = speculative
        self.speculation_threshold = speculation_threshold
        self.failed_workers = failed
        self.fault_plan = fault_plan
        self.history: List[ClusterMetrics] = []
        #: optional :class:`~repro.observability.metrics.MetricsRegistry`
        #: receiving live per-task wall-second samples; None (default)
        #: keeps the execution path observation-free
        self.observer: Optional["MetricsRegistry"] = None

    def run_round(
        self,
        phase: str,
        tasks: Sequence[Task],
        placement: Optional[Sequence[int]] = None,
        lenient: bool = False,
    ) -> List[T]:
        """Execute a round of tasks, attributing each to a worker.

        ``placement[i]`` pins task ``i`` to a worker; by default tasks go
        round-robin, which is how Hadoop spreads splits/reduce keys when
        counts exceed slots.  Returns task results in task order and
        appends a :class:`ClusterMetrics` entry to :attr:`history`.

        With ``lenient=True`` a task that exhausts its retry budget does
        not abort the round: its result slot holds a :class:`LostTask`
        and the remaining tasks still run.
        """
        placement = self._reroute_failures(
            self._placements(tasks, placement)
        )
        executions: List[Tuple[int, float, int, int, float]] = []
        results: List[T] = []
        for index, (task, worker) in enumerate(zip(tasks, placement)):
            result, cost, elapsed, failures, backoff = self._run_attempts(
                phase, index, task, lenient=lenient
            )
            # a lost task never ran: no wall sample, as on real executors
            if self.observer is not None and not isinstance(result, LostTask):
                self.observer.observe("cluster.task_seconds", elapsed)
            executions.append((worker, elapsed, cost, failures, backoff))
            results.append(result)
        ledgers = self._build_ledgers(executions)
        if self.speculative:
            self._apply_speculation(ledgers, executions)
        metrics = ClusterMetrics(
            phase=phase, ledgers=ledgers, placements=list(placement)
        )
        self.history.append(metrics)
        return results

    def _placements(
        self, tasks: Sequence, placement: Optional[Sequence[int]]
    ) -> List[int]:
        """The worker id of each task, validated; round-robin by
        default."""
        if placement is None:
            return [i % self.num_workers for i in range(len(tasks))]
        if len(placement) != len(tasks):
            raise MapReduceError("placement must have one entry per task")
        for worker in placement:
            if not (0 <= worker < self.num_workers):
                raise MapReduceError(f"worker id {worker} out of range")
        return list(placement)

    def _resolve_faults(
        self, phase: str, index: int
    ) -> Tuple[Optional[FaultInjectionError], int, float]:
        """Resolve one task's injected-failure schedule.

        Keyed draws are order-independent, so the schedule is the same
        whether it is resolved mid-run or before dispatch.  Returns
        ``(exhaustion_error_or_None, failed_attempts,
        backoff_seconds)``.
        """
        plan = self.fault_plan
        if plan is None:
            return None, 0, 0.0
        failures = 0
        backoff = 0.0
        attempt = 1
        while plan.task_attempt_fails(phase, index, attempt):
            failures += 1
            backoff += plan.backoff_seconds(attempt)
            if attempt >= plan.max_attempts:
                error = FaultInjectionError(
                    f"task {index} in phase {phase!r} exhausted "
                    f"{plan.max_attempts} attempts"
                )
                error.__cause__ = TransientTaskError(
                    f"injected failure on attempt {attempt}"
                )
                return error, failures, backoff
            attempt += 1
        return None, failures, backoff

    def _run_attempts(
        self, phase: str, index: int, task: Task, lenient: bool = False
    ) -> Tuple[T, int, float, int, float]:
        """Run one task under the fault plan's retry loop.

        Injected failures strike *before* the task body runs (the
        attempt dies on startup), so a retried task never double-counts
        job counters or abstract cost.  Returns ``(result, cost,
        elapsed_seconds, failed_attempts, backoff_seconds)``.  In
        lenient mode budget exhaustion yields a :class:`LostTask`
        result (cost 0) instead of raising.
        """
        error, failures, backoff = self._resolve_faults(phase, index)
        if error is not None:
            if lenient:
                return (
                    LostTask(index, error),  # type: ignore[return-value]
                    0,
                    0.0,
                    failures,
                    backoff,
                )
            raise error
        start = time.perf_counter()
        result, cost = task()
        elapsed = time.perf_counter() - start
        return result, int(cost), elapsed, failures, backoff

    def _reroute_failures(self, placement: List[int]) -> List[int]:
        """Worker-crash fault injection: tasks placed on failed workers
        are retried on the surviving ones (round-robin), modelling the
        paper's "server failure" straggler cause with Hadoop's
        re-execution semantics.  Retries are counted on the ledger via
        the surviving worker's task count (the lost attempt costs
        nothing in our model: the crash happens before the attempt)."""
        if not self.failed_workers:
            return placement
        survivors = [
            w for w in range(self.num_workers)
            if w not in self.failed_workers
        ]
        cursor = 0
        rerouted = []
        for worker in placement:
            if worker in self.failed_workers:
                rerouted.append(survivors[cursor % len(survivors)])
                cursor += 1
            else:
                rerouted.append(worker)
        return rerouted

    def _build_ledgers(
        self, executions: List[Tuple[int, float, int, int, float]]
    ) -> List[WorkerLedger]:
        ledgers = [WorkerLedger(w) for w in range(self.num_workers)]
        for worker, elapsed, cost, failures, backoff in executions:
            ledger = ledgers[worker]
            ledger.tasks += 1
            # Backoff is retry *waiting*, not compute: it is not scaled
            # by the worker's slowdown factor.
            ledger.wall_seconds += (
                elapsed * self.slowdown_factors[worker] + backoff
            )
            ledger.cost_units += cost
            ledger.failed_attempts += failures
            ledger.backoff_seconds += backoff
        return ledgers

    def _apply_speculation(
        self,
        ledgers: List[WorkerLedger],
        executions: List[Tuple[int, float, int, int, float]],
    ) -> None:
        """Speculative task re-execution (Hadoop's straggler cure).

        Deterministic model: while one worker's wall time exceeds
        ``speculation_threshold`` times the mean, its largest task is
        re-executed on the currently fastest worker; the backup copy
        wins, the original attempt is killed halfway (half its time is
        still wasted on the slow worker).  This cures *environmental*
        stragglers (slow machines) but not *algorithmic* skew — a huge
        task is huge on every worker — which is exactly the distinction
        the paper's grouping is motivated by.
        """
        # Remaining task queues by worker (intrinsic seconds).
        queues: List[List[float]] = [[] for _ in range(self.num_workers)]
        for worker, elapsed, _cost, _failures, _backoff in executions:
            queues[worker].append(elapsed)
        for _round in range(len(executions)):
            walls = [w.wall_seconds for w in ledgers]
            mean = sum(walls) / len(walls)
            slowest = max(range(len(walls)), key=lambda w: walls[w])
            if mean == 0 or walls[slowest] <= self.speculation_threshold * mean:
                break
            if not queues[slowest]:
                break
            backup = min(range(len(walls)), key=lambda w: walls[w])
            if backup == slowest:
                break
            base = max(queues[slowest])
            saved = base * self.slowdown_factors[slowest]
            added = base * self.slowdown_factors[backup]
            # Only speculate when the backup genuinely finishes earlier.
            if walls[backup] + added >= walls[slowest]:
                break
            queues[slowest].remove(base)
            ledgers[slowest].wall_seconds -= saved / 2.0  # killed halfway
            ledgers[backup].wall_seconds += added
            ledgers[backup].speculative_copies += 1

    def publish_cache(self, cache) -> None:
        """Make the distributed cache readable by every worker (no-op
        in process: tasks read the coordinator's cache directly)."""

    def shutdown(self) -> None:
        """Release executor resources (no-op for in-process clusters)."""

    def metrics_for(self, phase: str) -> ClusterMetrics:
        """Most recent metrics entry for a phase name."""
        for metrics in reversed(self.history):
            if metrics.phase == phase:
                return metrics
        raise MapReduceError(f"no executed phase named {phase!r}")

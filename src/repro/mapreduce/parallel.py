"""Real-executor rounds: one shared round, run on threads or processes.

The default :class:`~repro.mapreduce.cluster.SimulatedCluster` executes
tasks sequentially and *attributes* them to workers — deterministic and
ideal for the figure benchmarks.  :class:`PooledCluster` is the round
of the executors that run tasks for real: it resolves every task's
fault schedule up front (keyed draws are order-independent, so the
schedule is the one a mid-run resolve would give), builds one queue per
worker, hands the queues to a pool that runs :func:`drain_queue` on
each, and raises the lowest-index error after the ledgers are built.
Subclasses differ only in :meth:`PooledCluster._drain` — the pool that
runs the queues:

* :class:`ThreadedCluster` runs each worker's queue on its own thread:
  numpy releases the GIL inside the vectorised dominance kernels, so the
  phases genuinely overlap;
* :class:`~repro.mapreduce.procpool.ProcessPoolCluster` runs each queue
  in a worker process.

Cost accounting is identical to the simulated cluster (and still
deterministic); only the measured wall times change.  Straggler
*injection* (slowdown factors, pre-declared failed workers,
speculation) is not supported — slowdown factors would have to actually
sleep; use the simulated cluster for those studies.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigurationError, MapReduceError
from repro.mapreduce.cluster import ClusterMetrics, LostTask, SimulatedCluster
from repro.mapreduce.faults import FaultPlan

#: one worker's queue: ``(task index, task)`` in dispatch order
Queue = List[Tuple[int, object]]

#: one drained task: ``(index, error_or_None, result, cost, elapsed)``
Drained = Tuple[int, Optional[MapReduceError], object, int, float]


def drain_queue(phase: str, worker_id: int, items: Queue) -> List[Drained]:
    """Run one worker's task queue serially.

    One task's failure must not abort the rest of the queue: each task
    is isolated, and its error comes back as data, wrapped with
    phase/task/worker context.  (Across a process boundary the
    ``__cause__`` link does not survive pickling; the message keeps the
    original error's repr.)
    """
    out: List[Drained] = []
    for index, task in items:
        start = time.perf_counter()
        try:
            result, cost = task()  # type: ignore[operator]
        except Exception as exc:  # noqa: BLE001 — isolation point
            if isinstance(exc, MapReduceError):
                wrapped = exc
            else:
                wrapped = MapReduceError(
                    f"task {index} in phase {phase!r} failed "
                    f"on worker {worker_id}: {exc!r}"
                )
                wrapped.__cause__ = exc
            out.append((index, wrapped, None, 0, 0.0))
            continue
        out.append((index, None, result, int(cost), time.perf_counter() - start))
    return out


class PooledCluster(SimulatedCluster):
    """The round shared by the executors whose workers are real."""

    def __init__(
        self, num_workers: int, fault_plan: Optional[FaultPlan] = None
    ) -> None:
        super().__init__(num_workers, fault_plan=fault_plan)

    def run_round(
        self,
        phase: str,
        tasks: Sequence,
        placement: Optional[Sequence[int]] = None,
        lenient: bool = False,
    ) -> List:
        self._check_unsupported()
        placement = self._placements(tasks, placement)
        results: List = [None] * len(tasks)
        # index -> (worker, elapsed, cost, failures, backoff); ledgers
        # are built in task order, as on the simulated cluster
        executions: Dict[int, Tuple[int, float, int, int, float]] = {}
        errors: List[Tuple[int, MapReduceError]] = []
        faults: Dict[int, Tuple[int, float]] = {}
        queues: List[Queue] = [[] for _ in range(self.num_workers)]
        for index, (task, worker) in enumerate(zip(tasks, placement)):
            # Injected failures strike before the task body runs, so
            # the whole schedule is known before dispatch.
            error, failures, backoff = self._resolve_faults(phase, index)
            if error is None:
                faults[index] = (failures, backoff)
                queues[worker].append((index, task))
            elif lenient:
                results[index] = LostTask(index, error)
                executions[index] = (worker, 0.0, 0, failures, backoff)
            else:
                errors.append((index, error))
        drained = self._drain(phase, queues) if any(queues) else []
        for index, error, result, cost, elapsed in drained:
            if error is not None:
                errors.append((index, error))
                continue
            results[index] = result
            executions[index] = (placement[index], elapsed, cost) + faults[index]
            if self.observer is not None:
                self.observer.observe("cluster.task_seconds", elapsed)
        self.history.append(
            ClusterMetrics(
                phase=phase,
                ledgers=self._build_ledgers(
                    [executions[index] for index in sorted(executions)]
                ),
                placements=placement,
            )
        )
        if errors:
            raise min(errors, key=lambda pair: pair[0])[1]
        return results

    def _drain(self, phase: str, queues: List[Queue]) -> List[Drained]:
        """Run every non-empty queue with :func:`drain_queue`, one
        worker at a time per queue, and return all drained tasks."""
        raise NotImplementedError

    def _check_unsupported(self) -> None:
        """Simulation-only knobs must not be silently ignored.

        Real executors take only ``num_workers`` and ``fault_plan`` but
        inherit the ``slowdown_factors`` / ``failed_workers`` /
        ``speculative`` attributes, which can be set on an instance
        directly; honouring them is impossible (they model time, and
        real workers measure it), so producing metrics that quietly
        ignore them would be wrong.  Fail loudly instead.
        """
        unsupported = []
        if any(f != 1.0 for f in self.slowdown_factors):
            unsupported.append("slowdown_factors")
        if self.failed_workers:
            unsupported.append("failed_workers")
        if self.speculative:
            unsupported.append("speculative")
        if unsupported:
            raise ConfigurationError(
                f"{type(self).__name__} does not support "
                f"{', '.join(unsupported)}; use SimulatedCluster for "
                f"straggler/failed-worker studies"
            )


class ThreadedCluster(PooledCluster):
    """A cluster whose workers are real threads."""

    def _drain(self, phase: str, queues: List[Queue]) -> List[Drained]:
        with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            futures = [
                pool.submit(drain_queue, phase, worker_id, queue)
                for worker_id, queue in enumerate(queues)
                if queue
            ]
            return [item for future in futures for item in future.result()]

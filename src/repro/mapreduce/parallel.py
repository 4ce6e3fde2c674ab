"""Threaded task execution for real wall-clock parallelism.

The default :class:`~repro.mapreduce.cluster.SimulatedCluster` executes
tasks sequentially and *attributes* them to workers — deterministic and
ideal for the figure benchmarks.  :class:`ThreadedCluster` additionally
runs each worker's task queue on its own thread: numpy releases the GIL
inside the vectorised dominance kernels, so the phases genuinely
overlap.  Cost accounting is identical (and still deterministic); only
the measured wall times change.

Straggler *injection* (slowdown factors, pre-declared failed workers,
speculation) is not supported here — slowdown factors would have to
actually sleep; use the simulated cluster for those studies.  Seeded
:class:`~repro.mapreduce.faults.FaultPlan` injection *is* supported:
its decisions are keyed draws independent of execution order, so the
fault schedule stays deterministic even under thread racing.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.core.exceptions import MapReduceError
from repro.mapreduce.cluster import ClusterMetrics, SimulatedCluster
from repro.mapreduce.faults import FaultPlan


class ThreadedCluster(SimulatedCluster):
    """A cluster whose workers are real threads."""

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

        # One queue per worker preserves the deterministic attribution.
        queues: List[List[Tuple[int, object]]] = [
            [] for _ in range(self.num_workers)
        ]
        for index, (task, worker) in enumerate(zip(tasks, placement)):
            queues[worker].append((index, task))

        results: List = [None] * len(tasks)
        # (worker, elapsed, cost, failures, backoff) per finished task;
        # each worker's entries stay in its queue order
        executions: List[Tuple[int, float, int, int, float]] = []
        errors: List[Tuple[int, MapReduceError]] = []
        lock = threading.Lock()

        def drain(worker_id: int) -> None:
            # One task's failure must not abort the rest of this
            # worker's queue: isolate per task, wrap with phase/task
            # context, keep draining.
            for index, task in queues[worker_id]:
                try:
                    result, cost, elapsed, failures, backoff = (
                        self._run_attempts(phase, index, task, lenient=lenient)
                    )
                except Exception as exc:  # noqa: BLE001 — isolation point
                    if isinstance(exc, MapReduceError):
                        wrapped = exc
                    else:
                        wrapped = MapReduceError(
                            f"task {index} in phase {phase!r} failed "
                            f"on worker {worker_id}: {exc!r}"
                        )
                        wrapped.__cause__ = exc
                    with lock:
                        errors.append((index, wrapped))
                    continue
                with lock:
                    executions.append(
                        (worker_id, elapsed, cost, failures, backoff)
                    )
                results[index] = result
                # The registry is thread-safe; worker threads observe
                # concurrently without coordination.
                if self.observer is not None:
                    self.observer.observe("cluster.task_seconds", elapsed)

        if tasks:
            with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
                futures = [
                    pool.submit(drain, worker_id)
                    for worker_id in range(self.num_workers)
                    if queues[worker_id]
                ]
                for future in futures:
                    future.result()  # re-raise drain-level failures
        metrics = ClusterMetrics(
            phase=phase,
            ledgers=self._build_ledgers(executions),
            placements=placement,
        )
        self.history.append(metrics)
        if errors:
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return results

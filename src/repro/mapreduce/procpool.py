"""Process-pool task execution: true multicore parallelism.

:class:`ProcessPoolCluster` is the third executor.  Where the threaded
cluster relies on numpy releasing the GIL, this one ships each worker's
task queue to a real worker *process*, so Python-level work parallelises
too.  The model is share-nothing, Hadoop-style:

* the distributed cache is pickled once per pool and installed in every
  worker by the pool initializer (:func:`publish_cache`);
* task payloads must be **picklable** — the runtime sends small payload
  objects (see ``MapReduceRuntime``'s remote dispatch path) instead of
  closures;
* large Block arrays ride a per-round ``multiprocessing.shared_memory``
  segment as zero-copy views (:mod:`repro.mapreduce.shm`) instead of the
  pickle pipe;
* results come back as plain data: each task's counters, metric
  observations, and kernel-stats deltas travel explicitly and are merged
  coordinator-side — nothing depends on shared mutable state.

Determinism: seeded :class:`~repro.mapreduce.faults.FaultPlan` draws are
keyed and order-independent, so the coordinator resolves every task's
fault schedule *before* dispatch — injected failures strike before the
task body runs, exactly like the other executors — and only the
surviving attempts cross the process boundary.  Cost accounting and
counters therefore match the simulated cluster bit for bit; only the
measured wall seconds differ.

Straggler injection (slowdown factors, pre-declared failed workers,
speculation) is rejected, as on the threaded cluster.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.core.exceptions import MapReduceError
from repro.mapreduce.cluster import (
    ClusterMetrics,
    LostTask,
    SimulatedCluster,
)
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.shm import pack_blocks


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
_WORKER_CACHE = None


def _init_worker(cache_bytes: Optional[bytes]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = None if cache_bytes is None else pickle.loads(cache_bytes)


def worker_cache():
    """The :class:`~repro.mapreduce.cache.DistributedCache` installed in
    this pool worker (raises when the pool was built without one)."""
    if _WORKER_CACHE is None:
        raise MapReduceError(
            "no distributed cache was published to this pool worker"
        )
    return _WORKER_CACHE


def _process_cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process so far."""
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        return float(usage.ru_utime + usage.ru_stime)
    except ImportError:  # pragma: no cover - non-Unix
        times = os.times()
        return float(times.user + times.system)


def _drain_worker(
    phase: str, worker_id: int, items: List[Tuple[int, object]]
) -> List[Tuple[int, str, object, float, float]]:
    """Run one worker's task queue serially inside a pool process.

    Mirrors ``ThreadedCluster``'s drain: one task's failure must not
    abort the rest of the queue, so each task is isolated and errors
    come back as data (exceptions must cross the pickle boundary, so
    context is folded into the message instead of ``__cause__``).

    Each surviving task carries two clocks home: wall-clock ``elapsed``
    and the process's *CPU* delta (``getrusage``) across the task body.
    The queue is drained serially in a dedicated process, so the delta
    is attributable to the task; it is what lets the fig-7 load-balance
    bench compare the simulated cost model against real core-seconds.
    """
    out: List[Tuple[int, str, object, float, float]] = []
    for index, task in items:
        start = time.perf_counter()
        cpu_start = _process_cpu_seconds()
        try:
            result, cost = task()
        except Exception as exc:  # noqa: BLE001 — isolation point
            if isinstance(exc, MapReduceError):
                wrapped = exc
            else:
                wrapped = MapReduceError(
                    f"task {index} in phase {phase!r} failed "
                    f"on worker {worker_id}: {exc!r}"
                )
            out.append((index, "error", wrapped, 0.0, 0.0))
            continue
        elapsed = time.perf_counter() - start
        cpu = max(0.0, _process_cpu_seconds() - cpu_start)
        if hasattr(result, "cpu_seconds"):
            result.cpu_seconds = cpu
        out.append((index, "ok", (result, int(cost)), elapsed, cpu))
    return out


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class ProcessPoolCluster(SimulatedCluster):
    """A cluster whose workers are real processes."""

    def __init__(
        self,
        num_workers: int,
        fault_plan: Optional[FaultPlan] = None,
        use_shm: bool = True,
    ) -> None:
        super().__init__(num_workers, fault_plan=fault_plan)
        self.remote = True
        self.use_shm = use_shm
        self._pool: Optional[ProcessPoolExecutor] = None
        self._cache_bytes: Optional[bytes] = None

    # -- pool lifecycle ------------------------------------------------
    def publish_cache(self, cache) -> None:
        """Install a distributed cache in every pool worker.

        The cache is forced through ``pickle`` here — the same bytes a
        real cluster would ship — and handed to each worker's
        initializer.  Re-publishing identical bytes is a no-op; new
        bytes retire the current pool so the next round starts workers
        with the new cache.
        """
        payload = pickle.dumps(cache, protocol=pickle.HIGHEST_PROTOCOL)
        if payload != self._cache_bytes:
            self.shutdown()
            self._cache_bytes = payload

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._cache_bytes,),
            )
        return self._pool

    def shutdown(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.shutdown()
        except Exception:
            pass

    # -- execution -----------------------------------------------------
    def _externalize(self, tasks: Sequence) -> Tuple[List, Optional[object]]:
        """Swap each task's Blocks for shared-memory descriptors.

        Returns shipping copies (originals keep their inline Blocks so a
        later re-dispatch — e.g. lineage recovery — can re-pack into a
        fresh segment) plus the round's segment handle, if one was
        worth creating.
        """
        shipping = list(tasks)
        if not self.use_shm:
            return shipping, None
        blocks: List = []
        spans: List[Optional[Tuple[int, int]]] = []
        for task in tasks:
            getter = getattr(task, "shm_payload_blocks", None)
            if getter is None:
                spans.append(None)
                continue
            task_blocks = getter()
            spans.append((len(blocks), len(task_blocks)))
            blocks.extend(task_blocks)
        if not blocks:
            return shipping, None
        segment, refs = pack_blocks(blocks)
        if segment is None:
            return shipping, None
        for position, task in enumerate(tasks):
            span = spans[position]
            if span is None:
                continue
            start, count = span
            shipping[position] = task.with_shm_blocks(
                refs[start:start + count]
            )
        return shipping, segment

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
        errors: List[Tuple[int, MapReduceError]] = []
        # (worker, elapsed, cost, failures, backoff) per surviving task —
        # the same execution tuples the simulated cluster ledgers.
        executions: List[Tuple[int, float, int, int, float]] = []
        fault_of = {}
        queues: List[List[Tuple[int, object]]] = [
            [] for _ in range(self.num_workers)
        ]
        shipping, segment = self._externalize(tasks)
        try:
            for index, worker in enumerate(placement):
                error, failures, backoff = self._resolve_faults(phase, index)
                fault_of[index] = (failures, backoff)
                if error is not None:
                    if lenient:
                        results[index] = LostTask(index, error)
                        executions.append((worker, 0.0, 0, failures, backoff))
                    else:
                        errors.append((index, error))
                    continue
                queues[worker].append((index, shipping[index]))

            pool = self._ensure_pool()
            futures = [
                pool.submit(_drain_worker, phase, worker_id, queue)
                for worker_id, queue in enumerate(queues)
                if queue
            ]
            for future in futures:
                for index, status, payload, elapsed, cpu in future.result():
                    worker = placement[index]
                    if status == "error":
                        errors.append((index, payload))
                        continue
                    result, cost = payload
                    failures, backoff = fault_of[index]
                    executions.append(
                        (worker, elapsed, cost, failures, backoff)
                    )
                    results[index] = result
                    if self.observer is not None:
                        self.observer.observe("cluster.task_seconds", elapsed)
                        self.observer.observe(
                            "cluster.task_cpu_seconds", cpu
                        )
        finally:
            if segment is not None:
                segment.close()

        metrics = ClusterMetrics(
            phase=phase,
            ledgers=self._build_ledgers(executions),
            placements=list(placement),
        )
        self.history.append(metrics)
        if errors:
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return results


__all__ = ["ProcessPoolCluster", "worker_cache"]

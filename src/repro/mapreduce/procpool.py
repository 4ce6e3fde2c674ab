"""Process-pool task execution: true multicore parallelism.

:class:`ProcessPoolCluster` is the third executor.  Where the threaded
cluster relies on numpy releasing the GIL, this one ships each worker's
task queue to a real worker *process*, so Python-level work parallelises
too.  It runs the round every real executor shares
(:class:`~repro.mapreduce.parallel.PooledCluster`) and differs only in
its drain, which is share-nothing, Hadoop-style:

* the distributed cache is pickled once per pool and installed in every
  worker by the pool initializer (:meth:`ProcessPoolCluster.publish_cache`);
  tasks must be picklable — the runtime's one task form
  (``MapTask`` / ``ReduceTask``) is, and drops its cache reference when
  pickled, so a task in a worker reads the published copy;
* large Block arrays ride a per-round ``multiprocessing.shared_memory``
  segment as zero-copy views (:mod:`repro.mapreduce.shm`) instead of the
  pickle pipe;
* results come back as plain data.  Two process-local clocks travel
  with each task: its CPU seconds (the ``cluster.task_cpu_seconds``
  histogram) and the kernel-stats delta the worker's cache codec
  accrued, which the drain merges into the coordinator cache's codec.

Determinism: the shared round resolves every task's fault schedule
before dispatch, so only the surviving attempts cross the process
boundary.  Cost accounting and counters match the simulated cluster bit
for bit; only the measured wall seconds differ.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import MapReduceError
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.parallel import Drained, PooledCluster, Queue, drain_queue
from repro.mapreduce.shm import RoundSegment, pack_blocks
from repro.mapreduce.types import Block


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


def _kernel_stats_objects(cache) -> List:
    """Distinct ``KernelStats`` objects reachable from cache entries
    (deterministic key order, deduplicated by identity — the codec is
    typically referenced by several entries)."""
    found: List = []
    for key in sorted(cache or ()):
        stats = getattr(cache.get(key), "kernel_stats", None)
        if stats is not None and all(stats is not seen for seen in found):
            found.append(stats)
    return found


def _measured(task):
    """Wrap one task with the process-local clocks it carries home.

    ``KernelStats`` deliberately pickles empty, so the cache codec's
    kernel counts a task accrues must travel as an explicit delta:
    reset before the body, snapshot after.  The queue is drained
    serially in a dedicated process, so both that delta and the
    process's CPU delta (``getrusage``) are attributable to the task —
    the CPU seconds are what let the fig-7 load-balance bench compare
    the simulated cost model against real core-seconds.
    """

    def run():
        stats_objects = _kernel_stats_objects(_WORKER_CACHE)
        for stats in stats_objects:
            stats.reset()
        cpu_start = _process_cpu_seconds()
        result, cost = task()
        cpu = max(0.0, _process_cpu_seconds() - cpu_start)
        delta: Dict[str, int] = {}
        for stats in stats_objects:
            for name, value in stats.snapshot().items():
                delta[name] = delta.get(name, 0) + int(value)
        return (result, cpu, delta), cost

    return run


def _drain_worker(phase: str, worker_id: int, items: Queue) -> List[Drained]:
    """Pool entry point: one worker's queue through :func:`drain_queue`,
    each task measured by :func:`_measured`."""
    return drain_queue(
        phase, worker_id, [(index, _measured(task)) for index, task in items]
    )


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class ProcessPoolCluster(PooledCluster):
    """A cluster whose workers are real processes."""

    def __init__(
        self, num_workers: int, fault_plan: Optional[FaultPlan] = None
    ) -> None:
        super().__init__(num_workers, fault_plan=fault_plan)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._cache_bytes: Optional[bytes] = None
        #: the coordinator's cache, where worker kernel-stats deltas land
        self._cache = None

    # -- pool lifecycle ------------------------------------------------
    def publish_cache(self, cache) -> None:
        """Install a distributed cache in every pool worker.

        The cache is forced through ``pickle`` here — the same bytes a
        real cluster would ship — and handed to each worker's
        initializer.  Re-publishing identical bytes is a no-op; new
        bytes retire the current pool so the next round starts workers
        with the new cache.
        """
        self._cache = cache
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
    def _externalize(
        self, queues: List[Queue]
    ) -> Tuple[List[Queue], Optional[RoundSegment]]:
        """Swap each queued task's Blocks for shared-memory descriptors.

        Returns shipping queues of task copies (originals keep their
        inline Blocks so a later re-dispatch — e.g. lineage recovery —
        can re-pack into a fresh segment) plus the round's segment, if
        the payload was large enough to be worth one.
        """
        tasks = [task for queue in queues for _index, task in queue]
        blocks: List[Block] = []
        spans: List[Tuple[int, int]] = []
        for task in tasks:
            getter = getattr(task, "shm_payload_blocks", None)
            task_blocks = getter() if getter is not None else []
            spans.append((len(blocks), len(task_blocks)))
            blocks.extend(task_blocks)
        segment, refs = pack_blocks(blocks)
        if segment is None:
            return queues, None
        shipping = iter([
            task.with_shm_blocks(refs[start:start + count]) if count else task
            for task, (start, count) in zip(tasks, spans)
        ])
        return [
            [(index, next(shipping)) for index, _task in queue]
            for queue in queues
        ], segment

    def _drain(self, phase: str, queues: List[Queue]) -> List[Drained]:
        queues, segment = self._externalize(queues)
        try:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_drain_worker, phase, worker_id, queue)
                for worker_id, queue in enumerate(queues)
                if queue
            ]
            drained = [item for future in futures for item in future.result()]
        finally:
            if segment is not None:
                segment.close()
        stats_objects = _kernel_stats_objects(self._cache)
        out: List[Drained] = []
        for index, error, measured, cost, elapsed in drained:
            result = None
            if error is None:
                result, cpu, delta = measured  # type: ignore[misc]
                if self.observer is not None:
                    self.observer.observe("cluster.task_cpu_seconds", cpu)
                if delta and stats_objects:
                    stats_objects[0].merge_snapshot(delta)
            out.append((index, error, result, cost, elapsed))
        return out


__all__ = ["ProcessPoolCluster", "worker_cache"]

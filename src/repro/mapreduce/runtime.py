"""The engine: executes a job's map → combine → shuffle → reduce rounds.

Execution model (matching Hadoop's semantics at block granularity):

1. one **map task** per input split; its emitted ``(key, Block)`` pairs
   are grouped per task by key, and the task's whole keyed output runs
   through the **combiner** in one call before leaving the mapper (this
   is where the paper's local-skyline combiners cut the shuffle
   volume);
2. the **shuffle** gathers combiner outputs by key across all map tasks,
   accounting records and bytes moved;
3. one **reduce task** per key, placed round-robin over workers (keys
   are group ids, so reducer load mirrors the grouping quality).

Fault tolerance (active when a
:class:`~repro.mapreduce.faults.FaultPlan` is attached):

* transient task-attempt failures are retried by the cluster itself
  (see :meth:`SimulatedCluster._run_attempts`);
* a worker crashing at the end of the map round loses its completed map
  output; the runtime keeps a **lineage map** from input split to the
  worker that produced its output, so only the lost map tasks re-run
  (on the survivors) before the shuffle — Hadoop's re-execution
  semantics;
* every shuffled block is **checksum-verified**; a corrupted fetch is
  detected and re-fetched from the retained map output.

Job counters follow Hadoop's only-successful-attempts rule: map tasks
accumulate into per-attempt counter registries that are merged into the
job counters only for the attempt whose output actually survives, so a
faulted run reports the same ``map.*``/``phase1.*`` record counts as a
clean one.  The recovery work itself is observable through
``map.failed_attempts``, ``map.worker_crashes``, ``map.lost_map_outputs``,
``reduce.retries``, and ``shuffle.corrupt_blocks``.

One task form: every executor runs the same picklable :class:`MapTask`
and :class:`ReduceTask` objects.  Each returns a :class:`TaskRecord`
(output, per-task counters, metric samples, span attributes, and its
own start/elapsed time) that the runtime merges in task/key order
through one path, whichever executor ran it — in process, on worker
threads, or in pool worker processes.

Observability: when a :class:`~repro.observability.tracer.Tracer` is
attached, the runtime emits a span per job, per phase (map / shuffle /
reduce), and per task, with records in/out, dominance-test counts, and
shuffle volume as span attributes.  Task spans are materialised from
the records with the tasks' measured start and end.  A map attempt
whose output is lost to a worker crash has its span marked superseded,
so aggregating non-superseded span attributes reproduces the job
counters exactly.  The default tracer is the shared no-op
(:data:`~repro.observability.tracer.NULL_TRACER`) and span
materialisation is guarded on ``tracer.enabled``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DeadlineExceededError, MapReduceError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import ClusterMetrics, LostTask, SimulatedCluster
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import (
    Combiner,
    JobResult,
    MapReduceJob,
    Mapper,
    Reducer,
    TaskContext,
)
from repro.mapreduce.procpool import worker_cache
from repro.mapreduce.shm import resolve_block
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, SUPERSEDED, Span, Tracer


@dataclass(frozen=True)
class ReducePolicy:
    """How the reduce phase treats terminal task loss and deadlines.

    lenient:
        A reduce task that exhausts its retry budget
        (:class:`~repro.core.exceptions.FaultInjectionError`) loses its
        key instead of aborting the job — Hadoop's
        ``mapreduce.reduce.failures.maxpercent`` semantics.  Lost keys
        are reported in ``JobResult.extras`` (see below) so a caller
        can degrade gracefully.
    deadline:
        Optional ``time.monotonic()`` timestamp.  A reduce task that
        has not *started* by the deadline raises
        :class:`~repro.core.exceptions.DeadlineExceededError` (strict)
        or loses its key (lenient).

    With ``lenient=True`` the job result's ``extras`` carry:

    * ``"lost_keys"`` — sorted lost reduce keys;
    * ``"lost_reasons"`` — ``{key: str(error)}``;
    * ``"lost_floors"`` — ``{key: per-dimension minimum}`` over the
      blocks shuffled for that key (Hadoop retains map-output index
      metadata even when a reducer dies; the componentwise floor is the
      cheap sound bound a degraded merge needs to certify that a
      surviving point cannot be dominated by anything the lost key
      held);
    * ``"reduce_input_records"`` — ``{key: shuffled records}`` for
      coverage accounting.
    """

    lenient: bool = False
    deadline: Optional[float] = None


# ----------------------------------------------------------------------
# the task form: one picklable map task and one reduce task, run by every
# executor (in process, on worker threads, or in pool worker processes)
# ----------------------------------------------------------------------


@dataclass
class TaskRecord:
    """Everything one map or reduce task hands back to the runtime.

    The runtime merges records in task/key order through one path for
    every executor: counters only for attempts whose output survives,
    metric samples for every attempt that ran, and a span timed by the
    task's own ``perf_counter`` stamps.
    """

    payload: object
    counters: MetricsRegistry = field(default_factory=MetricsRegistry)
    span_attrs: Dict[str, object] = field(default_factory=dict)
    #: the task's ``ctx.metrics`` samples (counters, histograms); None
    #: when the run collects no metrics
    metrics: Optional[MetricsRegistry] = None
    start: float = 0.0
    elapsed: float = 0.0


@dataclass
class _Task:
    """What map and reduce tasks share: the cache and the record.

    ``cache`` is the coordinator's distributed cache.  It never crosses
    a process boundary — pickling drops it — so a task unpickled in a
    pool worker reads the copy published to that worker instead.
    ``collect_metrics`` gives the task a registry of its own for
    ``ctx.metrics``; without one ``ctx.observe`` is a no-op.
    """

    cache: Optional[DistributedCache]
    collect_metrics: bool

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["cache"] = None
        return state

    def _context(self) -> TaskContext:
        cache = self.cache if self.cache is not None else worker_cache()
        metrics = MetricsRegistry() if self.collect_metrics else None
        return TaskContext(cache, MetricsRegistry(), metrics=metrics)

    @staticmethod
    def _record(
        payload: object,
        ctx: TaskContext,
        records_in: int,
        records_out: int,
        start: float,
    ) -> Tuple[TaskRecord, int]:
        # the dominance-test counts the paper's §5.4 pruning analysis
        # reports, folded into the task's counter set
        if ctx.ops.point_tests:
            ctx.counters.inc("dominance", "point_tests", ctx.ops.point_tests)
        if ctx.ops.region_tests:
            ctx.counters.inc("dominance", "region_tests", ctx.ops.region_tests)
        record = TaskRecord(
            payload=payload,
            counters=ctx.counters,
            span_attrs={
                "records_in": records_in,
                "records_out": records_out,
                "dominance_point_tests": ctx.ops.point_tests,
                "dominance_region_tests": ctx.ops.region_tests,
            },
            metrics=ctx.metrics,
            start=start,
            elapsed=time.perf_counter() - start,
        )
        return record, ctx.cost_units(records=records_in)


@dataclass
class MapTask(_Task):
    """Mapper + combiner over one input split.

    The mapper's pairs are grouped by key (first-emitted key first), and
    the combiner, when the job has one, takes that whole
    ``{key: [Block, ...]}`` mapping once and returns the task's output
    mapping.

    ``block`` may be an inline :class:`Block` or a shared-memory
    descriptor — the process pool swaps one for the other via the
    ``shm_payload_blocks`` / ``with_shm_blocks`` protocol.
    """

    mapper: Mapper
    combiner: Optional[Combiner]
    index: int
    block: object

    def shm_payload_blocks(self) -> List[Block]:
        return [self.block] if isinstance(self.block, Block) else []

    def with_shm_blocks(self, refs: List[object]) -> "MapTask":
        return replace(self, block=refs[0])

    def __call__(self) -> Tuple[TaskRecord, int]:
        start = time.perf_counter()
        block = resolve_block(self.block)
        ctx = self._context()
        ctx.counters.inc("map", "input_records", block.size)
        emitted: Dict[int, List[Block]] = defaultdict(list)
        for key, out_block in self.mapper(block, ctx):
            emitted[int(key)].append(out_block)
        if self.combiner is not None:
            emitted = self.combiner(dict(emitted), ctx)  # type: ignore[assignment]
        out_records = sum(
            b.size for blocks in emitted.values() for b in blocks
        )
        ctx.counters.inc("map", "output_records", out_records)
        return self._record(dict(emitted), ctx, block.size, out_records, start)


@dataclass
class ReduceTask(_Task):
    """One key's shuffled blocks through the reducer."""

    job_name: str
    reducer: Reducer
    key: int
    index: int
    blocks: List[object]
    lenient: bool = False
    deadline: Optional[float] = None

    def shm_payload_blocks(self) -> List[Block]:
        return [b for b in self.blocks if isinstance(b, Block)]

    def with_shm_blocks(self, refs: List[object]) -> "ReduceTask":
        return replace(self, blocks=list(refs))

    def __call__(self) -> Tuple[TaskRecord, int]:
        # CLOCK_MONOTONIC is system-wide on the platforms the pool runs
        # on, so the coordinator's deadline timestamp is comparable in a
        # worker process too.
        if self.deadline is not None and time.monotonic() >= self.deadline:
            error = DeadlineExceededError(
                f"reduce key {self.key} of {self.job_name!r} not started "
                f"before the deadline"
            )
            if self.lenient:
                return TaskRecord(LostTask(self.index, error)), 0
            raise error
        start = time.perf_counter()
        blocks = [resolve_block(b) for b in self.blocks]
        ctx = self._context()
        in_records = sum(b.size for b in blocks)
        ctx.counters.inc("reduce", "input_records", in_records)
        result = self.reducer(self.key, blocks, ctx)
        out_records = result.size if isinstance(result, Block) else 0
        if isinstance(result, Block):
            ctx.counters.inc("reduce", "output_records", out_records)
        return self._record(result, ctx, in_records, out_records, start)


class MapReduceRuntime:
    """Runs :class:`~repro.mapreduce.job.MapReduceJob` instances."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        dfs: Optional[InMemoryDFS] = None,
        cache: Optional[DistributedCache] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cluster = cluster
        self.dfs = dfs if dfs is not None else InMemoryDFS()
        self.cache = cache if cache is not None else DistributedCache()
        #: runtime-level fault schedule (crash/corruption); defaults to
        #: the cluster's plan so one knob drives the whole stack
        self.fault_plan = (
            fault_plan if fault_plan is not None else cluster.fault_plan
        )
        #: span tracer (the shared no-op unless a run enables tracing)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: unified metrics registry shared by this runtime's tasks
        #: (``ctx.observe`` histograms); None disables live observation
        self.metrics = metrics
        #: reruns of the same output path get attempt-scoped paths so a
        #: retried/resumed job never collides with its earlier output
        self._output_attempts: Dict[str, int] = {}

    def run(
        self,
        job: MapReduceJob,
        input_blocks: Sequence[Block],
        output_path: Optional[str] = None,
        reduce_policy: Optional[ReducePolicy] = None,
        attempt: int = 0,
        parent_span: Optional[Span] = None,
    ) -> JobResult:
        """Execute ``job`` over the given input splits.

        When ``output_path`` is given and the reduce outputs are blocks,
        they are also written to the DFS (accounted); non-block outputs
        are skipped and counted under ``dfs.skipped_outputs``.  Re-runs
        against the same path write to an attempt-scoped path
        (``<path>/attempt-<k>``) instead of crashing on the immutable
        DFS file; :meth:`InMemoryDFS.latest` resolves the newest one.

        ``attempt`` tags the whole job execution (phase names become
        ``<job>@<attempt>:map`` etc. for ``attempt > 0``): a
        supervisor-level whole-job retry draws a fresh fault schedule
        rather than deterministically replaying the one that killed it.
        The attempt is carried on the returned
        :class:`~repro.mapreduce.job.JobResult` so retried jobs stay
        distinguishable downstream.

        ``parent_span`` roots this job's span subtree in a caller's
        trace (the pipeline drivers pass their stage spans).
        """
        if not input_blocks:
            raise MapReduceError("job needs at least one input split")
        started = time.perf_counter()
        counters = MetricsRegistry()
        job_tag = job.name if attempt == 0 else f"{job.name}@{attempt}"
        job_span = self.tracer.start_span(
            "job", parent=parent_span, job=job.name, attempt=attempt,
            tag=job_tag,
        )

        self.cluster.publish_cache(self.cache)
        map_outputs, map_metrics, recovery_metrics = self._map_phase(
            job, job_tag, input_blocks, counters, job_span
        )
        grouped, shuffle_records, shuffle_bytes = self._shuffle(
            job_tag, map_outputs, counters, job_span
        )
        outputs, lost = self._reduce_phase(
            job, job_tag, grouped, counters, reduce_policy, job_span
        )

        if output_path is not None:
            block_outputs = []
            skipped = 0
            for value in outputs.values():
                if isinstance(value, Block):
                    block_outputs.append(value)
                else:
                    skipped += 1
            if skipped:
                counters.inc("dfs", "skipped_outputs", skipped)
            rerun = self._output_attempts.get(output_path, 0)
            self._output_attempts[output_path] = rerun + 1
            actual_path = (
                output_path if rerun == 0
                else f"{output_path}/attempt-{rerun}"
            )
            self.dfs.write(actual_path, block_outputs)
            job_span.set("output_path", actual_path)

        elapsed = time.perf_counter() - started
        job_span.update(
            shuffle_records=shuffle_records,
            shuffle_bytes=shuffle_bytes,
            faults_injected=(
                map_metrics.failed_attempts
                + counters.counter("reduce", "failed_attempts")
                + counters.counter("shuffle", "corrupt_blocks")
            ),
            faults_recovered=(
                counters.counter("map", "reexecuted_tasks")
                + counters.counter("shuffle", "corrupt_blocks")
            ),
        )
        job_span.finish()
        result = JobResult(
            job_name=job.name,
            outputs=outputs,
            counters=counters,
            map_metrics=map_metrics,
            reduce_metrics=self.cluster.metrics_for(f"{job_tag}:reduce"),
            shuffle_records=shuffle_records,
            shuffle_bytes=shuffle_bytes,
            elapsed_seconds=elapsed,
            recovery_metrics=recovery_metrics,
            attempt=attempt,
        )
        if lost is not None:
            result.extras.update(lost)
        return result

    # ------------------------------------------------------------------
    def _absorb(
        self, record: TaskRecord, name: str, parent: Span, **tags: object
    ) -> None:
        """Merge one executed attempt's metric samples into the run's
        registry and materialise its task span from the task's own
        start and elapsed time."""
        if record.metrics is not None:
            self.metrics.merge(record.metrics)
        if self.tracer.enabled:
            self.tracer.add_span(
                name, record.start, record.start + record.elapsed,
                parent=parent, **tags, **record.span_attrs,
            )

    def _map_phase(
        self,
        job: MapReduceJob,
        job_tag: str,
        input_blocks: Sequence[Block],
        counters: MetricsRegistry,
        job_span: Span,
    ) -> Tuple[
        List[Dict[int, List[Block]]],
        ClusterMetrics,
        Optional[ClusterMetrics],
    ]:
        phase = f"{job_tag}:map"
        phase_span = self.tracer.start_span(
            "map", parent=job_span, phase=phase
        )
        tasks = [
            MapTask(
                cache=self.cache, collect_metrics=self.metrics is not None,
                mapper=job.mapper, combiner=job.combiner,
                index=index, block=block,
            )
            for index, block in enumerate(input_blocks)
        ]
        records: List[TaskRecord] = self.cluster.run_round(phase, tasks)
        map_metrics = self.cluster.metrics_for(phase)
        superseded, recovery_metrics = self._recover_lost_map_output(
            phase, tasks, records, map_metrics, counters
        )
        # A lost attempt's span describes work whose output died with
        # its worker: mark it so trace aggregation, like the counters
        # (Hadoop counts successful attempts once), credits only the
        # surviving re-execution.
        for index, record in superseded:
            self._absorb(
                record, "map.task", phase_span, phase=phase, task=index,
                **{SUPERSEDED: True},
            )
        map_outputs: List[Dict[int, List[Block]]] = []
        for index, record in enumerate(records):
            counters.merge(record.counters)
            self._absorb(record, "map.task", phase_span, phase=phase, task=index)
            map_outputs.append(record.payload)  # type: ignore[arg-type]

        failed = map_metrics.failed_attempts + (
            recovery_metrics.failed_attempts
            if recovery_metrics is not None
            else 0
        )
        if failed:
            counters.inc("map", "failed_attempts", failed)
        phase_span.update(
            tasks=len(tasks),
            failed_attempts=failed,
            reexecuted_tasks=counters.counter("map", "reexecuted_tasks"),
        )
        phase_span.finish()
        return map_outputs, map_metrics, recovery_metrics

    def _recover_lost_map_output(
        self,
        phase: str,
        tasks: List[MapTask],
        records: List[TaskRecord],
        map_metrics: ClusterMetrics,
        counters: MetricsRegistry,
    ) -> Tuple[List[Tuple[int, TaskRecord]], Optional[ClusterMetrics]]:
        """Re-execute map tasks whose worker crashed after the round.

        The crash strikes *after* completion — exactly the Hadoop case
        where a node dies between map and shuffle and its local map
        output becomes unreachable.  The lineage (``placements`` on the
        round's metrics) tells us which splits were materialised where,
        so only those tasks re-run, on the surviving workers.  Their
        records replace the lost ones in ``records``; the lost
        ``(index, record)`` pairs come back with the recovery round's
        metrics.
        """
        plan = self.fault_plan
        if plan is None or plan.worker_crash_rate <= 0.0:
            return [], None
        crashed = set(
            plan.crashed_workers(phase, self.cluster.num_workers)
        )
        if not crashed:
            return [], None
        counters.inc("map", "worker_crashes", len(crashed))
        placements = map_metrics.placements or []
        lost = [
            index
            for index, worker in enumerate(placements)
            if worker in crashed
        ]
        if not lost:
            return [], None
        counters.inc("map", "lost_map_outputs", len(lost))
        counters.inc("map", "reexecuted_tasks", len(lost))
        survivors = [
            w for w in range(self.cluster.num_workers) if w not in crashed
        ]
        recovery_placement = [
            survivors[i % len(survivors)] for i in range(len(lost))
        ]
        recovered = self.cluster.run_round(
            f"{phase}:recovery",
            [tasks[index] for index in lost],
            placement=recovery_placement,
        )
        superseded = [(index, records[index]) for index in lost]
        for index, record in zip(lost, recovered):
            records[index] = record
        return superseded, self.cluster.metrics_for(f"{phase}:recovery")

    def _shuffle(
        self,
        job_name: str,
        map_outputs: List[Dict[int, List[Block]]],
        counters: MetricsRegistry,
        job_span: Span,
    ) -> Tuple[Dict[int, List[Block]], int, int]:
        plan = self.fault_plan
        inject = plan is not None and plan.corruption_rate > 0.0
        shuffle_span = self.tracer.start_span(
            "shuffle", parent=job_span, phase=f"{job_name}:shuffle"
        )
        grouped: Dict[int, List[Block]] = defaultdict(list)
        records = 0
        nbytes = 0
        fetches: Dict[int, int] = defaultdict(int)
        for task_output in map_outputs:
            for key, blocks in task_output.items():
                for block in blocks:
                    if inject:
                        block = self._fetch_verified(
                            job_name, key, fetches[key], block, counters
                        )
                        fetches[key] += 1
                    grouped[key].append(block)
                    records += block.size
                    nbytes += block.nbytes
        counters.inc("shuffle", "records", records)
        counters.inc("shuffle", "bytes", nbytes)
        shuffle_span.update(
            records=records,
            bytes=nbytes,
            keys=len(grouped),
            corrupt_blocks=counters.counter("shuffle", "corrupt_blocks"),
            refetched_bytes=counters.counter("shuffle", "refetched_bytes"),
        )
        shuffle_span.finish()
        return grouped, records, nbytes

    def _fetch_verified(
        self,
        job_name: str,
        key: int,
        fetch_index: int,
        block: Block,
        counters: MetricsRegistry,
    ) -> Block:
        """Simulate one shuffle fetch with checksum verification.

        The sender's checksum is recorded before the transfer; if the
        fault plan corrupts the copy in flight, the receiver's checksum
        disagrees and the block is re-fetched from the retained map
        output (which the lineage guarantees is still available).
        """
        plan = self.fault_plan
        assert plan is not None
        expected = block.checksum()
        delivered = block
        if plan.corrupts(f"{job_name}:shuffle", key, fetch_index):
            delivered = plan.corrupt_copy(block)
        if delivered.checksum() != expected:
            counters.inc("shuffle", "corrupt_blocks")
            counters.inc("shuffle", "refetched_bytes", block.nbytes)
            delivered = block  # re-fetch: second transfer arrives clean
        return delivered

    def _reduce_phase(
        self,
        job: MapReduceJob,
        job_tag: str,
        grouped: Dict[int, List[Block]],
        counters: MetricsRegistry,
        policy: Optional[ReducePolicy] = None,
        job_span: Optional[Span] = None,
    ) -> Tuple[Dict[int, object], Optional[Dict[str, object]]]:
        phase = f"{job_tag}:reduce"
        keys = sorted(grouped)
        lenient = policy is not None and policy.lenient
        deadline = policy.deadline if policy is not None else None
        phase_span = self.tracer.start_span(
            "reduce", parent=job_span, phase=phase
        )
        tasks = [
            ReduceTask(
                cache=self.cache, collect_metrics=self.metrics is not None,
                job_name=job.name, reducer=job.reducer,
                key=key, index=index, blocks=list(grouped[key]),
                lenient=lenient, deadline=deadline,
            )
            for index, key in enumerate(keys)
        ]
        records = self.cluster.run_round(phase, tasks, lenient=lenient)
        results: List = []
        for index, (key, record) in enumerate(zip(keys, records)):
            # A LostTask is either the cluster's (injected retry
            # exhaustion) or the task's own payload (deadline).
            result = record if isinstance(record, LostTask) else record.payload
            if not isinstance(result, LostTask):
                counters.merge(record.counters)
                self._absorb(
                    record, "reduce.task", phase_span, phase=phase,
                    task=index, key=key,
                )
            results.append(result)
        failed = self.cluster.metrics_for(phase).failed_attempts
        if failed:
            counters.inc("reduce", "failed_attempts", failed)
            counters.inc("reduce", "retries", failed)

        outputs: Dict[int, object] = {}
        lost_keys: List[int] = []
        lost_reasons: Dict[int, str] = {}
        lost_floors: Dict[int, List[float]] = {}
        for key, result in zip(keys, results):
            if isinstance(result, LostTask):
                lost_keys.append(key)
                lost_reasons[key] = str(result.error)
                floor = self._key_floor(grouped[key])
                if floor is not None:
                    lost_floors[key] = floor
                continue
            outputs[key] = result
        if lost_keys:
            counters.inc("reduce", "lost_tasks", len(lost_keys))
        phase_span.update(
            tasks=len(tasks),
            failed_attempts=failed,
            lost_tasks=len(lost_keys),
        )
        phase_span.finish()
        if not lenient:
            return outputs, None
        return outputs, {
            "lost_keys": lost_keys,
            "lost_reasons": lost_reasons,
            "lost_floors": lost_floors,
            "reduce_input_records": {
                key: sum(b.size for b in grouped[key]) for key in keys
            },
        }

    @staticmethod
    def _key_floor(blocks: List[Block]) -> Optional[List[float]]:
        """Componentwise minimum over a key's shuffled blocks.

        Any record the lost reducer held is ``>=`` this corner in every
        dimension, so a point the corner does not dominate cannot be
        dominated by anything the key held — the certificate the
        degraded merge filters with.
        """
        mins = [b.points.min(axis=0) for b in blocks if b.size > 0]
        if not mins:
            return None
        return [float(v) for v in np.minimum.reduce(mins)]

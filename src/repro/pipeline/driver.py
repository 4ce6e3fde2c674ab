"""The end-to-end skyline engine.

:class:`SkylineEngine` wires the three phases over the simulated
platform and returns a :class:`RunReport` carrying the final skyline and
every measurement the paper's figures plot: per-phase wall and abstract
cost, candidate counts, shuffle volume, prefilter/pruning counts, worker
skew, and preprocessing time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigurationError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import FAULT_COUNTER_KEYS
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import JobResult
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block, split_dataset
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.pipeline.phase1 import make_phase1_job
from repro.pipeline.phase2 import make_phase2_job
from repro.pipeline.plans import PlanConfig, parse_plan
from repro.pipeline.preprocess import PreprocessResult, preprocess
from repro.zorder.encoding import quantize_dataset


@dataclass
class EngineConfig:
    """Tunable knobs of a run (defaults follow the paper's setup where
    one exists: M=32 groups, 2% sample)."""

    plan: PlanConfig
    num_groups: int = 32
    num_workers: int = 8
    sample_ratio: float = 0.02
    bits_per_dim: int = 12
    expansion: int = 4
    seed: int = 0
    num_input_splits: Optional[int] = None
    slowdown_factors: Optional[Sequence[float]] = None
    speculative: bool = False
    failed_workers: Optional[Sequence[int]] = None
    #: seeded fault-injection schedule (also accepts a spec string such
    #: as ``"seed=7,task=0.1,crash=0.2,corrupt=0.05"``); works on both
    #: executors — the keyed-draw schedule is thread-order independent
    fault_plan: Optional[FaultPlan] = None
    #: "simulated" (sequential, deterministic, supports fault injection),
    #: "threaded" (thread-per-worker parallelism), or "procpool"
    #: (process-per-worker multicore parallelism); see ``EXECUTORS``
    executor: str = "simulated"
    #: JSONL span-trace output path; setting it enables tracing
    trace_out: Optional[str] = None
    #: JSONL metrics output path (counters + timers + histograms)
    metrics_out: Optional[str] = None
    #: explicit tracer instance (enables tracing even without
    #: ``trace_out``; useful for in-process inspection in tests)
    tracer: Optional[Tracer] = None

    @classmethod
    def from_plan_string(cls, plan: str, **kwargs: object) -> "EngineConfig":
        return cls(plan=parse_plan(plan), **kwargs)  # type: ignore[arg-type]

    def resolve_tracer(self) -> Tracer:
        """The tracer a run should use: the explicit one, a fresh one
        when ``trace_out`` asks for an export, else the shared no-op."""
        if self.tracer is not None:
            return self.tracer
        if self.trace_out is not None:
            return Tracer()
        return NULL_TRACER

    @property
    def observability_enabled(self) -> bool:
        return (
            self.tracer is not None
            or self.trace_out is not None
            or self.metrics_out is not None
        )

    def __post_init__(self) -> None:
        if self.num_groups <= 0 or self.num_workers <= 0:
            raise ConfigurationError(
                "num_groups and num_workers must be positive"
            )
        if not (0.0 < self.sample_ratio <= 1.0):
            raise ConfigurationError("sample_ratio must be in (0, 1]")
        if self.executor not in EXECUTORS:
            names = ", ".join(repr(name) for name in sorted(EXECUTORS))
            raise ConfigurationError(
                f"executor must be one of {names}; got {self.executor!r}"
            )
        if self.executor != "simulated" and (
            self.slowdown_factors is not None
            or self.speculative
            or self.failed_workers is not None
        ):
            raise ConfigurationError(
                "straggler injection and speculation need the simulated "
                "executor (FaultPlan injection works on all executors)"
            )
        if isinstance(self.fault_plan, str):
            self.fault_plan = FaultPlan.parse(self.fault_plan)
        elif self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigurationError(
                "fault_plan must be a FaultPlan or a spec string"
            )


@dataclass
class RunReport:
    """Outcome + measurements of one end-to-end run."""

    plan: PlanConfig
    skyline: Block
    preprocess_result: PreprocessResult
    phase1: JobResult
    phase2: JobResult
    total_seconds: float
    details: Dict[str, object] = field(default_factory=dict)
    #: first merge round of the parallel Z-merge extension (ZMP only)
    phase2_partial: Optional[JobResult] = None
    #: the run's span tracer (None when tracing was disabled)
    trace: Optional[Tracer] = None
    #: live histogram/counter observations collected during the run
    #: (per-task wall seconds, per-group candidates); None when off
    observed_metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    # The quantities the paper's figures plot
    # ------------------------------------------------------------------
    @property
    def skyline_size(self) -> int:
        return self.skyline.size

    @property
    def num_candidates(self) -> int:
        """Skyline candidates emitted by phase 1 (Figure 9's metric)."""
        return self.phase1.counters.get("phase1", "candidates")

    @property
    def preprocess_seconds(self) -> float:
        return self.preprocess_result.seconds

    @property
    def phase1_seconds(self) -> float:
        return self.phase1.elapsed_seconds

    @property
    def merge_seconds(self) -> float:
        """Phase-2 time (Figure 8's metric); includes ZMP's first round."""
        extra = (
            self.phase2_partial.elapsed_seconds
            if self.phase2_partial is not None
            else 0.0
        )
        return self.phase2.elapsed_seconds + extra

    @property
    def phase1_makespan_cost(self) -> int:
        """Slowest phase-1 reducer's abstract cost — the straggler view."""
        return self.phase1.reduce_metrics.makespan_cost

    @property
    def merge_cost(self) -> int:
        partial = (
            self.phase2_partial.reduce_metrics.total_cost
            if self.phase2_partial is not None
            else 0
        )
        return self.phase2.reduce_metrics.total_cost + partial

    @property
    def merge_makespan_cost(self) -> int:
        """Makespan of the merge stage (partial + final rounds)."""
        partial = (
            self.phase2_partial.map_metrics.makespan_cost
            + self.phase2_partial.reduce_metrics.makespan_cost
            if self.phase2_partial is not None
            else 0
        )
        return (
            partial
            + self.phase2.map_metrics.makespan_cost
            + self.phase2.reduce_metrics.makespan_cost
        )

    @property
    def total_cost(self) -> int:
        """End-to-end abstract cost (map+reduce of all jobs)."""
        total = (
            self.phase1.map_metrics.total_cost
            + self.phase1.reduce_metrics.total_cost
            + self.phase2.map_metrics.total_cost
            + self.phase2.reduce_metrics.total_cost
        )
        if self.phase2_partial is not None:
            total += (
                self.phase2_partial.map_metrics.total_cost
                + self.phase2_partial.reduce_metrics.total_cost
            )
        return total

    @property
    def makespan_cost(self) -> int:
        """Sum of per-phase makespans: the simulated distributed runtime."""
        return (
            self.phase1.map_metrics.makespan_cost
            + self.phase1.reduce_metrics.makespan_cost
            + self.merge_makespan_cost
        )

    @property
    def shuffle_records(self) -> int:
        partial = (
            self.phase2_partial.shuffle_records
            if self.phase2_partial is not None
            else 0
        )
        return (
            self.phase1.shuffle_records
            + self.phase2.shuffle_records
            + partial
        )

    @property
    def reducer_skew(self) -> float:
        """Max/mean abstract cost across phase-1 reduce workers."""
        return self.phase1.reduce_metrics.cost_skew()

    # ------------------------------------------------------------------
    # fault tolerance observability
    # ------------------------------------------------------------------
    def _jobs(self):
        jobs = [self.phase1, self.phase2]
        if self.phase2_partial is not None:
            jobs.append(self.phase2_partial)
        return jobs

    def merged_counters(self) -> MetricsRegistry:
        """Every executed job's counters folded into one registry —
        the cross-job aggregation the fault summary and metrics export
        read from."""
        merged = MetricsRegistry()
        for job in self._jobs():
            merged.absorb_counters(job.counters)
        return merged

    def fault_summary(self) -> Dict[str, int]:
        """Failure/recovery counters summed over every executed job
        (``"group.name" -> value``; all zero on a clean run)."""
        merged = self.merged_counters()
        return {
            f"{group}.{name}": merged.counter(group, name)
            for group, name in FAULT_COUNTER_KEYS
        }

    # ------------------------------------------------------------------
    # unified metrics
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsRegistry:
        """The run's unified metrics: job counters, stage timers, and
        load-balance histograms, merged with whatever was observed live
        (per-task wall seconds, per-group candidate counts).

        This is what ``--metrics-out`` exports; every quantity in
        :meth:`summary` is derivable from it.
        """
        registry = self.merged_counters()
        if self.observed_metrics is not None:
            registry.merge(self.observed_metrics)
        registry.record_time("preprocess.seconds", self.preprocess_seconds)
        registry.record_time("phase1.seconds", self.phase1_seconds)
        registry.record_time("merge.seconds", self.merge_seconds)
        registry.record_time("total.seconds", self.total_seconds)
        # Per-worker load balance (Figure 7's quantity) as histograms.
        for ledger in self.phase1.reduce_metrics.active_ledgers():
            registry.observe(
                "phase1.worker_wall_seconds", ledger.wall_seconds
            )
            registry.observe("phase1.worker_cost_units", ledger.cost_units)
        # Per-group candidate counts (Figure 9's quantity), recomputed
        # from the outputs when no live observation captured them.
        if self.observed_metrics is None or not self.observed_metrics.histogram(
            "phase1.group_candidates"
        ):
            for value in self.phase1.outputs.values():
                if isinstance(value, Block):
                    registry.observe("phase1.group_candidates", value.size)
        return registry

    @property
    def recovery_cost(self) -> int:
        """Abstract cost spent re-executing crash-lost map tasks."""
        return sum(job.recovery_cost for job in self._jobs())

    def summary(self) -> Dict[str, object]:
        """Flat dict of the headline numbers (bench harness rows),
        including the failure/recovery counters — a row from a faulty
        run is distinguishable from a clean one at a glance."""
        out = {
            "plan": self.plan.label,
            "skyline": self.skyline_size,
            "candidates": self.num_candidates,
            "prefiltered": self.phase1.counters.get(
                "phase1", "prefiltered_records"
            ),
            "dropped": self.phase1.counters.get("phase1", "dropped_records"),
            "shuffle_records": self.shuffle_records,
            "preprocess_s": round(self.preprocess_seconds, 4),
            "phase1_s": round(self.phase1_seconds, 4),
            "merge_s": round(self.merge_seconds, 4),
            "total_s": round(self.total_seconds, 4),
            "makespan_cost": self.makespan_cost,
            "reducer_skew": round(self.reducer_skew, 3),
            "recovery_cost": self.recovery_cost,
            # whole-job execution attempts: a supervisor-level stage
            # retry shows up here, so a retried run is distinguishable
            "phase1_attempt": self.phase1.attempt,
            "phase2_attempt": self.phase2.attempt,
        }
        out.update(self.fault_summary())
        return out


def _make_simulated(cfg: EngineConfig) -> SimulatedCluster:
    return SimulatedCluster(
        cfg.num_workers,
        slowdown_factors=cfg.slowdown_factors,
        speculative=cfg.speculative,
        failed_workers=cfg.failed_workers,
        fault_plan=cfg.fault_plan,
    )


def _make_threaded(cfg: EngineConfig) -> SimulatedCluster:
    from repro.mapreduce.parallel import ThreadedCluster

    return ThreadedCluster(cfg.num_workers, fault_plan=cfg.fault_plan)


def _make_procpool(cfg: EngineConfig) -> SimulatedCluster:
    from repro.mapreduce.procpool import ProcessPoolCluster

    return ProcessPoolCluster(cfg.num_workers, fault_plan=cfg.fault_plan)


#: executor registry: ``EngineConfig.executor`` selects one of these
#: factories (the executors are interchangeable because the engine
#: boundary is stateless — see :func:`execute`)
EXECUTORS: Dict[str, Callable[[EngineConfig], SimulatedCluster]] = {
    "simulated": _make_simulated,
    "threaded": _make_threaded,
    "procpool": _make_procpool,
}


def make_cluster(cfg: EngineConfig) -> SimulatedCluster:
    """Build the configured executor (shared by engine and supervisor)."""
    try:
        factory = EXECUTORS[cfg.executor]
    except KeyError:
        names = ", ".join(repr(name) for name in sorted(EXECUTORS))
        raise ConfigurationError(
            f"executor must be one of {names}; got {cfg.executor!r}"
        ) from None
    return factory(cfg)


def export_observability(
    cfg: EngineConfig, report: RunReport
) -> None:
    """Write the JSONL trace/metrics files a config asked for."""
    if cfg.trace_out is not None and report.trace is not None:
        report.trace.export_jsonl(cfg.trace_out)
        report.details["trace_out"] = cfg.trace_out
    if cfg.metrics_out is not None:
        report.metrics().export_jsonl(cfg.metrics_out)
        report.details["metrics_out"] = cfg.metrics_out


class SkylineEngine:
    """Run the three-phase pipeline for one plan configuration."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config

    def run(self, dataset: Dataset) -> RunReport:
        """Compute the skyline of ``dataset`` end to end.

        The dataset is grid-snapped once (see
        :func:`repro.zorder.encoding.quantize_dataset`); the report's
        skyline holds grid coordinates with original row ids.
        """
        cfg = self.config
        started = time.perf_counter()
        tracer = cfg.resolve_tracer()
        registry = (
            MetricsRegistry() if cfg.observability_enabled else None
        )
        run_span = tracer.start_span(
            "run", plan=cfg.plan.label, n=dataset.size,
            d=dataset.dimensions,
        )

        snapped, codec = quantize_dataset(
            dataset, bits_per_dim=cfg.bits_per_dim
        )

        with tracer.span("preprocess", parent=run_span) as pre_span:
            pre = preprocess(
                snapped,
                codec,
                cfg.plan.partitioner,
                cfg.num_groups,
                sample_ratio=cfg.sample_ratio,
                expansion=cfg.expansion,
                seed=cfg.seed,
            )
            pre_span.update(
                sample_size=pre.sample.size,
                sample_skyline=int(pre.sample_skyline.shape[0]),
                seconds=pre.seconds,
            )

        cluster = make_cluster(cfg)
        cluster.observer = registry
        try:
            cache = DistributedCache()
            pre.publish(cache)
            runtime = MapReduceRuntime(
                cluster, dfs=InMemoryDFS(), cache=cache,
                fault_plan=cfg.fault_plan,
                tracer=tracer, metrics=registry,
            )

            splits = split_dataset(
                snapped, cfg.num_input_splits or cfg.num_workers * 2
            )

            job1 = make_phase1_job(cfg.plan)
            with tracer.span("phase1", parent=run_span) as stage_span:
                result1 = runtime.run(
                    job1, splits, output_path="phase1/candidates",
                    parent_span=stage_span,
                )

            candidate_blocks = [
                block
                for block in result1.outputs.values()
                if isinstance(block, Block) and block.size > 0
            ]
            if not candidate_blocks:
                candidate_blocks = [Block.empty(snapped.dimensions)]

            partial_result: Optional[JobResult] = None
            if cfg.plan.merge_algorithm == "ZMP":
                # Parallel merge extension: first fold candidate trees on
                # every worker, then fold the few partial skylines once.
                from repro.pipeline.phase2 import make_partial_merge_job

                partial_job = make_partial_merge_job(cfg.num_workers)
                with tracer.span(
                    "partial-merge", parent=run_span
                ) as stage_span:
                    partial_result = runtime.run(
                        partial_job, candidate_blocks,
                        parent_span=stage_span,
                    )
                candidate_blocks = [
                    block
                    for block in partial_result.outputs.values()
                    if isinstance(block, Block) and block.size > 0
                ] or [Block.empty(snapped.dimensions)]

            job2 = make_phase2_job(cfg.plan)
            with tracer.span("phase2", parent=run_span) as stage_span:
                result2 = runtime.run(
                    job2, candidate_blocks, output_path="skyline",
                    parent_span=stage_span,
                )
        finally:
            # Remote executors own worker processes; the in-process ones
            # make this a no-op.
            cluster.shutdown()

        skyline = result2.outputs.get(0, Block.empty(snapped.dimensions))
        # On the procpool path the per-worker deltas were merged back
        # into this stats object by the pool's drain, so the snapshot
        # covers work done in worker processes too.
        kernel_stats = codec.kernel_stats.snapshot()
        if registry is not None:
            # Which kernel path (uint64 fast vs packed-byte wide) served
            # this run, and how many rows went through it.
            for name, value in kernel_stats.items():
                registry.inc("zkernel", name, value)
        total_seconds = time.perf_counter() - started
        run_span.set("skyline", skyline.size)
        run_span.finish()
        report = RunReport(
            plan=cfg.plan,
            skyline=skyline,
            preprocess_result=pre,
            phase1=result1,
            phase2=result2,
            total_seconds=total_seconds,
            details={
                "n": dataset.size,
                "d": dataset.dimensions,
                "num_groups": pre.rule.num_groups,
                "num_workers": cfg.num_workers,
                "executor": cfg.executor,
                "kernel_stats": kernel_stats,
            },
            phase2_partial=partial_result,
            trace=tracer if tracer.enabled else None,
            observed_metrics=registry,
        )
        export_observability(cfg, report)
        return report


def run_plan(
    plan: str, dataset: Dataset, **config_kwargs: object
) -> RunReport:
    """One-call convenience: ``run_plan("ZDG+ZS+ZM", dataset)``."""
    config = EngineConfig.from_plan_string(plan, **config_kwargs)
    return SkylineEngine(config).run(dataset)


# ----------------------------------------------------------------------
# the stateless engine boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """A pure, picklable description of one engine run.

    ``execute(request)`` is a function of this value alone: the engine
    keeps no per-run instance state, so requests can be executed in any
    process — the coordinator, a worker, a batch harness — and under any
    registered executor interchangeably.  Live observability handles
    (an explicit ``tracer`` instance) are rejected because they cannot
    cross a process boundary; use ``trace_out`` / ``metrics_out`` file
    exports instead.
    """

    dataset: Dataset
    config: EngineConfig

    def __post_init__(self) -> None:
        if self.config.tracer is not None:
            raise ConfigurationError(
                "RunRequest must be pure data: pass trace_out instead of "
                "a live tracer instance"
            )


@dataclass
class RunResult:
    """The picklable distillation of a :class:`RunReport`.

    Everything here is plain data (the skyline block, the summary row,
    merged counters, and the kernel-stats snapshot carried explicitly —
    ``KernelStats`` pickles empty by design, so the stats ride this
    result instead of the codec).
    """

    plan: str
    executor: str
    skyline: Block
    summary: Dict[str, object]
    counters: Dict[str, Dict[str, int]]
    kernel_stats: Dict[str, int]
    details: Dict[str, object]

    @classmethod
    def from_report(cls, report: RunReport) -> "RunResult":
        merged = Counters()
        for job in report._jobs():
            merged.merge(job.counters)
        details = dict(report.details)
        kernel_stats = dict(details.pop("kernel_stats", {}))
        return cls(
            plan=report.plan.label,
            executor=str(details.get("executor", "simulated")),
            skyline=report.skyline,
            summary=report.summary(),
            counters=merged.as_dict(),
            kernel_stats=kernel_stats,
            details=details,
        )


def execute(request: RunRequest) -> RunResult:
    """Run one request end to end: the stateless engine entry point."""
    report = SkylineEngine(request.config).run(request.dataset)
    return RunResult.from_report(report)

"""The end-to-end skyline engine: configuration, report and entry point.

:class:`SkylineEngine` runs the paper's three-phase pipeline for one
plan and returns a :class:`RunReport` carrying the final skyline and
every measurement the paper's figures plot: per-phase wall and abstract
cost, candidate counts, shuffle volume, prefilter/pruning counts, worker
skew, and preprocessing time.  The stage machine itself lives in
:mod:`repro.pipeline.supervisor`; the engine is that supervisor with
no checkpoint store, deadline, degradation or stage retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigurationError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import JobResult, fault_counts
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.pipeline.plans import PlanConfig, parse_plan
from repro.pipeline.preprocess import PreprocessResult


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
        return self.phase1.counters.counter("phase1", "candidates")

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
            merged.merge(job.counters)
        return merged

    def fault_summary(self) -> Dict[str, int]:
        """Failure/recovery counters summed over every executed job
        (``"group.name" -> value``; all zero on a clean run)."""
        return fault_counts(self.merged_counters())

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
            "prefiltered": self.phase1.counters.counter(
                "phase1", "prefiltered_records"
            ),
            "dropped": self.phase1.counters.counter("phase1", "dropped_records"),
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
#: interchangeable factories
EXECUTORS: Dict[str, Callable[[EngineConfig], SimulatedCluster]] = {
    "simulated": _make_simulated,
    "threaded": _make_threaded,
    "procpool": _make_procpool,
}


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
        skyline holds grid coordinates with original row ids.  The run
        is all-or-nothing: a terminal fault propagates, and the
        executor's workers are released either way.
        """
        from repro.pipeline.supervisor import (
            PipelineSupervisor,
            SupervisorConfig,
        )

        with PipelineSupervisor(
            self.config, SupervisorConfig(max_stage_retries=0)
        ) as supervisor:
            return supervisor.run(dataset)


def run_plan(
    plan: str, dataset: Dataset, **config_kwargs: object
) -> RunReport:
    """One-call convenience: ``run_plan("ZDG+ZS+ZM", dataset)``."""
    config = EngineConfig.from_plan_string(plan, **config_kwargs)
    return SkylineEngine(config).run(dataset)

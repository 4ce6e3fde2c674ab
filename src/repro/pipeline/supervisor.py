"""The pipeline supervisor: the one driver of the stage machine

    preprocess -> phase1 -> partial-merge (ZMP) -> phase2

:class:`~repro.pipeline.driver.SkylineEngine` is this supervisor with
every policy off — no checkpoint store, no deadline, no degradation, no
stage retry — so it is all-or-nothing: any terminal fault discards the
preprocessing rule, every phase-1 candidate block, and any partial
merge.  Turned on, the supervisor makes each completed stage **durable**
in a :class:`~repro.pipeline.checkpoint.CheckpointStore`, so that:

* **resume** — a restarted run picks up from the last durable stage and
  produces a bit-identical skyline (candidate blocks round-trip through
  npz exactly; merge order is the checkpointed key order);
* **deadlines** — a whole-run budget plus optional per-stage budgets,
  enforced at stage boundaries and at reduce-task starts, raise a clean
  :class:`~repro.core.exceptions.DeadlineExceededError`; terminal stage
  faults are retried as whole jobs a bounded number of times (each
  retry re-draws the fault schedule under a fresh attempt tag);
* **graceful degradation** — with ``degraded_ok`` a phase-1 group that
  is terminally lost (retry budget exhausted, or its reduce task never
  started before the deadline) does not abort the run: the surviving
  groups' candidates are merged and every merged point that could
  possibly be dominated by the lost groups' records (certified via the
  lost keys' componentwise floors) is masked out, so the returned
  :class:`PartialRunReport` skyline is always a *subset* of the true
  skyline;
* **input hardening** — raw record input is validated first; malformed
  records (NaN/±inf, wrong dimensionality, duplicate ids) are
  quarantined into ``input.quarantined_records`` counters instead of
  crashing a mapper mid-job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectionError,
)
from repro.data.io import QUARANTINE_KEYS, sanitize_records
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import ClusterMetrics
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import JobResult
from repro.mapreduce.runtime import MapReduceRuntime, ReducePolicy
from repro.mapreduce.types import Block, split_dataset
from repro.observability import MetricsRegistry, Tracer
from repro.pipeline.checkpoint import (
    STAGE_FINAL,
    STAGE_PARTIAL_MERGE,
    STAGE_PHASE1,
    STAGE_PREPROCESS,
    CheckpointStore,
)
from repro.pipeline.driver import (
    EXECUTORS,
    EngineConfig,
    RunReport,
    export_observability,
)
from repro.pipeline.phase1 import make_phase1_job
from repro.pipeline.phase2 import make_partial_merge_job, make_phase2_job
from repro.pipeline.preprocess import PreprocessResult, preprocess
from repro.pipeline.serialization import (
    codec_from_dict,
    codec_to_dict,
    rule_from_dict,
    rule_to_dict,
)
from repro.zorder.encoding import quantize_dataset
from repro.zorder.zbtree import build_zbtree


@dataclass
class SupervisorConfig:
    """Durability/robustness knobs of a supervised run."""

    #: checkpoint directory; ``None`` disables durability
    checkpoint_dir: Optional[str] = None
    #: reuse durable stages from ``checkpoint_dir`` (run key must match)
    resume: bool = False
    #: whole-run wall-clock budget in seconds
    deadline_seconds: Optional[float] = None
    #: optional per-stage budgets, e.g. ``{"phase1": 30.0}``
    stage_timeouts: Dict[str, float] = field(default_factory=dict)
    #: return a :class:`PartialRunReport` instead of raising when a
    #: phase-1 group is terminally lost or the deadline fires mid-phase
    degraded_ok: bool = False
    #: whole-job retries per stage after a terminal fault
    max_stage_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_stage_retries < 0:
            raise ConfigurationError("max_stage_retries must be >= 0")
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ConfigurationError("deadline_seconds must be >= 0")
        for stage, budget in self.stage_timeouts.items():
            if budget < 0:
                raise ConfigurationError(
                    f"stage timeout for {stage!r} must be >= 0"
                )
        if self.resume and not self.checkpoint_dir:
            raise ConfigurationError(
                "resume requires a checkpoint_dir to resume from"
            )


@dataclass
class PartialRunReport(RunReport):
    """A degraded run's outcome: a certified subset of the skyline.

    ``completeness`` is the fraction of phase-1 groups whose candidates
    made it into the merge (< 1.0 whenever anything was lost);
    ``completeness_detail`` carries the full accounting — groups
    completed/lost, candidate-record coverage, which lost groups'
    regions may still hide skyline points, and how many merged
    candidates were masked because a lost region could dominate them.
    """

    completeness: float = 1.0
    lost_groups: List[int] = field(default_factory=list)
    masked_candidates: int = 0
    completeness_detail: Dict[str, object] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return True

    def summary(self) -> Dict[str, object]:
        out = super().summary()
        out["completeness"] = round(self.completeness, 4)
        out["lost_groups"] = len(self.lost_groups)
        out["masked_candidates"] = self.masked_candidates
        return out


class PipelineSupervisor:
    """Run the stage machine with checkpoints, deadlines, degradation."""

    def __init__(
        self,
        config: EngineConfig,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        self.config = config
        self.supervisor = supervisor or SupervisorConfig()
        # Built lazily by the first run(); later run() calls on the
        # same supervisor (e.g. a resume after a deadline abort) reuse
        # the live runtime — its cache and DFS survive, which is what
        # makes idempotent cache re-publication and attempt-scoped
        # output resolution observable behaviours.  On a process-pool
        # executor the worker processes survive with it, so a resumed
        # run() reuses warm workers; call :meth:`close` (or use the
        # supervisor as a context manager) when done.
        self._runtime: Optional[MapReduceRuntime] = None

    def close(self) -> None:
        """Release the reusable runtime's cluster (idempotent).

        Pool-backed executors hold real worker processes between run()
        calls; closing terminates them.  The in-process executors treat
        this as a no-op.
        """
        runtime = self._runtime
        if runtime is not None:
            runtime.cluster.shutdown()

    def __enter__(self) -> "PipelineSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(
        self,
        data: Union[Dataset, Sequence[Sequence[float]]],
        ids: Optional[Sequence[int]] = None,
    ) -> RunReport:
        """Compute the skyline of ``data`` under supervision.

        ``data`` may be a validated :class:`Dataset` or raw rows
        (possibly ragged/dirty — they go through the hardening pass
        first).  Returns a :class:`RunReport`, or a
        :class:`PartialRunReport` when the run had to degrade.
        """
        cfg = self.config
        sup = self.supervisor
        started = time.perf_counter()
        deadline = (
            time.monotonic() + sup.deadline_seconds
            if sup.deadline_seconds is not None
            else None
        )

        if isinstance(data, Dataset):
            dataset = data
            quarantine = {key: 0 for key in QUARANTINE_KEYS}
        else:
            dataset, quarantine = sanitize_records(data, ids=ids)

        snapped, codec = quantize_dataset(
            dataset, bits_per_dim=cfg.bits_per_dim
        )

        tracer = cfg.resolve_tracer()
        registry = (
            MetricsRegistry() if cfg.observability_enabled else None
        )
        run_span = tracer.start_span(
            "run", plan=cfg.plan.label, n=dataset.size,
            d=dataset.dimensions, resume=sup.resume,
        )

        store: Optional[CheckpointStore] = None
        resumed: List[str] = []
        if sup.checkpoint_dir:
            store = CheckpointStore(sup.checkpoint_dir)
            store.begin(self._run_key(dataset), resume=sup.resume)

        # ---------------- stage: preprocess ----------------
        if store is not None and sup.resume and store.has_stage(
            STAGE_PREPROCESS
        ):
            with tracer.span(
                "preprocess", parent=run_span, resumed=True
            ):
                pre = self._load_preprocess(store)
            resumed.append(STAGE_PREPROCESS)
        else:
            # In a degraded-ok run the deadline only gates phase-1
            # reduce scheduling (overdue keys are lost, not fatal);
            # master-side preprocessing is never aborted.
            with tracer.span("preprocess", parent=run_span) as pre_span:
                pre = self._run_stage(
                    STAGE_PREPROCESS,
                    None if sup.degraded_ok else deadline,
                    lambda attempt, stage_deadline: preprocess(
                        snapped,
                        codec,
                        cfg.plan.partitioner,
                        cfg.num_groups,
                        sample_ratio=cfg.sample_ratio,
                        expansion=cfg.expansion,
                        seed=cfg.seed,
                    ),
                )
                pre_span.update(
                    sample_size=pre.sample.size,
                    sample_skyline=int(pre.sample_skyline.shape[0]),
                    seconds=pre.seconds,
                )
            if store is not None:
                self._save_preprocess(store, pre)

        runtime = self._acquire_runtime(cfg, pre, tracer, registry)

        # ---------------- stage: phase 1 ----------------
        if store is not None and sup.resume and store.has_stage(
            STAGE_PHASE1
        ):
            with tracer.span("phase1", parent=run_span, resumed=True):
                result1 = self._restore_job_result(
                    store, STAGE_PHASE1, "phase1-candidates"
                )
            resumed.append(STAGE_PHASE1)
        else:
            job1 = make_phase1_job(cfg.plan)
            splits = split_dataset(
                snapped, cfg.num_input_splits or cfg.num_workers * 2
            )

            with tracer.span("phase1", parent=run_span) as stage_span:

                def run_phase1(
                    attempt: int, stage_deadline: Optional[float]
                ):
                    policy = ReducePolicy(
                        lenient=sup.degraded_ok, deadline=stage_deadline
                    )
                    return runtime.run(
                        job1,
                        splits,
                        output_path="phase1/candidates",
                        reduce_policy=policy,
                        attempt=attempt,
                        parent_span=stage_span,
                    )

                # In lenient mode the reduce phase enforces the
                # deadline itself (overdue keys become lost keys, not
                # errors), so the stage runner never raises for it.
                result1 = self._run_stage(
                    STAGE_PHASE1, deadline, run_phase1,
                    strict=not sup.degraded_ok,
                )
                stage_span.set("attempt", result1.attempt)
            if store is not None:
                self._save_job_result(store, STAGE_PHASE1, result1)

        lost_keys: List[int] = list(result1.extras.get("lost_keys", []))
        candidate_blocks = self._candidate_blocks(result1, snapped.dimensions)

        # ---------------- stage: partial merge (ZMP) ----------------
        partial_result: Optional[JobResult] = None
        if cfg.plan.merge_algorithm == "ZMP":
            if store is not None and sup.resume and store.has_stage(
                STAGE_PARTIAL_MERGE
            ):
                with tracer.span(
                    "partial-merge", parent=run_span, resumed=True
                ):
                    partial_result = self._restore_job_result(
                        store, STAGE_PARTIAL_MERGE, "phase2-merge-partial"
                    )
                resumed.append(STAGE_PARTIAL_MERGE)
            else:
                partial_job = make_partial_merge_job(cfg.num_workers)
                with tracer.span(
                    "partial-merge", parent=run_span
                ) as stage_span:
                    partial_result = self._run_stage(
                        STAGE_PARTIAL_MERGE,
                        None if sup.degraded_ok else deadline,
                        lambda attempt, stage_deadline: runtime.run(
                            partial_job, candidate_blocks,
                            attempt=attempt, parent_span=stage_span,
                        ),
                    )
                    stage_span.set("attempt", partial_result.attempt)
                if store is not None:
                    self._save_job_result(
                        store, STAGE_PARTIAL_MERGE, partial_result
                    )
            candidate_blocks = self._candidate_blocks(
                partial_result, snapped.dimensions
            )

        # ---------------- stage: final merge ----------------
        # In a degraded-ok run the merges are the answer assembly for
        # whatever survived phase 1 — they run even past the deadline
        # (aborting them would discard the partial answer the degraded
        # contract promises).
        merge_deadline = None if sup.degraded_ok else deadline
        degrade_meta: Dict[str, Any] = {}
        if store is not None and sup.resume and store.has_stage(STAGE_FINAL):
            with tracer.span("phase2", parent=run_span, resumed=True):
                result2 = self._restore_job_result(
                    store, STAGE_FINAL, "phase2-merge"
                )
            resumed.append(STAGE_FINAL)
            payload = store.stage_payload(STAGE_FINAL)
            degrade_meta = payload.get("degradation", {})
            skyline = result2.outputs.get(
                0, Block.empty(snapped.dimensions)
            )
            masked = int(degrade_meta.get("masked_candidates", 0))
        else:
            job2 = make_phase2_job(cfg.plan)
            with tracer.span("phase2", parent=run_span) as stage_span:
                result2 = self._run_stage(
                    STAGE_FINAL,
                    merge_deadline,
                    lambda attempt, stage_deadline: runtime.run(
                        job2, candidate_blocks, output_path="skyline",
                        attempt=attempt, parent_span=stage_span,
                    ),
                )
                stage_span.set("attempt", result2.attempt)
            skyline = result2.outputs.get(
                0, Block.empty(snapped.dimensions)
            )
            skyline, masked = self._mask_uncertain(skyline, result1)
            if lost_keys:
                degrade_meta = self._degradation_meta(
                    result1, lost_keys, masked
                )
            if store is not None:
                self._save_job_result(
                    store,
                    STAGE_FINAL,
                    result2,
                    outputs_override=[(0, skyline)],
                    extra_payload={"degradation": degrade_meta},
                )

        # The jobs encode with the published codec — the checkpointed
        # one on a resumed run.  On the procpool path the per-task
        # registries were merged back into its stats by the pool's
        # drain, so they cover work done in worker processes too.
        kernel_stats = pre.codec.kernel_stats
        if registry is not None:
            # Which kernel path (uint64 fast vs packed-byte wide) served
            # this run, and how many rows went through it.
            registry.merge(kernel_stats)

        total_seconds = time.perf_counter() - started
        details = {
            "n": dataset.size,
            "d": dataset.dimensions,
            "num_groups": pre.rule.num_groups,
            "num_workers": cfg.num_workers,
            "executor": cfg.executor,
            "kernel_stats": kernel_stats.counters_as_dict().get(
                "zkernel", {}
            ),
            "checkpoint_dir": sup.checkpoint_dir,
            "resumed_stages": resumed,
            "input": dict(quarantine),
        }
        run_span.set("skyline", skyline.size)
        run_span.set("resumed_stages", len(resumed))
        run_span.finish()
        base = dict(
            plan=cfg.plan,
            skyline=skyline,
            preprocess_result=pre,
            phase1=result1,
            phase2=result2,
            total_seconds=total_seconds,
            details=details,
            phase2_partial=partial_result,
            trace=tracer if tracer.enabled else None,
            observed_metrics=registry,
        )
        if degrade_meta:
            report: RunReport = PartialRunReport(
                completeness=float(degrade_meta["completeness"]),
                lost_groups=list(degrade_meta["groups_lost"]),
                masked_candidates=int(degrade_meta["masked_candidates"]),
                completeness_detail=dict(degrade_meta),
                **base,
            )
        else:
            report = RunReport(**base)
        export_observability(cfg, report)
        return report

    # ------------------------------------------------------------------
    # runtime lifecycle
    # ------------------------------------------------------------------
    def _acquire_runtime(
        self,
        cfg: EngineConfig,
        pre: PreprocessResult,
        tracer: Tracer,
        registry: Optional[MetricsRegistry],
    ) -> MapReduceRuntime:
        """Build the runtime once and reuse it across run() calls.

        A resumed run() on the same supervisor keeps the live cache and
        DFS: re-publishing the (identical) preprocessing artefacts is an
        idempotent no-op, and re-executed jobs write attempt-scoped
        output paths that readers resolve with
        :meth:`~repro.mapreduce.hdfs.InMemoryDFS.latest`.
        """
        runtime = self._runtime
        if runtime is None:
            runtime = MapReduceRuntime(
                EXECUTORS[cfg.executor](cfg),
                dfs=InMemoryDFS(),
                cache=DistributedCache(),
                fault_plan=cfg.fault_plan,
            )
            self._runtime = runtime
        # Observability handles are per-run, not per-runtime.
        runtime.tracer = tracer
        runtime.metrics = registry
        runtime.cluster.observer = registry
        pre.publish(runtime.cache)
        return runtime

    # ------------------------------------------------------------------
    # stage driver
    # ------------------------------------------------------------------
    def _run_stage(self, name, deadline, fn, strict=True):
        """Run one stage under the deadline/retry policy.

        ``fn(attempt, stage_deadline)`` does the work; attempt numbers
        tag the retried job so a deterministic fault schedule is
        re-drawn rather than replayed.  A stage budget narrows the
        effective deadline for that stage only.  ``strict=False``
        (lenient phase 1) still *computes* the effective deadline —
        which the reduce policy turns into lost keys — but never raises
        for it: the overdue work degrades instead of aborting.
        """
        sup = self.supervisor
        budget = sup.stage_timeouts.get(name)
        last_error: Optional[FaultInjectionError] = None
        for attempt in range(sup.max_stage_retries + 1):
            now = time.monotonic()
            if strict and deadline is not None and now >= deadline:
                raise DeadlineExceededError(
                    f"run deadline exhausted before stage {name!r}"
                ) from last_error
            stage_deadline = deadline
            if budget is not None:
                stage_deadline = (
                    now + budget if deadline is None
                    else min(deadline, now + budget)
                )
            stage_start = now
            try:
                result = fn(attempt, stage_deadline)
            except FaultInjectionError as exc:
                last_error = exc
                continue
            if (
                strict
                and budget is not None
                and time.monotonic() - stage_start > budget
            ):
                raise DeadlineExceededError(
                    f"stage {name!r} exceeded its {budget}s budget"
                )
            return result
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # checkpoint adapters
    # ------------------------------------------------------------------
    def _run_key(self, dataset: Dataset) -> Dict[str, Any]:
        cfg = self.config
        return {
            "plan": cfg.plan.plan_string(),
            "n": dataset.size,
            "d": dataset.dimensions,
            "dataset_crc32": Block.from_dataset(dataset).checksum(),
            "num_groups": cfg.num_groups,
            "sample_ratio": cfg.sample_ratio,
            "bits_per_dim": cfg.bits_per_dim,
            "expansion": cfg.expansion,
            "seed": cfg.seed,
        }

    def _save_preprocess(
        self, store: CheckpointStore, pre: PreprocessResult
    ) -> None:
        sky = np.asarray(pre.sample_skyline, dtype=np.float64)
        sky_block = Block(np.arange(sky.shape[0], dtype=np.int64), sky)
        sample_block = Block(pre.sample.ids, pre.sample.points)
        store.save_stage(
            STAGE_PREPROCESS,
            payload={
                "rule": rule_to_dict(pre.rule),
                "codec": codec_to_dict(pre.codec),
                "seconds": pre.seconds,
                "details": {k: str(v) for k, v in pre.details.items()},
            },
            blocks=[(0, sky_block), (1, sample_block)],
        )

    def _load_preprocess(self, store: CheckpointStore) -> PreprocessResult:
        payload = store.stage_payload(STAGE_PREPROCESS)
        blocks = dict(store.load_blocks(STAGE_PREPROCESS))
        codec = codec_from_dict(payload["codec"])
        sample_skyline = blocks[0].points
        sample = Dataset(
            blocks[1].points, ids=blocks[1].ids, name="checkpointed-sample"
        )
        return PreprocessResult(
            rule=rule_from_dict(payload["rule"]),
            codec=codec,
            sample=sample,
            sample_skyline=sample_skyline,
            szb_tree=build_zbtree(codec, sample_skyline),
            seconds=float(payload.get("seconds", 0.0)),
            details=dict(payload.get("details", {})),
        )

    def _save_job_result(
        self,
        store: CheckpointStore,
        stage: str,
        result: JobResult,
        outputs_override: Optional[List[Tuple[int, Block]]] = None,
        extra_payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        if outputs_override is not None:
            keyed = outputs_override
        else:
            keyed = [
                (key, value)
                for key, value in sorted(result.outputs.items())
                if isinstance(value, Block)
            ]
        lost = {
            "keys": list(result.extras.get("lost_keys", [])),
            "reasons": {
                str(k): v
                for k, v in result.extras.get("lost_reasons", {}).items()
            },
            "floors": {
                str(k): list(v)
                for k, v in result.extras.get("lost_floors", {}).items()
            },
            "records": {
                str(k): int(v)
                for k, v in result.extras.get(
                    "reduce_input_records", {}
                ).items()
            },
        }
        payload = {
            "counters": result.counters.counters_as_dict(),
            "shuffle_records": result.shuffle_records,
            "shuffle_bytes": result.shuffle_bytes,
            "elapsed_seconds": result.elapsed_seconds,
            "attempt": result.attempt,
            "lost": lost,
        }
        payload.update(extra_payload or {})
        store.save_stage(stage, payload=payload, blocks=keyed)

    def _restore_job_result(
        self, store: CheckpointStore, stage: str, job_name: str
    ) -> JobResult:
        payload = store.stage_payload(stage)
        counters = MetricsRegistry()
        for group, names in payload.get("counters", {}).items():
            for name, value in names.items():
                counters.inc(group, name, value)
        outputs: Dict[int, Any] = {
            key: block for key, block in store.load_blocks(stage)
        }
        result = JobResult(
            job_name=job_name,
            outputs=outputs,
            counters=counters,
            # a resumed stage costs nothing this run: empty ledgers
            map_metrics=ClusterMetrics(phase=f"{stage}:checkpoint"),
            reduce_metrics=ClusterMetrics(phase=f"{stage}:checkpoint"),
            shuffle_records=int(payload.get("shuffle_records", 0)),
            shuffle_bytes=int(payload.get("shuffle_bytes", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            attempt=int(payload.get("attempt", 0)),
        )
        lost = payload.get("lost", {})
        if lost.get("keys"):
            result.extras["lost_keys"] = [int(k) for k in lost["keys"]]
            result.extras["lost_reasons"] = {
                int(k): v for k, v in lost.get("reasons", {}).items()
            }
            result.extras["lost_floors"] = {
                int(k): v for k, v in lost.get("floors", {}).items()
            }
            result.extras["reduce_input_records"] = {
                int(k): v for k, v in lost.get("records", {}).items()
            }
        return result

    # ------------------------------------------------------------------
    # degradation
    # ------------------------------------------------------------------
    @staticmethod
    def _candidate_blocks(
        result: JobResult, dimensions: int
    ) -> List[Block]:
        blocks = [
            value
            for _key, value in sorted(result.outputs.items())
            if isinstance(value, Block) and value.size > 0
        ]
        return blocks or [Block.empty(dimensions)]

    @staticmethod
    def _mask_uncertain(
        skyline: Block, result1: JobResult
    ) -> Tuple[Block, int]:
        """Drop merged points a lost group's records could dominate.

        Every record a lost reducer held is ``>=`` its key's floor in
        each dimension, so a merged point the floor does *not* dominate
        is certainly undominated by the lost group — what survives this
        mask is a certified subset of the true skyline.
        """
        floors = result1.extras.get("lost_floors", {})
        if not floors or skyline.size == 0:
            return skyline, 0
        uncertain = np.zeros(skyline.size, dtype=bool)
        for floor in floors.values():
            f = np.asarray(floor, dtype=np.float64)
            dominated = (
                (f <= skyline.points).all(axis=1)
                & (f < skyline.points).any(axis=1)
            )
            uncertain |= dominated
        if not uncertain.any():
            return skyline, 0
        return skyline.select(~uncertain), int(uncertain.sum())

    @staticmethod
    def _degradation_meta(
        result1: JobResult, lost_keys: List[int], masked: int
    ) -> Dict[str, Any]:
        records = result1.extras.get("reduce_input_records", {})
        total_records = sum(records.values())
        lost_records = sum(records.get(key, 0) for key in lost_keys)
        groups_total = len(records) if records else len(lost_keys)
        groups_lost = sorted(int(k) for k in lost_keys)
        completed = max(groups_total - len(groups_lost), 0)
        coverage = (
            (total_records - lost_records) / total_records
            if total_records
            else 0.0
        )
        return {
            "groups_total": groups_total,
            "groups_completed": completed,
            "groups_lost": groups_lost,
            "completeness": (
                completed / groups_total if groups_total else 0.0
            ),
            "candidate_coverage": coverage,
            # the lost groups' routed regions were never locally merged:
            # each may still hide true skyline points
            "uncertain_regions": groups_lost,
            "masked_candidates": int(masked),
            "lost_reasons": {
                str(k): v
                for k, v in result1.extras.get("lost_reasons", {}).items()
            },
        }


def supervised_run(
    plan: str,
    data: Union[Dataset, Sequence[Sequence[float]]],
    ids: Optional[Sequence[int]] = None,
    supervisor: Optional[SupervisorConfig] = None,
    **config_kwargs: object,
) -> RunReport:
    """One-call convenience mirroring :func:`repro.pipeline.driver.run_plan`."""
    config = EngineConfig.from_plan_string(plan, **config_kwargs)
    with PipelineSupervisor(config, supervisor) as driver:
        return driver.run(data, ids=ids)

"""The paper's three-phase distributed skyline engine.

* :mod:`repro.pipeline.plans` — named strategies ("ZDG+ZS+ZM",
  "Grid+SB", ...) parsed into a :class:`~repro.pipeline.plans.PlanConfig`;
* :mod:`repro.pipeline.preprocess` — phase 0 on the master: sample,
  sample skyline, partition rule, group map (§5.1);
* :mod:`repro.pipeline.phase1` — the 1st MapReduce job computing skyline
  candidates (Algorithm 3 + combiners, §5.2);
* :mod:`repro.pipeline.phase2` — the 2nd MapReduce job merging
  candidates via Z-merge / Z-search / sort-based (§5.3);
* :mod:`repro.pipeline.driver` — :class:`~repro.pipeline.driver.SkylineEngine`
  (the supervisor with every policy off) producing a
  :class:`~repro.pipeline.driver.RunReport`;
* :mod:`repro.pipeline.gpmrs` — the MR-GPMRS baseline (grid + bitstring
  + multi-reducer merge) [12];
* :mod:`repro.pipeline.checkpoint` — versioned on-disk stage
  checkpoints (atomic manifest + CRC-guarded block payloads);
* :mod:`repro.pipeline.supervisor` — the one driver of the three
  phases, optionally checkpointed, resumable and gracefully degrading.
"""

from repro.pipeline.advisor import Advice, advise
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.compare import compare_plans
from repro.pipeline.driver import EngineConfig, RunReport, SkylineEngine
from repro.pipeline.gpmrs import run_gpmrs
from repro.pipeline.plans import PlanConfig, parse_plan
from repro.pipeline.preprocess import PreprocessResult, preprocess
from repro.pipeline.ranking_job import distributed_dominance_scores
from repro.pipeline.serialization import (
    report_to_json,
    rule_from_json,
    rule_to_json,
)
from repro.pipeline.supervisor import (
    PartialRunReport,
    PipelineSupervisor,
    SupervisorConfig,
    supervised_run,
)

__all__ = [
    "Advice",
    "CheckpointStore",
    "EngineConfig",
    "PartialRunReport",
    "PipelineSupervisor",
    "PlanConfig",
    "PreprocessResult",
    "RunReport",
    "SkylineEngine",
    "SupervisorConfig",
    "advise",
    "compare_plans",
    "distributed_dominance_scores",
    "parse_plan",
    "preprocess",
    "report_to_json",
    "rule_from_json",
    "rule_to_json",
    "run_gpmrs",
    "supervised_run",
]

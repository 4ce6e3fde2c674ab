"""Tests for the checkpointed, resumable, degradable pipeline supervisor.

The acceptance contract:

* resuming an interrupted run — after *any* durable stage, on either
  executor — produces the bit-identical skyline id set;
* a degraded run never raises: it returns a :class:`PartialRunReport`
  whose skyline is a *subset* of the true skyline, with completeness
  < 1.0 and the lost groups named;
* malformed input records are quarantined, never abort phase 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigurationError, DeadlineExceededError
from repro.core.skyline import skyline_indices_oracle
from repro.data.synthetic import generate, independent
from repro.mapreduce.faults import FaultPlan
from repro.observability import Tracer
from repro.pipeline.driver import run_plan
from repro.pipeline.supervisor import (
    PartialRunReport,
    SupervisorConfig,
    supervised_run,
)
#: scripted terminal kill of the named stage's first reduce task —
#: 99 failures against max_attempts=2 exhausts the retry budget
KILL = {
    "phase1": ("phase1-candidates:reduce", 0),
    "partial_merge": ("phase2-merge-partial:reduce", 0),
    "final": ("phase2-merge:reduce", 0),
}


def interrupting_plan(stage):
    return FaultPlan(scripted_failures={KILL[stage]: 99}, max_attempts=2)


def tiny(seed=3):
    return independent(240, 3, seed=seed)


def interrupted_then_resumed(plan, ds, stage, executor, tmp_path,
                             **kwargs):
    """Run to the interruption, then resume; returns the final report."""
    from repro.core.exceptions import FaultInjectionError

    with pytest.raises(FaultInjectionError):
        supervised_run(
            plan, ds,
            fault_plan=interrupting_plan(stage),
            executor=executor,
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), max_stage_retries=0
            ),
            **kwargs,
        )
    return supervised_run(
        plan, ds,
        executor=executor,
        supervisor=SupervisorConfig(
            checkpoint_dir=str(tmp_path), resume=True
        ),
        **kwargs,
    )


def report_fingerprint(report):
    """Everything a run computes, minus wall-clock time: the ordered
    skyline, every job's counters and per-worker ledgers, the cost
    model, shuffle volume and the multiset of trace span names."""
    jobs = [report.phase1, report.phase2]
    if report.phase2_partial is not None:
        jobs.append(report.phase2_partial)
    return {
        "skyline_ids": report.skyline.ids.tolist(),
        "skyline_points": report.skyline.points.tobytes(),
        "counters": [job.counters.as_dict() for job in jobs],
        "ledgers": [
            [
                (ledger.tasks, ledger.cost_units)
                for ledger in metrics.ledgers
            ]
            for job in jobs
            for metrics in (job.map_metrics, job.reduce_metrics)
        ],
        "total_cost": report.total_cost,
        "makespan_cost": report.makespan_cost,
        "shuffle_records": report.shuffle_records,
        "spans": sorted(span.name for span in report.trace.spans),
    }


#: the plans compared on every executor; the default executor keeps
#: the bare plan id
CLEAN_RUN_CASES = [
    pytest.param(
        plan, executor,
        id=plan if executor == "simulated" else f"{plan}-{executor}",
    )
    for executor in ("simulated", "threaded", "procpool")
    for plan in ("Naive-Z+ZS", "ZHG+SB", "ZDG+ZS+ZM", "ZDG+ZS+ZMP")
]


class TestCleanSupervisedRun:
    @pytest.mark.parametrize("plan, executor", CLEAN_RUN_CASES)
    def test_matches_unsupervised_engine(self, plan, executor):
        ds = tiny()
        kwargs = dict(num_groups=6, num_workers=3, executor=executor)
        base = run_plan(plan, ds, tracer=Tracer(), **kwargs)
        rep = supervised_run(plan, ds, tracer=Tracer(), **kwargs)
        assert report_fingerprint(rep) == report_fingerprint(base)
        assert not isinstance(rep, PartialRunReport)

    def test_checkpointing_does_not_change_the_answer(self, tmp_path):
        ds = tiny()
        base = run_plan("ZDG+ZS+ZM", ds, num_groups=6, num_workers=3)
        rep = supervised_run(
            "ZDG+ZS+ZM", ds, num_groups=6, num_workers=3,
            supervisor=SupervisorConfig(checkpoint_dir=str(tmp_path)),
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)


class TestResumeEquivalence:
    """{Naive-Z, ZHG, ZDG} x {SB, ZS}, interrupted after each durable
    stage, resumed to the bit-identical skyline — on both executors."""

    @pytest.mark.parametrize("executor", ["simulated", "threaded"])
    @pytest.mark.parametrize("stage", ["phase1", "final"])
    @pytest.mark.parametrize("part", ["Naive-Z", "ZHG", "ZDG"])
    @pytest.mark.parametrize("local", ["SB", "ZS"])
    def test_resume_is_bit_identical(
        self, part, local, stage, executor, tmp_path
    ):
        plan = f"{part}+{local}"
        ds = tiny()
        base = run_plan(plan, ds, num_groups=5, num_workers=3)
        rep = interrupted_then_resumed(
            plan, ds, stage, executor, tmp_path,
            num_groups=5, num_workers=3,
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)
        assert np.array_equal(
            np.sort(rep.skyline.points, axis=0),
            np.sort(base.skyline.points, axis=0),
        )
        # killing the final merge means phase 1 was already durable
        if stage == "final":
            assert "phase1" in rep.details["resumed_stages"]

    def test_resumed_run_counts_its_kernel_work(self, tmp_path):
        """Regression: the kernel stats were read from the codec this
        run quantized with, not the checkpointed codec the resumed jobs
        encode with, so a resumed run reported no kernel work."""
        rep = interrupted_then_resumed(
            "ZDG+ZS", tiny(), "phase1", "simulated", tmp_path,
            num_groups=5, num_workers=3,
        )
        assert rep.details["resumed_stages"] == ["preprocess"]
        assert sum(rep.details["kernel_stats"].values()) > 0

    def test_resume_across_executors(self, tmp_path):
        """The skyline is executor-independent, so a checkpoint written
        under the simulated executor may resume under threads."""
        ds = tiny()
        base = run_plan("ZDG+ZS", ds, num_groups=5, num_workers=3)
        with pytest.raises(Exception):
            supervised_run(
                "ZDG+ZS", ds, num_groups=5, num_workers=3,
                executor="simulated",
                fault_plan=interrupting_plan("final"),
                supervisor=SupervisorConfig(
                    checkpoint_dir=str(tmp_path), max_stage_retries=0
                ),
            )
        rep = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            executor="threaded",
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)

    def test_resume_after_partial_merge_interrupt(self, tmp_path):
        ds = tiny()
        base = run_plan("ZDG+ZS+ZMP", ds, num_groups=5, num_workers=3)
        rep = interrupted_then_resumed(
            "ZDG+ZS+ZMP", ds, "partial_merge", "simulated", tmp_path,
            num_groups=5, num_workers=3,
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)
        assert rep.details["resumed_stages"] == ["preprocess", "phase1"]

    def test_fully_completed_run_resumes_from_final(self, tmp_path):
        ds = tiny()
        cfg = SupervisorConfig(checkpoint_dir=str(tmp_path))
        first = supervised_run(
            "ZHG+ZS", ds, num_groups=5, num_workers=3, supervisor=cfg
        )
        again = supervised_run(
            "ZHG+ZS", ds, num_groups=5, num_workers=3,
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        assert list(again.skyline.ids) == list(first.skyline.ids)
        assert "final" in again.details["resumed_stages"]

    def test_resume_rejects_different_inputs(self, tmp_path):
        supervised_run(
            "ZHG+ZS", tiny(seed=3), num_groups=5, num_workers=3,
            supervisor=SupervisorConfig(checkpoint_dir=str(tmp_path)),
        )
        with pytest.raises(ConfigurationError, match="run key"):
            supervised_run(
                "ZHG+ZS", tiny(seed=4), num_groups=5, num_workers=3,
                supervisor=SupervisorConfig(
                    checkpoint_dir=str(tmp_path), resume=True
                ),
            )

    @given(
        plan=st.sampled_from(["Naive-Z+SB", "ZHG+ZS", "ZDG+ZS+ZM"]),
        stage=st.sampled_from(["phase1", "final"]),
        executor=st.sampled_from(["simulated", "threaded"]),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=10, deadline=None)
    def test_resume_equivalence_property(
        self, plan, stage, executor, seed, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("ckpt")
        ds = generate("anticorrelated", 150, 3, seed=seed)
        base = run_plan(plan, ds, num_groups=4, num_workers=2, seed=seed)
        rep = interrupted_then_resumed(
            plan, ds, stage, executor, tmp,
            num_groups=4, num_workers=2, seed=seed,
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)


class TestStagePolicies:
    def test_stage_retry_redraws_fault_schedule(self):
        """A terminal fault in attempt 0 succeeds on the whole-job
        retry because the retried job is tagged with a fresh attempt."""
        ds = tiny()
        base = run_plan("ZDG+ZS", ds, num_groups=5, num_workers=3)
        rep = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            fault_plan=interrupting_plan("final"),
            supervisor=SupervisorConfig(max_stage_retries=1),
        )
        assert list(rep.skyline.ids) == list(base.skyline.ids)

    def test_stage_retry_attempt_surfaces_in_report(self):
        """Regression: the whole-job retry attempt used to be dropped
        when the JobResult was built, so a retried stage was
        indistinguishable from a clean one downstream."""
        ds = tiny()
        rep = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            fault_plan=interrupting_plan("final"),
            supervisor=SupervisorConfig(max_stage_retries=1),
        )
        assert rep.phase2.attempt == 1
        assert rep.phase2.tagged_name == "phase2-merge@1"
        assert rep.phase1.attempt == 0
        summary = rep.summary()
        assert summary["phase2_attempt"] == 1
        assert summary["phase1_attempt"] == 0

    def test_engine_never_retries_a_whole_job(self):
        """The engine is the supervisor with every policy off: a
        terminal stage fault escapes ``run_plan`` that the default
        supervisor recovers from by retrying the job once."""
        from repro.core.exceptions import FaultInjectionError

        ds = tiny()
        with pytest.raises(FaultInjectionError):
            run_plan(
                "ZDG+ZS", ds, num_groups=5, num_workers=3,
                fault_plan=interrupting_plan("final"),
            )
        rep = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            fault_plan=interrupting_plan("final"),
            supervisor=SupervisorConfig(),
        )
        assert rep.summary()["phase2_attempt"] == 1

    def test_attempt_round_trips_through_checkpoint(self, tmp_path):
        ds = tiny()
        first = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            fault_plan=interrupting_plan("final"),
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), max_stage_retries=1
            ),
        )
        assert first.phase2.attempt == 1
        resumed = supervised_run(
            "ZDG+ZS", ds, num_groups=5, num_workers=3,
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        assert resumed.phase2.attempt == 1
        assert resumed.summary()["phase2_attempt"] == 1

    def test_rerun_on_same_supervisor_reuses_live_runtime(self):
        """A second run() on the same supervisor keeps the live
        runtime: cache re-publication is idempotent, rerun outputs land
        in attempt-scoped DFS paths, and ``latest`` resolves them."""
        from repro.pipeline.driver import EngineConfig
        from repro.pipeline.supervisor import PipelineSupervisor

        ds = tiny()
        sup = PipelineSupervisor(
            EngineConfig.from_plan_string(
                "ZDG+ZS+ZM", num_groups=5, num_workers=3
            ),
            SupervisorConfig(),
        )
        first = sup.run(ds)
        runtime = sup._runtime
        second = sup.run(ds)
        assert sup._runtime is runtime
        assert list(first.skyline.ids) == list(second.skyline.ids)
        # the resumed reader sees the newest attempt's output
        assert runtime.dfs.latest_path("skyline") == "skyline/attempt-1"
        latest = runtime.dfs.latest("skyline")
        assert sorted(latest[0].ids) == sorted(second.skyline.ids)

    def test_retry_budget_exhaustion_raises_terminally(self):
        # kill both the base attempt and the @1 retry
        fp = FaultPlan(
            scripted_failures={
                ("phase2-merge:reduce", 0): 99,
                ("phase2-merge@1:reduce", 0): 99,
            },
            max_attempts=2,
        )
        from repro.core.exceptions import FaultInjectionError

        with pytest.raises(FaultInjectionError, match="exhausted"):
            supervised_run(
                "ZDG+ZS", tiny(), num_groups=5, num_workers=3,
                fault_plan=fp,
                supervisor=SupervisorConfig(max_stage_retries=1),
            )

    def test_strict_deadline_raises_cleanly(self):
        with pytest.raises(DeadlineExceededError, match="deadline"):
            supervised_run(
                "ZDG+ZS", tiny(), num_groups=5, num_workers=3,
                supervisor=SupervisorConfig(deadline_seconds=0.0),
            )

    def test_strict_stage_budget_raises_cleanly(self):
        with pytest.raises(DeadlineExceededError):
            supervised_run(
                "ZDG+ZS", tiny(), num_groups=5, num_workers=3,
                supervisor=SupervisorConfig(
                    stage_timeouts={"phase1": 0.0}
                ),
            )

    def test_resume_without_dir_is_rejected(self):
        with pytest.raises(ConfigurationError, match="resume"):
            SupervisorConfig(resume=True)


class TestGracefulDegradation:
    @pytest.mark.parametrize("plan", ["ZHG+SB+ZM", "ZDG+ZS+ZM"])
    def test_lost_group_returns_certified_subset(self, plan):
        ds = tiny()
        true_ids = set(
            run_plan(plan, ds, num_groups=6, num_workers=3).skyline.ids
        )
        rep = supervised_run(
            plan, ds, num_groups=6, num_workers=3,
            fault_plan=interrupting_plan("phase1"),
            supervisor=SupervisorConfig(
                degraded_ok=True, max_stage_retries=0
            ),
        )
        assert isinstance(rep, PartialRunReport)
        assert rep.degraded
        # never a wrong answer: every returned id is a true skyline id
        assert set(rep.skyline.ids) <= true_ids
        assert rep.completeness < 1.0
        # the lost groups are named, with reasons
        assert rep.lost_groups
        detail = rep.completeness_detail
        assert detail["groups_lost"] == rep.lost_groups
        assert detail["uncertain_regions"] == rep.lost_groups
        assert all(
            str(g) in detail["lost_reasons"] for g in rep.lost_groups
        )
        assert 0.0 <= detail["candidate_coverage"] < 1.0
        assert rep.phase1.counters.get("reduce", "lost_tasks") >= 1
        summary = rep.summary()
        assert summary["completeness"] < 1.0
        assert summary["lost_groups"] == len(rep.lost_groups)

    def test_degraded_skyline_is_mutually_undominated(self):
        rep = supervised_run(
            "ZHG+ZS+ZM", tiny(), num_groups=6, num_workers=3,
            fault_plan=interrupting_plan("phase1"),
            supervisor=SupervisorConfig(
                degraded_ok=True, max_stage_retries=0
            ),
        )
        assert rep.skyline.size > 0
        kept = skyline_indices_oracle(rep.skyline.points)
        assert len(kept) == rep.skyline.size

    def test_deadline_mid_phase_degrades_instead_of_raising(self):
        """An already-expired deadline loses every reduce key; the run
        still returns (an empty, trivially correct partial skyline)."""
        rep = supervised_run(
            "ZDG+ZS+ZM", tiny(), num_groups=6, num_workers=3,
            supervisor=SupervisorConfig(
                degraded_ok=True, deadline_seconds=0.0
            ),
        )
        assert isinstance(rep, PartialRunReport)
        assert rep.completeness == 0.0
        assert rep.skyline.size == 0
        reasons = rep.completeness_detail["lost_reasons"]
        assert any("deadline" in r for r in reasons.values())

    def test_degraded_run_resumes_from_checkpoint(self, tmp_path):
        ds = tiny()
        rep = supervised_run(
            "ZHG+ZS+ZM", ds, num_groups=6, num_workers=3,
            fault_plan=interrupting_plan("phase1"),
            supervisor=SupervisorConfig(
                degraded_ok=True, max_stage_retries=0,
                checkpoint_dir=str(tmp_path),
            ),
        )
        again = supervised_run(
            "ZHG+ZS+ZM", ds, num_groups=6, num_workers=3,
            supervisor=SupervisorConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        # the partial answer and its accounting survive the restart
        assert isinstance(again, PartialRunReport)
        assert list(again.skyline.ids) == list(rep.skyline.ids)
        assert again.lost_groups == rep.lost_groups
        assert again.completeness == rep.completeness

    def test_clean_run_is_never_reported_degraded(self):
        rep = supervised_run(
            "ZDG+ZS", tiny(), num_groups=6, num_workers=3,
            supervisor=SupervisorConfig(degraded_ok=True),
        )
        assert not isinstance(rep, PartialRunReport)


class TestInputHardening:
    def test_malformed_records_never_abort_phase1(self):
        rng = np.random.default_rng(11)
        clean = rng.random((120, 3))
        rows = [list(r) for r in clean]
        rows.insert(5, [0.1, float("nan"), 0.2])     # nonfinite
        rows.insert(17, [0.4, 0.5])                  # dimension mismatch
        rows.insert(40, [0.1, float("inf"), 0.9])    # nonfinite
        rows.append(["zebra", 0.1, 0.2])             # non-numeric
        rep = supervised_run(
            "ZHG+ZS", rows, num_groups=4, num_workers=2
        )
        counts = rep.details["input"]
        assert counts["quarantined_records"] == 4
        assert counts["nonfinite"] == 2
        assert counts["dimension_mismatch"] == 1
        assert counts["non_numeric"] == 1
        # the answer equals the clean dataset's skyline
        base = run_plan(
            "ZHG+ZS", Dataset(clean), num_groups=4, num_workers=2
        )
        assert sorted(rep.skyline.ids) == sorted(base.skyline.ids)

    def test_duplicate_ids_first_occurrence_wins(self):
        rows = [[0.5, 0.5], [0.1, 0.9], [0.9, 0.1], [0.2, 0.2]]
        ids = [1, 2, 2, 4]
        rep = supervised_run(
            "Naive-Z+ZS", rows, ids=ids, num_groups=2, num_workers=2
        )
        assert rep.details["input"]["duplicate_ids"] == 1
        assert 2 in rep.skyline.ids  # the kept (first) row with id 2
        assert rep.details["n"] == 3

    def test_validated_dataset_bypasses_hardening(self):
        rep = supervised_run(
            "ZHG+ZS", tiny(), num_groups=4, num_workers=2
        )
        assert rep.details["input"]["quarantined_records"] == 0

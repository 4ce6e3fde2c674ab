"""End-to-end integration tests: every plan x distribution is exact."""

import numpy as np
import pytest

from repro import EngineConfig, SkylineEngine, run_plan
from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigurationError
from repro.core.skyline import is_skyline_of
from repro.data.synthetic import anticorrelated, correlated, independent
from repro.pipeline.plans import parse_plan
from repro.zorder.encoding import quantize_dataset

PLANS = [
    "Grid+SB",
    "Grid+ZS",
    "Grid+BBS",
    "Angle+SB",
    "Angle+ZS",
    "Random+BNL",
    "Naive-Z+ZS",
    "ZHG+ZS",
    "ZHG+SB",
    "ZDG+ZS",
    "ZDG+ZS+ZM",
    "ZDG+SB+ZM",
    "ZDG+ZS+ZMP",
    "ZDG+BBS+ZM",
]

DISTRIBUTIONS = [independent, correlated, anticorrelated]


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("dist_fn", DISTRIBUTIONS)
def test_every_plan_exact(plan, dist_fn):
    ds = dist_fn(1500, 4, seed=11)
    snapped, _ = quantize_dataset(ds, bits_per_dim=10)
    report = run_plan(
        plan, ds, num_groups=8, num_workers=4, bits_per_dim=10, seed=0
    )
    assert is_skyline_of(report.skyline.points, snapped.points)


class TestEngineBehaviour:
    def test_high_dimensional_run(self):
        ds = independent(800, 12, seed=3)
        snapped, _ = quantize_dataset(ds, bits_per_dim=8)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, bits_per_dim=8
        )
        assert is_skyline_of(report.skyline.points, snapped.points)

    def test_two_dimensional_run(self):
        ds = independent(2000, 2, seed=4)
        snapped, _ = quantize_dataset(ds, bits_per_dim=10)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, bits_per_dim=10
        )
        assert is_skyline_of(report.skyline.points, snapped.points)

    def test_skyline_ids_trace_back_to_input(self):
        ds = independent(1200, 4, seed=5)
        snapped, _ = quantize_dataset(ds, bits_per_dim=10)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, bits_per_dim=10
        )
        lookup = {int(i): row for i, row in zip(snapped.ids, snapped.points)}
        for pid, point in zip(report.skyline.ids, report.skyline.points):
            assert np.array_equal(lookup[int(pid)], point)

    def test_report_summary_fields(self):
        ds = independent(1000, 3, seed=6)
        report = run_plan("ZHG+ZS", ds, num_groups=4, num_workers=2)
        summary = report.summary()
        for field in (
            "plan", "skyline", "candidates", "shuffle_records",
            "preprocess_s", "phase1_s", "merge_s", "total_s",
            "makespan_cost", "reducer_skew",
        ):
            assert field in summary
        assert summary["skyline"] == report.skyline_size
        assert report.total_cost >= report.makespan_cost

    def test_straggler_injection_slows_makespan(self):
        ds = independent(3000, 4, seed=7)
        base = run_plan(
            "Naive-Z+ZS", ds, num_groups=8, num_workers=4, seed=0
        )
        slowed = run_plan(
            "Naive-Z+ZS", ds, num_groups=8, num_workers=4, seed=0,
            slowdown_factors=[50.0, 1.0, 1.0, 1.0],
        )
        assert (
            slowed.phase1.map_metrics.makespan_seconds
            > base.phase1.map_metrics.makespan_seconds
        )

    def test_deterministic_skyline_across_runs(self):
        ds = anticorrelated(1500, 4, seed=8)
        a = run_plan("ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, seed=1)
        b = run_plan("ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, seed=1)
        assert sorted(a.skyline.ids.tolist()) == sorted(b.skyline.ids.tolist())

    def test_config_validation(self):
        plan = parse_plan("Grid+SB")
        with pytest.raises(ConfigurationError):
            EngineConfig(plan=plan, num_groups=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(plan=plan, num_workers=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(plan=plan, sample_ratio=0.0)

    def test_num_input_splits_override(self):
        ds = independent(1000, 3, seed=9)
        cfg = EngineConfig.from_plan_string(
            "ZHG+ZS", num_groups=4, num_workers=2, num_input_splits=16
        )
        report = SkylineEngine(cfg).run(ds)
        assert report.phase1.map_metrics.ledgers[0].tasks == 8

    def test_zdg_dropped_partitions_end_to_end(self):
        # Two well-separated diagonal clusters: the upper cluster's
        # partitions are fully dominated by the lower cluster's regions
        # and must be dropped by the mapper — without losing exactness.
        rng = np.random.default_rng(31)
        low = rng.random((1500, 4)) * 0.25
        high = rng.random((1500, 4)) * 0.25 + 0.7
        ds = Dataset(np.vstack([low, high]), name="two-clusters")
        snapped, _ = quantize_dataset(ds, bits_per_dim=10)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4,
            bits_per_dim=10, seed=0,
        )
        assert is_skyline_of(report.skyline.points, snapped.points)
        # Points were eliminated before the shuffle, via prefilter
        # and/or dominated-partition drops.
        counters = report.phase1.counters
        eliminated = counters.counter("phase1", "prefiltered_records") + (
            counters.counter("phase1", "dropped_records")
        )
        assert eliminated > 1000

    def test_failed_worker_engine_run(self):
        ds = independent(2000, 4, seed=32)
        snapped, _ = quantize_dataset(ds, bits_per_dim=10)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4,
            bits_per_dim=10, seed=0, failed_workers=[0],
        )
        assert is_skyline_of(report.skyline.points, snapped.points)
        # The failed worker did nothing in any phase.
        for metrics in (
            report.phase1.map_metrics, report.phase1.reduce_metrics,
            report.phase2.reduce_metrics,
        ):
            assert metrics.ledgers[0].tasks == 0

    def test_zmp_populates_partial_phase(self):
        ds = anticorrelated(2000, 4, seed=12)
        report = run_plan(
            "ZDG+ZS+ZMP", ds, num_groups=8, num_workers=4, seed=0
        )
        assert report.phase2_partial is not None
        assert report.merge_makespan_cost > 0
        # The partial round fans out over more than one worker.
        busy = [
            w for w in report.phase2_partial.reduce_metrics.ledgers
            if w.tasks > 0
        ]
        assert len(busy) > 1
        # ZM has no partial phase.
        plain = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=8, num_workers=4, seed=0
        )
        assert plain.phase2_partial is None
        assert sorted(plain.skyline.ids.tolist()) == sorted(
            report.skyline.ids.tolist()
        )

    def test_tiny_dataset(self):
        ds = independent(5, 3, seed=10)
        snapped, _ = quantize_dataset(ds, bits_per_dim=10)
        report = run_plan(
            "ZDG+ZS+ZM", ds, num_groups=4, num_workers=2, bits_per_dim=10
        )
        assert is_skyline_of(report.skyline.points, snapped.points)

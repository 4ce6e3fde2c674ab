"""Chaos smoke for the crash-safe serving layer (``repro.serving``).

Three guarded measurements, written to ``BENCH_serving_chaos.json``:

* **availability under chaos** — a seeded replay with worker crashes,
  writer crashes, cache corruption, and injected queue delays must
  still answer at least **99%** of non-shed operations, and every
  failure must be a *typed* serving error;
* **latency under chaos** — p99 read latency of the chaos run must
  stay within **3x** of a faults-off baseline of the same workload on
  the same host (self-healing is not allowed to stall the read path);
* **recovery** — a scripted writer crash must recover onto a
  bit-identical snapshot (WAL replay digest equals the uninterrupted
  run's digest) within a bounded wall-clock budget.

Absolute seconds are host-dependent; the latency guard is a
self-relative ratio measured in the same process.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import update_bench

from repro.serving import (
    DatasetRegistry,
    DriftPolicy,
    ServiceConfig,
    ServingFaultPlan,
    SkylineService,
    WorkloadSpec,
    replay_workload,
)
from repro.serving.faults import WRITER_PHASES

#: minimum fraction of non-shed operations that must succeed
MIN_AVAILABILITY = 0.99
#: chaos p99 read latency must stay within this multiple of baseline
MAX_P99_RATIO = 3.0
#: one scripted crash recovery must finish within this budget
MAX_RECOVERY_SECONDS = 2.0


def _grid(rng, n: int, d: int = 5, cells: int = 256) -> np.ndarray:
    return rng.integers(0, cells, size=(n, d)).astype(np.float64)


def _chaos_replay(tmp_dir: str, plan: ServingFaultPlan):
    """One seeded workload replay; returns (report, final digest)."""
    registry = DatasetRegistry(
        keep_versions=128,
        durability_dir=tmp_dir,
        checkpoint_every=8,
        fault_plan=plan if plan.any_faults else None,
    )
    rng = np.random.default_rng(11)
    registry.register("bench", _grid(rng, 1200), drift=DriftPolicy.never())
    config = ServiceConfig(
        fault_plan=plan if plan.any_faults else None
    )
    with SkylineService(registry, config=config) as service:
        report = replay_workload(
            service,
            WorkloadSpec(
                dataset="bench",
                operations=400,
                read_fraction=0.85,
                seed=23,
                retry_attempts=4,
                retry_base_delay=0.002,
            ),
        )
    digest = registry.snapshot("bench").state_digest()
    return report, digest


class TestAvailabilityUnderChaos:
    def test_99_percent_availability_and_bounded_p99(self, tmp_path):
        chaos_plan = ServingFaultPlan(
            seed=41,
            worker_crash_rate=0.03,
            writer_crash_rate=0.1,
            cache_corruption_rate=0.1,
            queue_delay_rate=0.05,
            queue_delay_seconds=0.001,
        )
        calm_plan = ServingFaultPlan(seed=41)  # no faults: baseline

        calm, calm_digest = _chaos_replay(str(tmp_path / "calm"), calm_plan)
        chaos, _ = _chaos_replay(str(tmp_path / "chaos"), chaos_plan)

        calm_p99 = calm.latency_percentiles("read")["p99"]
        chaos_p99 = chaos.latency_percentiles("read")["p99"]
        p99_ratio = chaos_p99 / calm_p99 if calm_p99 > 0 else 1.0

        payload = {
            "operations": chaos.operations,
            "faults": chaos_plan.describe(),
            "availability": round(chaos.availability, 4),
            "retries": chaos.retries,
            "degraded_stale": chaos.degraded_stale,
            "degraded_partial": chaos.degraded_partial,
            "failures": dict(sorted(chaos.failures.items())),
            "baseline_read_p99_ms": round(calm_p99 * 1e3, 3),
            "chaos_read_p99_ms": round(chaos_p99 * 1e3, 3),
            "p99_ratio": round(p99_ratio, 3),
        }
        update_bench("serving_chaos", "availability_under_chaos", payload)

        assert chaos.availability >= MIN_AVAILABILITY, (
            f"availability {chaos.availability:.4f} under seeded chaos "
            f"(need >= {MIN_AVAILABILITY}); failures: {chaos.failures}"
        )
        assert p99_ratio <= MAX_P99_RATIO, (
            f"chaos p99 read latency is {p99_ratio:.2f}x the faults-off "
            f"baseline (allowed <= {MAX_P99_RATIO}x)"
        )
        # baseline sanity: the calm run is fully available and identical
        # workloads must agree when nothing is injected
        assert calm.availability == 1.0
        assert calm_digest  # non-empty digest


class TestCrashRecovery:
    def test_wal_recovery_is_bit_identical_and_fast(self, tmp_path):
        rng = np.random.default_rng(5)
        base = _grid(rng, 800)
        batches = []
        next_id = 10_000
        for _ in range(12):
            pts = _grid(rng, 5)
            ids = list(range(next_id, next_id + 5))
            next_id += 5
            batches.append((pts, ids))

        def run(tag: str, plan):
            registry = DatasetRegistry(
                durability_dir=str(tmp_path / tag),
                checkpoint_every=4,
                fault_plan=plan,
            )
            registry.register("ds", base, drift=DriftPolicy.never())
            service_config = ServiceConfig(fault_plan=plan)
            with SkylineService(registry, config=service_config) as service:
                from repro.serving import Mutation

                for pts, ids in batches:
                    service.mutate(Mutation.insert("ds", pts, ids))
            return registry

        clean = run("clean", None)
        expected = clean.snapshot("ds")

        recovery_times = {}
        for phase in WRITER_PHASES:
            plan = ServingFaultPlan(
                scripted_writer_crashes={("ds", 7): phase}
            )
            start = time.perf_counter()
            chaos = run(f"crash-{phase}", plan)
            elapsed = time.perf_counter() - start
            recovered = chaos.snapshot("ds")
            assert recovered.version == expected.version, phase
            assert recovered.state_digest() == expected.state_digest(), (
                f"phase {phase!r}: WAL recovery diverged from the "
                f"uninterrupted run"
            )
            status = chaos.writer_status("ds")
            assert not status["writer_down"]
            assert status["recoveries"] >= 1
            recovery_times[phase] = elapsed

        worst = max(recovery_times.values())
        payload = {
            "batches": len(batches),
            "dataset_points": int(base.shape[0]),
            "final_version": int(expected.version),
            "digest": expected.state_digest(),
            "run_seconds_by_phase": {
                phase: round(seconds, 4)
                for phase, seconds in recovery_times.items()
            },
            "worst_run_seconds": round(worst, 4),
        }
        update_bench("serving_chaos", "wal_recovery", payload)
        assert worst <= MAX_RECOVERY_SECONDS, (
            f"crash run + recovery took {worst:.3f}s "
            f"(budget {MAX_RECOVERY_SECONDS}s)"
        )

"""Chaos smoke for the sharded serving tier (``repro.serving.router``).

Two guarded scenarios, written to ``BENCH_serving_shards.json``:

* **crash + failover** — a 4-shard router loses one shard to a
  scripted crash mid-workload; the seeded mixed workload (with client
  retries) must still answer at least **99%** of non-shed operations,
  and the shard must fail over onto a **bit-identical** replacement
  (``Snapshot.state_digest()`` oracle);
* **terminal loss + certified partial** — a shard with no way back
  (terminal schedule) is crashed under a read-only workload; every
  degraded answer must carry a ``partial`` certificate whose floor
  bounds *verify* against an offline recompute — the served set is
  exactly the alive-union skyline minus the floor-masked uncertain
  rows, and a subset of the true full-data skyline.

Absolute seconds are host-dependent; the gates here are availability,
identity, and certificate soundness, not wall-clock.
"""

from __future__ import annotations


import numpy as np

from conftest import update_bench

from repro.core.skyline import skyline_indices_oracle
from repro.serving import (
    Query,
    RouterConfig,
    ServingFaultPlan,
    ShardedSkylineService,
    WorkloadSpec,
    floor_dominated_mask,
    replay_workload,
)
from repro.zorder.encoding import ZGridCodec

#: minimum fraction of non-shed operations that must succeed
MIN_AVAILABILITY = 0.99

D = 5
CELLS = 256
CODEC = ZGridCodec.grid_identity(D, bits_per_dim=8)


def _grid(rng, n: int, d: int = D, cells: int = CELLS) -> np.ndarray:
    return rng.integers(0, cells, size=(n, d)).astype(np.float64)


class TestCrashFailoverAvailability:
    def test_99_percent_availability_with_identical_failover(
        self, tmp_path
    ):
        rng = np.random.default_rng(17)
        points = _grid(rng, 1200)
        ids = np.arange(1200, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=31,
            scripted_shard_crashes={2: 120},
            shard_slow_rate=0.03,
            shard_slow_seconds=0.05,
            heartbeat_loss_rate=0.02,
        )
        config = RouterConfig(
            num_shards=4,
            hedge_after_seconds=0.02,
            breaker_cooldown_seconds=0.02,
            heartbeat_every_ops=25,
            keep_versions=64,
        )
        with ShardedSkylineService(
            "bench",
            points,
            ids=ids,
            codec=CODEC,
            config=config,
            durability_dir=str(tmp_path),
            fault_plan=plan,
        ) as router:
            report = replay_workload(
                router,
                WorkloadSpec(
                    dataset="bench",
                    operations=300,
                    read_fraction=0.85,
                    seed=23,
                    retry_attempts=4,
                    retry_base_delay=0.005,
                ),
            )
            states = router.shard_states()
            crashed = states[2]

        payload = {
            "shards": 4,
            "operations": report.operations,
            "faults": plan.describe(),
            "availability": round(report.availability, 4),
            "retries": report.retries,
            "degraded_partial": report.degraded_partial,
            "degraded_stale": report.degraded_stale,
            "failures": dict(sorted(report.failures.items())),
            "read_p99_ms": round(
                report.latency_percentiles("read")["p99"] * 1e3, 3
            ),
            "failovers": crashed["failovers"],
            "failover_identical": crashed["last_failover_identical"],
        }
        update_bench("serving_shards", "crash_failover", payload)

        assert report.availability >= MIN_AVAILABILITY, (
            f"availability {report.availability:.4f} with 1 of 4 shards "
            f"crashed mid-workload (need >= {MIN_AVAILABILITY}); "
            f"failures: {report.failures}"
        )
        assert not crashed["down"]
        assert crashed["failovers"] >= 1
        assert crashed["last_failover_identical"] is True, (
            "shard 2's WAL-recovered replacement diverged from the "
            "pre-crash snapshot digest"
        )


class TestCertifiedPartialVerification:
    def test_partial_answers_verify_against_offline_recompute(
        self, tmp_path
    ):
        rng = np.random.default_rng(19)
        points = _grid(rng, 1500)
        ids = np.arange(1500, dtype=np.int64)
        plan = ServingFaultPlan(
            seed=37,
            scripted_shard_crashes={1: 40},
            terminal_shards=(1,),
        )
        config = RouterConfig(
            num_shards=4,
            hedge_after_seconds=0.0,
            breaker_cooldown_seconds=0.001,
        )
        with ShardedSkylineService(
            "bench",
            points,
            ids=ids,
            codec=CODEC,
            config=config,
            durability_dir=str(tmp_path),
            fault_plan=plan,
        ) as router:
            # read-only: the lost shard's rows stay exactly `points`
            report = replay_workload(
                router,
                WorkloadSpec(
                    dataset="bench",
                    operations=120,
                    read_fraction=1.0,
                    seed=41,
                    retry_attempts=3,
                    retry_base_delay=0.002,
                ),
            )
            result = router.query(Query.full("bench"))
            cert = result.certificate
            lost_rows = int(
                (router.map.shard_of(points) == 1).sum()
            )

            assert cert["kind"] == "partial"
            assert cert["lost_shards"] == [1]
            floors = np.asarray(cert["floors"], dtype=np.float64)

            # soundness: every served id is in the TRUE skyline of the
            # full dataset, lost rows included
            truth_ids = set(
                ids[skyline_indices_oracle(points)].tolist()
            )
            served = set(result.ids.tolist())
            assert served <= truth_ids

            # exactness of the certificate: served = alive-union
            # skyline minus the floor-masked uncertain set
            alive = router.map.shard_of(points) != 1
            sky = skyline_indices_oracle(points[alive])
            sky_pts = points[alive][sky]
            sky_ids = ids[alive][sky]
            keep = ~floor_dominated_mask(sky_pts, floors)
            assert served == set(sky_ids[keep].tolist())
            assert cert["masked"] == int((~keep).sum())

        payload = {
            "shards": 4,
            "operations": report.operations,
            "faults": plan.describe(),
            "availability": round(report.availability, 4),
            "degraded_partial": report.degraded_partial,
            "lost_rows": lost_rows,
            "true_skyline": len(truth_ids),
            "served_certified": len(served),
            "masked_uncertain": int(cert["masked"]),
        }
        update_bench("serving_shards", "certified_partial", payload)

        assert report.availability >= MIN_AVAILABILITY, (
            f"availability {report.availability:.4f} with a terminally "
            f"lost shard (need >= {MIN_AVAILABILITY}); "
            f"failures: {report.failures}"
        )
        assert report.degraded_partial > 0

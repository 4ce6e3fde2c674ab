"""Seeded chaos: the service under injected faults.

The contract under chaos: every submitted future resolves (to an
answer or a *typed* error — nothing hangs), and no non-certified
answer is ever wrong — any result whose certificate is ``fresh`` or
``stale`` must be bit-identical to an offline recomputation against
the snapshot version it names.
"""

import re
import threading

import numpy as np
import pytest

from repro.core.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
    QueryPoisonedError,
    WriterDownError,
)
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    DatasetRegistry,
    DriftPolicy,
    Mutation,
    Query,
    ServiceConfig,
    ServingFaultPlan,
    SkylineService,
    WorkloadSpec,
    replay_workload,
)
from repro.serving.service import _EXECUTORS

#: terminal outcomes a chaos run is allowed to produce
ALLOWED_ERRORS = (
    OverloadedError,
    DeadlineExceededError,
    QueryPoisonedError,
    WriterDownError,
    CircuitOpenError,
    DatasetError,
)


def _grid(rng, n, d=4, cells=64):
    return rng.integers(0, cells, size=(n, d)).astype(np.float64)


def _verify_result(registry, query, result):
    """Recompute the answer offline on the version the result names."""
    try:
        snapshot = registry.snapshot_at(query.dataset, result.version)
    except DatasetError:
        return  # version aged out of the retention ring
    expected = _EXECUTORS[query.kind](query, snapshot)
    np.testing.assert_array_equal(result.ids, expected.ids)
    np.testing.assert_array_equal(result.points, expected.points)


@pytest.fixture()
def chaos_setup(tmp_path):
    plan = ServingFaultPlan(
        seed=13,
        worker_crash_rate=0.05,
        writer_crash_rate=0.15,
        cache_corruption_rate=0.2,
        queue_delay_rate=0.1,
        queue_delay_seconds=0.001,
    )
    metrics = MetricsRegistry()
    registry = DatasetRegistry(
        metrics=metrics,
        keep_versions=256,
        durability_dir=str(tmp_path),
        checkpoint_every=5,
        fault_plan=plan,
    )
    rng = np.random.default_rng(99)
    registry.register("ds", _grid(rng, 300), drift=DriftPolicy.never())
    service = SkylineService(
        registry, ServiceConfig(fault_plan=plan), metrics=metrics
    )
    return plan, metrics, registry, service


class TestChaosHammer:
    def test_every_future_resolves_and_no_wrong_answer(self, chaos_setup):
        plan, metrics, registry, service = chaos_setup
        rng = np.random.default_rng(7)
        queries = [
            Query.full("ds"),
            Query.subspace("ds", [0, 1, 2]),
            Query.topk("ds", 5),
            Query.kdominant("ds", 3),
        ]
        outcomes = []
        lock = threading.Lock()

        def reader(worker_seed):
            local = np.random.default_rng(worker_seed)
            for _ in range(40):
                query = queries[int(local.integers(0, len(queries)))]
                try:
                    future = service.submit(query)
                    result = future.result(timeout=30.0)
                except ALLOWED_ERRORS as exc:
                    with lock:
                        outcomes.append(("error", type(exc).__name__))
                    continue
                with lock:
                    outcomes.append(("ok", (query, result)))

        def writer():
            next_id = 10_000
            for i in range(30):
                batch = _grid(rng, 3)
                try:
                    future = service.submit(
                        Mutation.insert(
                            "ds", batch, list(range(next_id, next_id + 3))
                        )
                    )
                    next_id += 3
                    future.result(timeout=30.0)
                except ALLOWED_ERRORS:
                    continue

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in (1, 2, 3)
        ] + [threading.Thread(target=writer)]
        with service:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive(), "chaos hammer hung"

        read_ok = 0
        for kind, payload in outcomes:
            if kind == "error":
                continue
            query, result = payload
            assert result.certificate is not None
            if result.certificate["kind"] in ("fresh", "stale"):
                _verify_result(registry, query, result)
                read_ok += 1
        # chaos must not have starved the run of successful reads
        assert read_ok > 50
        # the pool self-healed every injected worker crash
        crashes = metrics.counter("serving", "worker_crashes")
        respawns = metrics.counter("serving", "worker_respawns")
        assert respawns == crashes
        # admission accounting balanced out (nothing leaked a slot)
        stats = service.admission.stats()
        for klass in stats:
            assert stats[klass]["queued"] == 0
            assert stats[klass]["running"] == 0

    def test_cache_never_serves_corrupted_payload(self, tmp_path):
        plan = ServingFaultPlan(seed=5, cache_corruption_rate=1.0)
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics, keep_versions=8)
        rng = np.random.default_rng(0)
        registry.register("ds", _grid(rng, 150), drift=DriftPolicy.never())
        with SkylineService(
            registry, ServiceConfig(fault_plan=plan), metrics=metrics
        ) as service:
            first = service.query(Query.full("ds"))
            second = service.query(Query.full("ds"))
        # every store is corrupted, so the repeat query must detect the
        # flip, miss, and recompute — never return corrupted bytes
        assert not second.cached
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.points, second.points)
        assert metrics.counter("serving", "cache_corrupt") >= 1
        assert metrics.counter("serving", "cache_corrupt") == (
            metrics.counter("serving", "cache_corruption_detected")
        )  # legacy alias stays in lockstep
        assert service.cache.corruptions_detected >= 1
        # a detected corruption is its own outcome, not a cold miss:
        # the dedicated counter must not leak into the miss accounting
        assert metrics.counter("serving", "cache_misses") == (
            service.cache.misses
        )
        assert service.cache.corruptions_detected == (
            metrics.counter("serving", "cache_corrupt")
        )

    def test_poison_query_is_quarantined(self, tmp_path):
        # worker_crash_rate=1: every handling attempt kills its worker
        plan = ServingFaultPlan(seed=1, worker_crash_rate=0.999999,
                                max_requeues=1)
        registry = DatasetRegistry(keep_versions=4)
        rng = np.random.default_rng(0)
        registry.register("ds", _grid(rng, 50))
        metrics = MetricsRegistry()
        with SkylineService(
            registry, ServiceConfig(fault_plan=plan), metrics=metrics
        ) as service:
            future = service.submit(Query.full("ds"))
            with pytest.raises(QueryPoisonedError) as excinfo:
                future.result(timeout=30.0)
            assert excinfo.value.attempts == 2  # 1 try + 1 requeue
            stats = service.admission.stats()
            assert stats["read"]["dropped"] == 1
            assert stats["read"]["queued"] == 0
        assert metrics.counter("serving", "worker_crashes") == 2
        assert metrics.counter("serving", "requeued") == 1

    def test_circuit_breaker_trips_on_writer_failures(self, tmp_path):
        # writer always crashes "before" and never recovers (no
        # durability + auto-recover off) -> consecutive mutation
        # failures must trip the per-dataset breaker
        plan = ServingFaultPlan(
            seed=2,
            scripted_writer_crashes={("ds", 2): "before"},
        )
        registry = DatasetRegistry(fault_plan=plan, keep_versions=4)
        rng = np.random.default_rng(0)
        registry.register("ds", _grid(rng, 50))
        config = ServiceConfig(
            auto_recover_writer=False,
            circuit_failure_threshold=2,
            circuit_cooldown_seconds=60.0,
        )
        with SkylineService(registry, config) as service:
            for expected in (WriterDownError, WriterDownError):
                with pytest.raises(expected):
                    service.mutate(
                        Mutation.insert("ds", _grid(rng, 1), [777])
                    )
            # breaker is now open: mutations are rejected at submit
            with pytest.raises(CircuitOpenError) as excinfo:
                service.mutate(Mutation.insert("ds", _grid(rng, 1), [778]))
            assert excinfo.value.retry_after_seconds > 0
            # reads still flow, degraded to the stale snapshot
            result = service.query(Query.full("ds"))
            assert result.certificate["kind"] == "stale"
            assert result.certificate["writer_down"] is True


class TestServingFaultSpec:
    def test_every_key_parses(self):
        plan = ServingFaultPlan.parse(
            "seed=7, worker=0.05,writer=0.1,cache=0.2,delay=0.3,"
            "delaysec=0.004,requeues=3,shard=0.01,shardslow=0.4,"
            "shardslowsec=0.06,heartbeat=0.5,crashshard=2:120+0:5,"
            "terminal=1+3"
        )
        assert plan == ServingFaultPlan(
            seed=7,
            worker_crash_rate=0.05,
            writer_crash_rate=0.1,
            cache_corruption_rate=0.2,
            queue_delay_rate=0.3,
            queue_delay_seconds=0.004,
            max_requeues=3,
            shard_crash_rate=0.01,
            shard_slow_rate=0.4,
            shard_slow_seconds=0.06,
            heartbeat_loss_rate=0.5,
            scripted_shard_crashes={2: 120, 0: 5},
            terminal_shards=(1, 3),
        )

    def test_rate_of_one_is_allowed(self):
        assert ServingFaultPlan.parse("worker=1").worker_crash_rate == 1.0

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("seed=1,worker", "must look like key=value"),
            ("seed=1,bogus=2", "unknown fault spec key 'bogus'"),
            ("worker=lots", "bad value 'lots'"),
            ("crashshard=2", "bad value '2'"),
            ("terminal=1+x", "bad value '1+x'"),
            ("cache=1.5", "must be in [0, 1]"),
        ],
    )
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ServingFaultPlan.parse(spec)


class TestReplayDeterminism:
    def _run(self, tmp_path, tag):
        plan = ServingFaultPlan(
            seed=21,
            worker_crash_rate=0.04,
            writer_crash_rate=0.2,
            cache_corruption_rate=0.15,
        )
        metrics = MetricsRegistry()
        registry = DatasetRegistry(
            metrics=metrics,
            keep_versions=64,
            durability_dir=str(tmp_path / tag),
            fault_plan=plan,
        )
        rng = np.random.default_rng(3)
        registry.register("ds", _grid(rng, 200), drift=DriftPolicy.never())
        with SkylineService(
            registry, ServiceConfig(fault_plan=plan), metrics=metrics
        ) as service:
            report = replay_workload(
                service,
                WorkloadSpec(
                    dataset="ds", operations=150, read_fraction=0.8,
                    seed=17, retry_attempts=4,
                ),
            )
        digest = registry.snapshot("ds").state_digest()
        return report, digest

    def test_same_seed_same_outcome(self, tmp_path):
        """The whole chaos run — faults, retries, recoveries — replays
        identically: same op counts, same failures, same final state."""
        a, digest_a = self._run(tmp_path, "a")
        b, digest_b = self._run(tmp_path, "b")
        assert (a.reads, a.writes, a.shed, a.expired) == (
            b.reads, b.writes, b.shed, b.expired
        )
        assert a.failures == b.failures
        assert a.final_version == b.final_version
        assert digest_a == digest_b

    def test_workload_stream_unchanged_by_retries(self, tmp_path):
        """Enabling retries must not perturb the seeded operation
        stream: with no faults, a retrying replay and a plain replay
        issue identical operations and land on the identical state."""
        def run(retries, tag):
            registry = DatasetRegistry(keep_versions=8)
            rng = np.random.default_rng(3)
            registry.register(
                "ds", _grid(rng, 200), drift=DriftPolicy.never()
            )
            with SkylineService(registry) as service:
                report = replay_workload(
                    service,
                    WorkloadSpec(
                        dataset="ds", operations=100, read_fraction=0.7,
                        seed=29, retry_attempts=retries,
                    ),
                )
            return report, registry.snapshot("ds").state_digest()

        plain, digest_plain = run(1, "plain")
        retried, digest_retried = run(4, "retried")
        assert plain.reads == retried.reads
        assert plain.writes == retried.writes
        assert plain.final_version == retried.final_version
        assert digest_plain == digest_retried
        assert retried.retries == 0  # nothing failed, nothing retried

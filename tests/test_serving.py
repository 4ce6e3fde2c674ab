"""Unit + property tests for the serving layer.

The load-bearing guarantee: every service answer is bit-identical to a
fresh offline computation over the same snapshot's alive set — cached
or not, incremental or drift-rebuilt, whatever the codec.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.core.skyline import skyline_indices_oracle
from repro.extensions.kdominant import k_dominant_skyline
from repro.extensions.subspace import subspace_skyline
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    DatasetRegistry,
    DriftPolicy,
    Mutation,
    Query,
    ResultCache,
    RouterConfig,
    ServiceConfig,
    ShardedSkylineService,
    SkylineClient,
    SkylineService,
    WorkloadSpec,
    replay_workload,
)
from repro.zorder.encoding import ZGridCodec, quantize_dataset


def grid_points(rng, n, d, top=16):
    return rng.integers(0, top, size=(n, d)).astype(np.float64)


def oracle_sky_ids(points, ids):
    """Offline reference: skyline ids of the alive set, sorted."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    keep = skyline_indices_oracle(points)
    return np.sort(ids[keep])


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_arrays_are_frozen(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 50, 3))
        snap = registry.snapshot("a")
        for array in (snap.points, snap.ids, snap.sky_points, snap.sky_ids):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_point_of_and_row_of(self, rng):
        points = grid_points(rng, 40, 3)
        ids = np.arange(100, 140, dtype=np.int64)
        registry = DatasetRegistry()
        registry.register("a", points, ids=ids)
        snap = registry.snapshot("a")
        assert np.array_equal(snap.point_of(117), points[17])
        assert snap.row_of(99) is None
        with pytest.raises(DatasetError):
            snap.point_of(99)

    def test_old_versions_stay_readable(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 30, 3))
        v1 = registry.snapshot("a")
        v1_points = v1.points.copy()
        registry.insert("a", grid_points(rng, 10, 3), np.arange(1000, 1010))
        registry.delete("a", [0, 1, 2])
        # The old reference still reads version 1 exactly.
        assert v1.version == 1
        assert np.array_equal(v1.points, v1_points)
        assert registry.snapshot("a").version == 3
        # ...and the retention ring can serve it too.
        assert registry.snapshot_at("a", 2).version == 2

    def test_published_skyline_never_changes(self, rng):
        registry = DatasetRegistry(keep_versions=1)
        registry.register("a", grid_points(rng, 200, 3, top=32))
        snap = registry.snapshot("a")
        before = pickle.dumps((snap.sky_points, snap.sky_ids, snap.points))
        alive = [int(i) for i in snap.ids]
        next_id = 1000
        for step in range(50):
            if step % 2 == 0:
                # low rows, so most inserts reach the skyline
                rows = grid_points(rng, 6, 3, top=8)
                ids = list(range(next_id, next_id + 6))
                next_id += 6
                registry.insert("a", rows, ids)
                alive.extend(ids)
            else:
                # delete skyline members first, so deletes re-promote
                sky = set(int(i) for i in registry.snapshot("a").sky_ids)
                doomed = [i for i in alive if i in sky][:4] or alive[:4]
                registry.delete("a", doomed)
                alive = [i for i in alive if i not in set(doomed)]
        assert registry.version("a") == 51
        after = pickle.dumps((snap.sky_points, snap.sky_ids, snap.points))
        assert after == before


# ----------------------------------------------------------------------
# drift policy + registry
# ----------------------------------------------------------------------
class TestDriftPolicy:
    def test_never(self):
        policy = DriftPolicy.never()
        assert not policy.should_rebuild(10**9, 1)

    def test_absolute_bound(self):
        policy = DriftPolicy.bounded(max_deletes=5, max_delete_fraction=None)
        assert not policy.should_rebuild(5, 1000)
        assert policy.should_rebuild(6, 1000)

    def test_fraction_bound(self):
        policy = DriftPolicy.bounded(max_delete_fraction=0.5)
        assert not policy.should_rebuild(50, 100)
        assert policy.should_rebuild(51, 100)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftPolicy(max_deletes=-1)


class TestRegistry:
    def test_register_requires_grid_points(self):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.register("a", np.array([[0.5, 1.0]]))

    def test_register_rejects_duplicate_names(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 10, 2))
        with pytest.raises(ConfigurationError):
            registry.register("a", grid_points(rng, 10, 2))

    def test_register_rejects_duplicate_ids(self, rng):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.register(
                "a", grid_points(rng, 4, 2), ids=np.array([1, 1, 2, 3])
            )

    def test_unknown_dataset(self):
        registry = DatasetRegistry()
        with pytest.raises(DatasetError):
            registry.snapshot("ghost")

    def test_initial_skyline_matches_oracle(self, rng):
        points = grid_points(rng, 200, 4)
        registry = DatasetRegistry()
        registry.register("a", points)
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(points, snap.ids)
        )

    def test_mutations_bump_version_and_stay_exact(self, rng):
        registry = DatasetRegistry()
        registry.register("a", grid_points(rng, 100, 3))
        pub = registry.insert(
            "a", grid_points(rng, 20, 3), np.arange(500, 520)
        )
        assert pub.version == 2
        pub = registry.delete("a", list(range(10)))
        assert pub.version == 3
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
        )

    def test_drift_rebuild_triggers_and_resets(self, rng):
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics)
        registry.register(
            "a",
            grid_points(rng, 60, 3),
            drift=DriftPolicy.bounded(
                max_deletes=5, max_delete_fraction=None
            ),
        )
        pub = registry.delete("a", [0, 1, 2])
        assert not pub.rebuilt
        pub = registry.delete("a", [3, 4, 5])  # 6 > 5 -> rebuild
        assert pub.rebuilt
        assert metrics.counter("serving", "drift_rebuilds") == 1
        # Counter reset: the next small delete is incremental again.
        pub = registry.delete("a", [6])
        assert not pub.rebuilt
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
        )

    def test_drift_rebuild_is_exact_at_scale(self, rng):
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics)
        points = grid_points(rng, 700, 3, top=64)
        registry.register(
            "a",
            points,
            codec=ZGridCodec.grid_identity(3, bits_per_dim=6),
            drift=DriftPolicy.bounded(max_deletes=3,
                                      max_delete_fraction=None),
        )
        pub = registry.delete("a", list(range(8)))
        assert pub.rebuilt
        assert metrics.counter("serving", "drift_rebuilds") == 1
        snap = registry.snapshot("a")
        assert np.array_equal(
            np.sort(snap.sky_ids), oracle_sky_ids(snap.points, snap.ids)
        )

    def test_register_dataset_quantizes_floats(self, rng):
        from repro.core.dataset import Dataset

        raw = Dataset(rng.random((80, 3)), name="raw")
        registry = DatasetRegistry()
        pub = registry.register_dataset("a", raw, bits_per_dim=8)
        assert pub.version == 1
        snap = registry.snapshot("a")
        assert snap.size == 80
        assert np.all(snap.points == np.floor(snap.points))


class TestDriftRebuildDigests:
    """A drift rebuild is a from-scratch recompute of a skyline that
    incremental maintenance already holds exactly, so it must change no
    observable state: a rebuilding dataset and a never-rebuilding twin
    fed the same churn publish identical digests at every version."""

    N, D = 600, 4

    def _churn(self, rounds=30):
        """Seeded ops: each round deletes 4 alive ids and inserts 2
        fresh points."""
        rng = np.random.default_rng(21)
        raw = rng.random((self.N + 2 * rounds, self.D))
        snapped, codec = quantize_dataset(
            Dataset(raw, name="churn"), bits_per_dim=10
        )
        points = snapped.points
        alive = list(range(self.N))
        ops = []
        for r in range(rounds):
            picked = sorted(
                int(i) for i in rng.choice(alive, size=4, replace=False)
            )
            alive = [i for i in alive if i not in picked]
            ops.append(("delete", None, picked))
            new = [self.N + 2 * r, self.N + 2 * r + 1]
            ops.append(("insert", points[new], new))
            alive.extend(new)
        return points[: self.N], codec, ops

    @staticmethod
    def _registry(stack, points, codec, drift):
        registry = DatasetRegistry()
        registry.register("ds", points, codec=codec, drift=drift)

        def apply(kind, pts, ids):
            if kind == "insert":
                return registry.insert("ds", pts, ids).rebuilt
            return registry.delete("ds", ids).rebuilt

        def digests():
            return {0: registry.snapshot("ds").state_digest()}

        return apply, digests

    @staticmethod
    def _router(stack, points, codec, drift):
        router = stack.enter_context(
            ShardedSkylineService(
                "ds", points, codec=codec,
                config=RouterConfig(num_shards=2), drift=drift,
            )
        )

        def apply(kind, pts, ids):
            ids = np.asarray(ids, dtype=np.int64)
            mutation = (
                Mutation.insert("ds", pts, ids)
                if kind == "insert"
                else Mutation.delete("ds", ids)
            )
            return router.mutate(mutation).publish.rebuilt

        def digests():
            return {
                sid: shard.registry.snapshot("ds").state_digest()
                for sid, shard in router._shards.items()
            }

        return apply, digests

    @pytest.mark.parametrize("build", ["_registry", "_router"])
    def test_drift_rebuild_digests_match_never_twin(self, build):
        points, codec, ops = self._churn()
        make = getattr(self, build)
        rebuilds = 0
        with ExitStack() as stack:
            apply, digests = make(
                stack, points.copy(), codec, DriftPolicy(max_deletes=8)
            )
            apply_never, digests_never = make(
                stack, points.copy(), codec, DriftPolicy.never()
            )
            assert digests() == digests_never()
            for kind, pts, ids in ops:
                rebuilds += apply(kind, pts, ids)
                assert not apply_never(kind, pts, ids)
                assert digests() == digests_never()
        assert rebuilds >= 1


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_eviction(self):
        metrics = MetricsRegistry()
        cache = ResultCache(max_entries=2, metrics=metrics)
        k1 = ResultCache.make_key("a", 1, "q1")
        k2 = ResultCache.make_key("a", 1, "q2")
        k3 = ResultCache.make_key("a", 2, "q1")
        hit, _ = cache.lookup(k1)
        assert not hit
        cache.store(k1, "v1")
        cache.store(k2, "v2")
        assert cache.lookup(k1) == (True, "v1")
        cache.store(k3, "v3")  # evicts k2 (k1 was refreshed)
        assert cache.lookup(k2) == (False, None)
        assert cache.lookup(k3) == (True, "v3")
        assert cache.evictions == 1
        assert metrics.counter("serving", "cache_hits") == cache.hits
        assert metrics.counter("serving", "cache_misses") == cache.misses
        assert metrics.counter("serving", "cache_evictions") == 1

    def test_version_is_part_of_the_key(self):
        cache = ResultCache(max_entries=8)
        cache.store(ResultCache.make_key("a", 1, "q"), "old")
        hit, _ = cache.lookup(ResultCache.make_key("a", 2, "q"))
        assert not hit

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_sheds_when_queue_full(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionConfig(max_read_queue=2), metrics=metrics
        )
        controller.admit("read")
        controller.admit("read")
        with pytest.raises(OverloadedError):
            controller.admit("read")
        # The mutate queue is independent.
        controller.admit("mutate")
        assert metrics.counter("serving", "read_rejected") == 1
        stats = controller.stats()
        assert stats["read"]["queued"] == 2
        assert stats["read"]["rejected"] == 1

    def test_lifecycle_accounting(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(metrics=metrics)
        ticket = controller.admit("read")
        controller.started(ticket)
        controller.finished(ticket)
        stats = controller.stats()
        assert stats["read"]["queued"] == 0
        assert stats["read"]["running"] == 0
        assert metrics.histogram("serving.read_queue_wait_seconds")
        assert metrics.histogram("serving.read_service_seconds")

    def test_deadline_resolution_and_expiry(self):
        controller = AdmissionController(
            AdmissionConfig(default_timeout_seconds=100.0)
        )
        ticket = controller.admit("read")
        assert ticket.deadline is not None
        assert not ticket.expired()
        explicit = controller.admit("read", timeout_seconds=1e-12)
        assert explicit.expired(now=explicit.deadline + 1.0)
        controller.expire(explicit)
        assert controller.stats()["read"]["expired"] == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(read_concurrency=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(default_timeout_seconds=0.0)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@pytest.fixture
def served(rng):
    """A registry + service over one 4-D dataset (and its raw arrays)."""
    points = grid_points(rng, 150, 4)
    registry = DatasetRegistry()
    registry.register("d", points)
    with SkylineService(registry) as service:
        yield service, registry


class TestService:
    def test_full_matches_oracle(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.full("d"))
        assert np.array_equal(
            result.ids, oracle_sky_ids(snap.points, snap.ids)
        )
        assert result.version == snap.version
        # Canonical ordering: ids ascending.
        assert np.all(np.diff(result.ids) > 0)

    def test_subspace_matches_operator(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.subspace("d", [0, 2]))
        _, expected = subspace_skyline(snap.points, [0, 2], ids=snap.ids)
        assert np.array_equal(result.ids, np.sort(expected))

    def test_kdominant_matches_operator(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        result = service.query(Query.kdominant("d", 3))
        _, expected = k_dominant_skyline(snap.points, 3, ids=snap.ids)
        assert np.array_equal(result.ids, np.sort(expected))

    def test_topk_methods(self, served):
        service, _ = served
        sums = service.query(Query.topk("d", 5, method="sum"))
        assert sums.size == 5 and sums.scores is not None
        assert np.all(np.diff(sums.scores) >= 0)
        rep = service.query(Query.topk("d", 3, method="representative"))
        assert rep.size == 3 and rep.scores is None
        weighted = service.query(
            Query.topk("d", 4, method="weighted",
                       weights=[1.0, 0.0, 0.0, 0.0])
        )
        assert weighted.size == 4

    def test_explain_member_and_loser(self, served):
        service, registry = served
        snap = registry.snapshot("d")
        winner = int(snap.sky_ids[0])
        result = service.query(Query.explain("d", point_id=winner))
        assert result.explanation.is_skyline_member
        assert result.live_member is True
        worst = service.query(Query.explain("d", point=[15.0] * 4))
        assert not worst.explanation.is_skyline_member
        assert worst.explanation.num_dominators > 0
        assert worst.live_member is None  # what-if point has no live row

    def test_cached_results_are_bit_identical(self, served):
        service, _ = served
        for query in (
            Query.full("d"),
            Query.subspace("d", [1, 3]),
            Query.kdominant("d", 3),
            Query.topk("d", 4, method="sum"),
            Query.explain("d", point=[15.0] * 4),
        ):
            fresh = service.query(query)
            again = service.query(query)
            assert not fresh.cached and again.cached
            assert np.array_equal(fresh.ids, again.ids)
            assert np.array_equal(fresh.points, again.points)
            if fresh.scores is not None:
                assert np.array_equal(fresh.scores, again.scores)

    def test_mutation_invalidates_by_version(self, served):
        service, _ = served
        first = service.query(Query.full("d"))
        service.mutate(
            Mutation.insert("d", np.zeros((1, 4)), [7777])
        )
        after = service.query(Query.full("d"))
        assert not after.cached  # new version -> cache miss
        assert after.version == first.version + 1
        assert after.ids.tolist() == [7777]  # origin dominates everything

    def test_cache_keeps_only_current_version_entries(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 80, 4))
        registry.register("other", grid_points(rng, 40, 4))
        metrics = MetricsRegistry()
        queries = (Query.full("d"), Query.kdominant("d", 3))
        with SkylineService(registry, metrics=metrics) as service:
            service.query(Query.full("other"))
            for point_id in (9001, 9002, 9003):
                for query in queries:
                    service.query(query)
                service.mutate(
                    Mutation.insert("d", np.full((1, 4), 3.0), [point_id])
                )
            # the current version's first store drops the two entries
            # of the version before it; "other" is untouched
            for query in queries:
                assert not service.query(query).cached
            version = registry.snapshot("d").version
            keys = sorted(service.cache._entries)
            assert keys == sorted(
                [("other", registry.snapshot("other").version,
                  Query.full("other").fingerprint())]
                + [("d", version, q.fingerprint()) for q in queries]
            )
        assert metrics.counter("serving", "cache_superseded_dropped") == 6

    def test_validation_errors_are_synchronous(self, served):
        service, _ = served
        with pytest.raises(ConfigurationError):
            service.query(Query.subspace("d", []))
        with pytest.raises(ConfigurationError):
            service.query(Query.topk("d", 0))
        with pytest.raises(ConfigurationError):
            service.query(Query.explain("d"))
        with pytest.raises(DatasetError):
            service.query(Query.full("ghost"))

    def test_deadline_expiry_surfaces_typed_error(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 50, 3))
        with SkylineService(registry) as service:
            # A deadline that has already passed when a worker picks
            # the request up.
            future = service.submit(
                Query.full("d", timeout_seconds=1e-9)
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10.0)
            assert service.admission.stats()["read"]["expired"] == 1

    def test_overload_sheds_with_typed_error(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        config = ServiceConfig(
            admission=AdmissionConfig(max_read_queue=0)
        )
        with SkylineService(registry, config=config) as service:
            with pytest.raises(OverloadedError):
                service.query(Query.full("d"))

    def test_closed_service_rejects_submissions(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        service = SkylineService(registry)
        service.close()
        with pytest.raises(ConfigurationError):
            service.submit(Query.full("d"))

    def test_tracer_records_query_spans(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 30, 3))
        tracer = Tracer()
        with SkylineService(registry, tracer=tracer) as service:
            service.query(Query.full("d"))
            service.mutate(Mutation.delete("d", [0]))
        names = [span.name for span in tracer.spans]
        assert "serving.query" in names
        assert "serving.mutation" in names


class TestClientAndReplay:
    def test_client_facade(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 80, 3))
        with SkylineService(registry) as service:
            client = SkylineClient(service, "d")
            assert client.version == 1
            sky = client.skyline()
            assert sky.size > 0
            client.insert(np.zeros((1, 3)), [999])
            assert client.version == 2
            client.delete([999])
            assert client.version == 3
            assert client.subspace([0, 1]).size > 0
            assert client.k_dominant(2).size >= 0
            assert client.top_k(3).size <= 3
            assert client.why_not(point=[15.0, 15.0, 15.0]) is not None

    def test_replay_workload_is_deterministic_in_shape(self, rng):
        registry = DatasetRegistry()
        registry.register("d", grid_points(rng, 100, 3))
        with SkylineService(registry) as service:
            spec = WorkloadSpec(
                dataset="d", operations=60, read_fraction=0.7, seed=9
            )
            report = replay_workload(service, spec)
        assert report.reads + report.writes + report.shed == 60
        assert report.cache_hits > 0
        summary = report.summary()
        assert summary["final_version"] >= 1
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# property: service answers == fresh offline computation, across codecs
# and drift policies, under arbitrary mutation streams
# ----------------------------------------------------------------------
@st.composite
def mutation_stream(draw):
    ops = []
    next_id = 30
    alive = list(range(30))
    for _ in range(draw(st.integers(1, 5))):
        if len(alive) > 4 and draw(st.booleans()):
            count = draw(st.integers(1, min(6, len(alive) - 2)))
            positions = draw(
                st.lists(
                    st.integers(0, len(alive) - 1),
                    min_size=count, max_size=count, unique=True,
                )
            )
            doomed = [alive[p] for p in positions]
            ops.append(("delete", doomed))
            alive = [a for a in alive if a not in set(doomed)]
        else:
            n = draw(st.integers(1, 8))
            rows = draw(
                st.lists(
                    st.lists(st.integers(0, 15), min_size=3, max_size=3),
                    min_size=n, max_size=n,
                )
            )
            ids = list(range(next_id, next_id + n))
            ops.append(("insert", (rows, ids)))
            alive.extend(ids)
            next_id += n
    return ops


@pytest.mark.parametrize("bits", [4, 6])
@pytest.mark.parametrize(
    "drift",
    [DriftPolicy.never(),
     DriftPolicy.bounded(max_deletes=2, max_delete_fraction=None)],
    ids=["never", "bounded"],
)
@given(stream=mutation_stream())
@settings(max_examples=15, deadline=None)
def test_service_bit_identical_to_offline(bits, drift, stream):
    rng = np.random.default_rng(7)
    points = rng.integers(0, 16, size=(30, 3)).astype(np.float64)
    registry = DatasetRegistry()
    registry.register(
        "p", points,
        codec=ZGridCodec.grid_identity(3, bits_per_dim=bits),
        drift=drift,
    )
    with SkylineService(registry) as service:
        for op, payload in stream:
            if op == "insert":
                rows, ids = payload
                service.mutate(
                    Mutation.insert(
                        "p", np.asarray(rows, dtype=np.float64), ids
                    )
                )
            else:
                service.mutate(Mutation.delete("p", payload))
        snap = registry.snapshot("p")
        # full: against the brute-force oracle on the alive set
        full = service.query(Query.full("p"))
        assert np.array_equal(
            full.ids, oracle_sky_ids(snap.points, snap.ids)
        )
        full_cached = service.query(Query.full("p"))
        assert full_cached.cached
        assert np.array_equal(full.ids, full_cached.ids)
        assert np.array_equal(full.points, full_cached.points)
        if snap.size:
            # subspace + kdominant: against the operators run offline
            sub = service.query(Query.subspace("p", [0, 2]))
            _, expected = subspace_skyline(
                snap.points, [0, 2], ids=snap.ids
            )
            assert np.array_equal(sub.ids, np.sort(expected))
            kdom = service.query(Query.kdominant("p", 2))
            _, expected = k_dominant_skyline(snap.points, 2, ids=snap.ids)
            assert np.array_equal(kdom.ids, np.sort(expected))
            # topk over the oracle skyline, fed in the same id order
            top = service.query(Query.topk("p", 3, method="sum"))
            assert top.size == min(3, full.size)
            # explain: dominators of the worst corner == every
            # alive point that dominates it
            worst = service.query(Query.explain("p", point=[15.0] * 3))
            explanation = worst.explanation
            assert explanation.num_dominators == len(explanation.dominator_ids)

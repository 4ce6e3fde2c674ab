"""The streaming layer: diffs, windows, continuous queries, CDC feed,
and the subscription hub.

The two invariants everything here leans on:

* **window soundness** — at every step, a continuous query's skyline
  equals the brute-force ``bnl_skyline`` over the window's current
  contents (hypothesis-tested below);
* **diff-stream soundness** — folding a subscription's event stream
  over its baseline reconstructs the exact skyline id-set of the
  stream's last version, including under coalescing (slow subscriber)
  and the full-sync fallback (out-of-retention cursor).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bnl import bnl_skyline
from repro.core.exceptions import (
    ConfigurationError,
    DatasetError,
    OverloadedError,
)
from repro.maintenance.window import SlidingWindowSkyline, WindowSkyline
from repro.observability.metrics import MetricsRegistry
from repro.serving import DatasetRegistry, DriftPolicy
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.client import SkylineClient
from repro.serving.service import SkylineService
from repro.streaming import (
    ContinuousQueryManager,
    FeedConfig,
    FullSync,
    IngestFeed,
    SkylineDiff,
    StreamSpec,
    SubscriptionHub,
    WindowSpec,
    replay,
    replay_stream,
)
from repro.streaming.load import NOTIFY_LATENCY
from repro.zorder.encoding import ZGridCodec

DIMS = 3
BITS = 5
TOP = 2**BITS


def _codec():
    return ZGridCodec.grid_identity(DIMS, bits_per_dim=BITS)


def _grid(rng, n, d=DIMS):
    return rng.integers(0, TOP, size=(n, d)).astype(np.float64)


def _registry(points, ids=None, **kw):
    registry = DatasetRegistry(keep_versions=8, **kw)
    registry.register(
        "ds", points, ids=ids, codec=_codec(), drift=DriftPolicy.never()
    )
    return registry


def _drain(sub, timeout=0.05):
    events = []
    while True:
        event = sub.get(timeout=timeout)
        if event is None:
            return events
        events.append(event)


def _sky_ids(registry, name="ds"):
    return frozenset(int(i) for i in registry.snapshot(name).sky_ids)


# ----------------------------------------------------------------------
# diffs
# ----------------------------------------------------------------------
class TestSkylineDiff:
    def test_between_and_apply(self):
        diff = SkylineDiff.between("ds", 1, [1, 2, 3], 2, [2, 3, 4, 5])
        assert list(diff.entered_ids) == [4, 5]
        assert list(diff.exited_ids) == [1]
        assert diff.apply(frozenset({1, 2, 3})) == frozenset({2, 3, 4, 5})
        assert diff.size == 3 and not diff.is_empty

    def test_empty_diff_still_advances_version(self):
        diff = SkylineDiff.between("ds", 3, [1], 4, [1])
        assert diff.is_empty
        assert diff.apply(frozenset({1})) == frozenset({1})

    def test_apply_is_strict_about_base(self):
        diff = SkylineDiff.between("ds", 1, [1, 2], 2, [2, 3])
        with pytest.raises(DatasetError):
            diff.apply(frozenset({2}))  # exited id 1 not present
        with pytest.raises(DatasetError):
            diff.apply(frozenset({1, 2, 3}))  # entered id 3 present

    def test_version_must_advance(self):
        with pytest.raises(DatasetError):
            SkylineDiff.between("ds", 2, [1], 2, [2])

    def test_coalesce_nets_out(self):
        # 4 enters at v2 and exits at v3: nets to nothing.
        d1 = SkylineDiff.between("ds", 1, [1, 2], 2, [2, 4])
        d2 = SkylineDiff.between("ds", 2, [2, 4], 3, [2, 5])
        merged = d1.coalesce(d2)
        assert merged.from_version == 1 and merged.to_version == 3
        assert merged.coalesced_from == 2
        assert merged.apply(frozenset({1, 2})) == frozenset({2, 5})
        assert d2.apply(d1.apply(frozenset({1, 2}))) == frozenset({2, 5})

    def test_coalesce_requires_consecutive(self):
        d1 = SkylineDiff.between("ds", 1, [1], 2, [2])
        d3 = SkylineDiff.between("ds", 3, [2], 4, [3])
        with pytest.raises(DatasetError):
            d1.coalesce(d3)

    def test_replay_detects_gap(self):
        d1 = SkylineDiff.between("ds", 0, [], 1, [1])
        d3 = SkylineDiff.between("ds", 2, [1], 3, [2])
        with pytest.raises(DatasetError, match="gap"):
            replay([d1, d3])

    def test_full_sync_resets_cursor(self):
        sync = FullSync("ds", 7, np.asarray([4, 5], dtype=np.int64))
        final, version = replay([sync], initial=frozenset({1, 2}))
        assert final == frozenset({4, 5}) and version == 7


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
class TestBatchedExtend:
    def test_extend_matches_append(self):
        rng = np.random.default_rng(1)
        points = _grid(rng, 37)
        one = SlidingWindowSkyline(_codec(), 10)
        two = SlidingWindowSkyline(_codec(), 10)
        appended = [one.append(row) for row in points]
        for chunk in np.array_split(points, 5):
            two.extend(chunk)
        assert two.window_ids() == one.window_ids()
        p1, i1 = one.skyline()
        p2, i2 = two.skyline()
        np.testing.assert_array_equal(np.sort(i1), np.sort(i2))
        assert appended == list(range(37))
        two.verify()

    def test_extend_returns_all_ids_even_self_expired(self):
        window = SlidingWindowSkyline(_codec(), 4)
        rng = np.random.default_rng(2)
        ids = window.extend(_grid(rng, 10))
        # Every batch row got an id, only the tail 4 survived.
        np.testing.assert_array_equal(ids, np.arange(10))
        assert window.window_ids() == (6, 7, 8, 9)
        window.verify()

    def test_extend_empty_and_bad_shape(self):
        window = SlidingWindowSkyline(_codec(), 4)
        assert window.extend(np.empty((0, DIMS))).size == 0
        with pytest.raises(DatasetError):
            window.extend(np.zeros(DIMS))


class TestTimeWindow:
    def test_expiry_is_half_open(self):
        window = WindowSkyline(_codec(), WindowSpec.time(2.0))
        window.append([1.0, 2.0, 3.0], 10, timestamp=1.0)
        window.append([2.0, 1.0, 3.0], 11, timestamp=2.0)
        # t=3: cutoff is 1.0 — the t=1.0 point is exactly horizon old
        # and expires; the t=2.0 point stays.
        expired = window.append([3.0, 3.0, 1.0], 12, timestamp=3.0)
        assert expired == [10]
        assert window.window_ids() == (11, 12)
        window.verify()

    def test_batch_equals_per_point(self):
        rng = np.random.default_rng(3)
        points = _grid(rng, 30)
        stamps = np.sort(rng.uniform(0, 10, size=30))
        a = WindowSkyline(_codec(), WindowSpec.time(3.0))
        b = WindowSkyline(_codec(), WindowSpec.time(3.0))
        for i in range(30):
            a.append(points[i], 100 + i, stamps[i])
        b.extend(points, np.arange(100, 130), stamps)
        assert a.window_ids() == b.window_ids()
        pa, ia = a.skyline()
        pb, ib = b.skyline()
        np.testing.assert_array_equal(np.sort(ia), np.sort(ib))
        a.verify()
        b.verify()

    def test_clock_never_regresses(self):
        window = WindowSkyline(_codec(), WindowSpec.time(1.0))
        window.append([1.0, 1.0, 1.0], 1, timestamp=5.0)
        with pytest.raises(DatasetError):
            window.append([2.0, 2.0, 2.0], 2, timestamp=4.0)
        with pytest.raises(DatasetError):
            window.advance_to(3.0)

    def test_already_expired_rows_never_inserted(self):
        window = WindowSkyline(_codec(), WindowSpec.time(1.0))
        expired = window.extend(
            np.asarray([[1.0, 1, 1], [2.0, 2, 2], [3.0, 3, 3]]),
            [1, 2, 3],
            [0.0, 0.5, 9.0],
        )
        # Rows at t=0 and t=0.5 are dead on arrival at now=9.
        assert expired == []
        assert window.window_ids() == (3,)
        window.verify()

    def test_spec_validation(self):
        with pytest.raises(DatasetError):
            WindowSpec.count(0)
        with pytest.raises(DatasetError):
            WindowSpec.time(0.0)
        with pytest.raises(DatasetError):
            WindowSpec("weekly")
        assert WindowSpec.count(5) == WindowSpec.count(5)
        assert WindowSpec.count(5) != WindowSpec.time(5.0)


# ----------------------------------------------------------------------
# continuous queries
# ----------------------------------------------------------------------
class TestContinuousQueries:
    def _stack(self, points):
        registry = _registry(points)
        manager = ContinuousQueryManager().attach(registry)
        return registry, manager

    def test_count_window_matches_bnl(self):
        rng = np.random.default_rng(4)
        registry, manager = self._stack(_grid(rng, 20))
        query = manager.register("lastN", "ds", WindowSpec.count(12))
        next_id = 20
        for _ in range(6):
            batch = _grid(rng, 5)
            ids = list(range(next_id, next_id + 5))
            next_id += 5
            registry.insert("ds", batch, ids)
            window_ids = np.asarray(query.window_ids(), dtype=np.int64)
            assert window_ids.size == min(12, query.records_seen)
            snap = registry.snapshot("ds")
            rows = np.vstack(
                [snap.points[snap.row_of(int(i))] for i in window_ids]
            )
            _, want = bnl_skyline(rows, ids=window_ids)
            _, got = query.skyline()
            np.testing.assert_array_equal(np.sort(got), np.sort(want))
            query.verify()
        assert query.version == registry.version("ds")
        assert query.last_diff is not None

    def test_time_window_expires_on_version_clock(self):
        rng = np.random.default_rng(5)
        registry, manager = self._stack(_grid(rng, 10))
        query = manager.register("recent", "ds", WindowSpec.time(2.0))
        next_id = 10
        for _ in range(5):
            registry.insert("ds", _grid(rng, 3), [next_id, next_id + 1, next_id + 2])
            next_id += 3
        # horizon 2.0 over version clock: only the last two versions'
        # arrivals (3 each) remain in the window.
        assert len(query.window_ids()) == 6
        query.verify()

    def test_deletes_do_not_retract_window(self):
        rng = np.random.default_rng(6)
        registry, manager = self._stack(_grid(rng, 10))
        query = manager.register("lastN", "ds", WindowSpec.count(50))
        registry.insert("ds", _grid(rng, 4), [20, 21, 22, 23])
        registry.delete("ds", [20, 21])
        # The arrival stream saw 4 records; dataset deletes don't
        # rewrite history.
        assert set(query.window_ids()) == {20, 21, 22, 23}

    @pytest.mark.parametrize(
        "spec", [WindowSpec.count(50), WindowSpec.time(10.0)]
    )
    def test_reinserted_id_arrives_again(self, spec):
        rng = np.random.default_rng(8)
        metrics = MetricsRegistry()
        registry = DatasetRegistry(metrics=metrics)
        registry.register(
            "ds", _grid(rng, 10), codec=_codec(), drift=DriftPolicy.never()
        )
        query = ContinuousQueryManager().attach(registry).register(
            "q", "ds", spec
        )
        first, again = np.asarray([[1.0, 1, 1]]), np.asarray([[0.0, 9, 9]])
        registry.insert("ds", first, [20])
        registry.insert("ds", _grid(rng, 2), [21, 22])
        registry.delete("ds", [20])
        # 20 is still inside the window: the new arrival joins it.
        registry.insert("ds", again, [20])
        serving = metrics.counters_as_dict().get("serving", {})
        assert serving.get("publish_hook_errors", 0) == 0
        assert query.version == registry.version("ds")
        assert query.records_seen == 4
        assert query.window_ids() == (20, 21, 22, 20)
        snap = registry.snapshot("ds")
        rows = np.vstack(
            [first[0], snap.points[snap.row_of(21)],
             snap.points[snap.row_of(22)], again[0]]
        )
        _, want = bnl_skyline(rows, ids=np.asarray([20, 21, 22, 20]))
        assert query.skyline_ids() == frozenset(want.tolist())
        query.verify()
        registry.insert("ds", _grid(rng, 1), [23])
        assert query.records_seen == 5
        query.verify()

    def test_duplicate_name_rejected(self):
        rng = np.random.default_rng(7)
        registry, manager = self._stack(_grid(rng, 5))
        manager.register("q", "ds", WindowSpec.count(5))
        with pytest.raises(ConfigurationError):
            manager.register("q", "ds", WindowSpec.count(9))

    def test_register_requires_attach(self):
        with pytest.raises(ConfigurationError):
            ContinuousQueryManager().register(
                "q", "ds", WindowSpec.count(5)
            )


# ----------------------------------------------------------------------
# subscription hub
# ----------------------------------------------------------------------
class TestSubscriptionHub:
    def _stack(self, n=30, seed=8, **kw):
        rng = np.random.default_rng(seed)
        registry = _registry(_grid(rng, n), **kw)
        hub = SubscriptionHub(retention=8).attach(registry)
        return rng, registry, hub

    def test_diff_stream_reconstructs_skyline(self):
        rng, registry, hub = self._stack()
        sub = hub.subscribe("ds")
        assert sub.start_version == 1
        next_id = 30
        for i in range(5):
            registry.insert("ds", _grid(rng, 4), range(next_id, next_id + 4))
            next_id += 4
            registry.delete("ds", [i])
        events = _drain(sub)
        assert len(events) == 10  # every publish, empty diffs included
        final, version = replay(
            events, sub.start_sky_ids, sub.start_version
        )
        assert final == _sky_ids(registry)
        assert version == registry.version("ds")

    def test_slow_subscriber_coalesces_not_blocks(self):
        rng, registry, hub = self._stack()
        sub = hub.subscribe("ds", max_pending=2)
        next_id = 30
        for _ in range(12):
            registry.insert("ds", _grid(rng, 3), range(next_id, next_id + 3))
            next_id += 3
        assert sub.pending == 2  # bounded, writer never waited
        assert sub.coalesced == 10
        events = _drain(sub)
        tail = events[-1]
        assert tail.coalesced_from == 11
        final, version = replay(
            events, sub.start_sky_ids, sub.start_version
        )
        assert final == _sky_ids(registry)
        assert version == registry.version("ds")

    def test_subscribe_from_replays_retained_diffs(self):
        rng, registry, hub = self._stack()
        base_version = registry.version("ds")
        base_sky = _sky_ids(registry)
        hub.subscribe("ds").close()  # seeds the hub baseline
        next_id = 30
        for _ in range(4):
            registry.insert("ds", _grid(rng, 3), range(next_id, next_id + 3))
            next_id += 3
        sub = hub.subscribe_from("ds", base_version)
        events = _drain(sub)
        assert all(isinstance(e, SkylineDiff) for e in events)
        final, version = replay(events, base_sky, base_version)
        assert final == _sky_ids(registry)
        assert version == registry.version("ds")
        assert hub.retained_range("ds") == (base_version, version)

    def test_subscribe_from_out_of_retention_full_syncs(self):
        rng, registry, hub = self._stack()
        hub.subscribe("ds").close()
        next_id = 30
        for _ in range(12):  # retention=8: version 1 falls out
            registry.insert("ds", _grid(rng, 2), [next_id, next_id + 1])
            next_id += 2
        sub = hub.subscribe_from("ds", 1)
        events = _drain(sub)
        assert isinstance(events[0], FullSync)
        final, version = replay(events, frozenset(), 1)
        assert final == _sky_ids(registry)
        assert version == registry.version("ds")
        assert sub.full_syncs == 1

    def test_subscribe_from_future_version_rejected(self):
        _, registry, hub = self._stack()
        with pytest.raises(DatasetError):
            hub.subscribe_from("ds", registry.version("ds") + 5)

    def test_subscribe_from_current_version_gets_nothing(self):
        _, registry, hub = self._stack()
        sub = hub.subscribe_from("ds", registry.version("ds"))
        assert sub.get(timeout=0.01) is None

    def test_unsubscribe_stops_delivery(self):
        rng, registry, hub = self._stack()
        sub = hub.subscribe("ds")
        sub.close()
        registry.insert("ds", _grid(rng, 2), [30, 31])
        assert sub.closed
        assert sub.get(timeout=0.01) is None
        assert hub.subscriber_count("ds") == 0

    def test_recovery_republish_emits_no_diff(self, tmp_path):
        rng, registry, hub = self._stack(durability_dir=str(tmp_path))
        sub = hub.subscribe("ds")
        registry.insert("ds", _grid(rng, 2), [30, 31])
        assert len(_drain(sub)) == 1
        version = registry.version("ds")
        registry.recover("ds")  # healthy recover: republish same version
        assert registry.version("ds") == version
        assert _drain(sub) == []  # bit-identical republish, no event

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        rng = np.random.default_rng(9)
        registry = _registry(_grid(rng, 20), metrics=metrics)
        hub = SubscriptionHub(metrics=metrics).attach(registry)
        sub = hub.subscribe("ds", max_pending=1)
        registry.insert("ds", _grid(rng, 2), [30, 31])
        registry.insert("ds", _grid(rng, 2), [32, 33])
        sub.get(timeout=0.1)
        counters = metrics.counters_as_dict()["streaming"]
        assert counters["subscribers"] == 1
        assert counters["diffs_published"] == 2
        assert counters["diffs_coalesced"] == 1
        assert counters["events_delivered"] == 1


class TestWriterNeverBlocksOnSubscribers:
    """The publish hook is O(diff) and offers are non-blocking, so a
    stalled/slow subscriber cannot stall mutations."""

    def test_mutations_proceed_while_consumer_blocked_in_get(self):
        rng = np.random.default_rng(10)
        registry = _registry(_grid(rng, 20))
        hub = SubscriptionHub().attach(registry)
        sub = hub.subscribe("ds", max_pending=1)
        waiting = threading.Event()
        got = []

        def consumer():
            waiting.set()
            got.append(sub.get(timeout=10.0))

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        assert waiting.wait(5.0)
        # The consumer is parked inside get(); the writer must not care.
        start = time.monotonic()
        for i in range(20):
            registry.insert("ds", _grid(rng, 2), [100 + 2 * i, 101 + 2 * i])
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"writer stalled behind a subscriber ({elapsed:.2f}s)"
        thread.join(5.0)
        assert got and got[0] is not None

    def test_never_draining_subscriber_costs_one_slot(self):
        rng = np.random.default_rng(11)
        registry = _registry(_grid(rng, 20))
        hub = SubscriptionHub().attach(registry)
        sub = hub.subscribe("ds", max_pending=1)  # never drained
        for i in range(30):
            registry.insert("ds", _grid(rng, 1), [100 + i])
        assert registry.version("ds") == 31  # every mutation published
        assert sub.pending == 1
        assert sub.received == 30 and sub.coalesced == 29
        # The coalesced event is still sound.
        [event] = _drain(sub)
        final, _ = replay([event], sub.start_sky_ids, sub.start_version)
        assert final == _sky_ids(registry)

    def test_hook_exception_is_contained(self):
        metrics = MetricsRegistry()
        rng = np.random.default_rng(12)
        registry = _registry(_grid(rng, 10), metrics=metrics)

        def broken(snapshot):
            raise RuntimeError("injected hook failure")

        registry.add_publish_hook(broken)
        registry.insert("ds", _grid(rng, 2), [30, 31])  # must not raise
        assert registry.version("ds") == 2
        counters = metrics.counters_as_dict()["serving"]
        assert counters["publish_hook_errors"] == 1
        registry.remove_publish_hook(broken)
        registry.insert("ds", _grid(rng, 2), [32, 33])
        assert counters["publish_hook_errors"] == 1


# ----------------------------------------------------------------------
# ingest feed
# ----------------------------------------------------------------------
class TestIngestFeed:
    def test_batches_and_autoflush(self):
        rng = np.random.default_rng(13)
        registry = _registry(_grid(rng, 10))
        feed = IngestFeed(registry, "ds", config=FeedConfig(batch_size=4))
        ids = [feed.append(row) for row in _grid(rng, 9)]
        assert ids == list(range(10, 19))  # auto-assigned past max id
        assert feed.pending == 1  # 2 batches of 4 flushed
        assert registry.version("ds") == 3
        feed.flush()
        assert feed.pending == 0
        assert registry.version("ds") == 4
        assert set(int(i) for i in registry.snapshot("ds").ids) == set(
            range(19)
        )

    def test_shed_keeps_buffer_never_drops(self):
        metrics = MetricsRegistry()
        rng = np.random.default_rng(14)
        registry = _registry(_grid(rng, 10))
        admission = AdmissionController(
            AdmissionConfig(max_mutate_queue=0)  # always sheds
        )
        feed = IngestFeed(
            registry,
            "ds",
            admission=admission,
            config=FeedConfig(batch_size=2, on_overload="shed"),
            metrics=metrics,
        )
        feed.append([1.0, 2.0, 3.0])
        with pytest.raises(OverloadedError):
            feed.append([4.0, 5.0, 6.0])  # fills the batch -> flush
        assert feed.pending == 2  # nothing dropped
        assert feed.batches_shed == 1
        counters = metrics.counters_as_dict()["streaming"]
        assert counters["feed_batches_shed"] == 1
        # Capacity returns: the same buffer flushes.
        feed.admission = AdmissionController(AdmissionConfig())
        feed.flush()
        assert feed.pending == 0
        assert feed.records_flushed == 2

    def test_block_waits_out_the_queue(self):
        rng = np.random.default_rng(15)
        registry = _registry(_grid(rng, 10))
        admission = AdmissionController(AdmissionConfig(max_mutate_queue=1))
        # Occupy the single queue slot, release it shortly after.
        ticket = admission.admit("mutate")

        def release():
            time.sleep(0.05)
            admission.started(ticket)
            admission.finished(ticket)

        threading.Thread(target=release, daemon=True).start()
        feed = IngestFeed(
            registry,
            "ds",
            admission=admission,
            config=FeedConfig(
                batch_size=2, on_overload="block", block_max_seconds=5.0
            ),
        )
        feed.append([1.0, 2.0, 3.0])
        feed.append([4.0, 5.0, 6.0])
        assert feed.pending == 0
        assert feed.batches_shed == 0

    def test_windowed_feed_expires_via_ordinary_deletes(self):
        rng = np.random.default_rng(16)
        registry = _registry(_grid(rng, 10))
        feed = IngestFeed(
            registry,
            "ds",
            config=FeedConfig(batch_size=5),
            window=WindowSpec.count(8),
        )
        for row in _grid(rng, 20):
            feed.append(row)
        # 20 ingested, window keeps 8: 12 expired through delete batches.
        assert feed.records_expired == 12
        alive = set(int(i) for i in registry.snapshot("ds").ids)
        assert alive == set(range(10)) | set(range(22, 30))

    def test_windowed_feed_recovery_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(17)
        points = _grid(rng, 10)
        registry = _registry(points, durability_dir=str(tmp_path))
        feed = IngestFeed(
            registry,
            "ds",
            config=FeedConfig(batch_size=3),
            window=WindowSpec.time(2.0),
        )
        stream = _grid(rng, 18)
        for i, row in enumerate(stream):
            feed.append(row, timestamp=float(i))
        feed.flush()
        want = registry.snapshot("ds").state_digest()
        # A fresh registry replays checkpoint+WAL: the expiration
        # deletes are ordinary WAL batches, so the state is identical.
        takeover = DatasetRegistry(
            keep_versions=8, durability_dir=str(tmp_path)
        )
        takeover.adopt("ds", drift=DriftPolicy.never())
        assert takeover.snapshot("ds").state_digest() == want

    def test_feed_timestamp_regression_rejected(self):
        rng = np.random.default_rng(18)
        registry = _registry(_grid(rng, 5))
        feed = IngestFeed(registry, "ds")
        feed.append([1.0, 2.0, 3.0], timestamp=5.0)
        with pytest.raises(ConfigurationError):
            feed.append([1.0, 2.0, 3.0], timestamp=4.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FeedConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            FeedConfig(on_overload="panic")


# ----------------------------------------------------------------------
# client wiring
# ----------------------------------------------------------------------
class TestClientSubscriptions:
    def test_subscribe_and_stream(self):
        rng = np.random.default_rng(19)
        registry = _registry(_grid(rng, 20))
        hub = SubscriptionHub().attach(registry)
        with SkylineService(registry) as service:
            client = SkylineClient(service, "ds", hub=hub)
            sub = client.subscribe()
            client.insert(_grid(rng, 3), [30, 31, 32])
            events = _drain(sub)
            assert len(events) == 1
            final, _ = replay(
                events, sub.start_sky_ids, sub.start_version
            )
            assert final == _sky_ids(registry)
            sub.close()
            resumed = client.subscribe_from(sub.start_version)
            assert _drain(resumed) == events

    def test_subscribe_without_hub_is_typed_error(self):
        rng = np.random.default_rng(20)
        registry = _registry(_grid(rng, 10))
        with SkylineService(registry) as service:
            client = SkylineClient(service, "ds")
            with pytest.raises(ConfigurationError):
                client.subscribe()


# ----------------------------------------------------------------------
# the threaded load driver behind stream-bench and the streaming SLO gate
# ----------------------------------------------------------------------
def _driver_threads():
    return [
        t.name for t in threading.enumerate()
        if "consume" in t.name or "read_loop" in t.name
    ]


class TestReplayStream:
    def test_small_run_is_sound_and_fully_counted(self):
        rng = np.random.default_rng(23)
        metrics = MetricsRegistry()
        registry = _registry(_grid(rng, 100), metrics=metrics)
        records, window = 400, 150
        report = replay_stream(
            registry, "ds", _grid(rng, records),
            StreamSpec(
                batch_size=25, window=window, subscribers=1,
                slow_subscribers=1, readers=1,
            ),
        )
        assert report.replay_sound and report.gate() == []
        # one drained subscriber: every published diff lands in the
        # histogram exactly once, and the report reads it from there
        samples = metrics.histogram(NOTIFY_LATENCY)
        assert report.notifications == len(samples) > 0
        assert report.notifications == metrics.counter(
            "streaming", "diffs_published"
        )
        assert report.notify_p99_seconds == metrics.percentile(
            NOTIFY_LATENCY, 0.99
        )
        assert report.batches == records // 25
        assert report.expired_records == records - window
        snapshot = registry.snapshot("ds")
        _, expected = bnl_skyline(snapshot.points, snapshot.ids)
        assert sorted(snapshot.sky_ids.tolist()) == sorted(expected.tolist())
        assert not _driver_threads()

    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"window": -5}, {"subscribers": 0},
        {"slow_subscribers": -1}, {"readers": -1},
        {"on_overload": "panic"},
    ])
    def test_spec_rejects_bad_values(self, bad):
        with pytest.raises(ConfigurationError):
            StreamSpec(**bad)

    def test_failed_ingest_stops_and_joins_its_threads(self):
        rng = np.random.default_rng(24)
        registry = _registry(_grid(rng, 50), metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError):
            replay_stream(
                registry, "ds", _grid(rng, 10, d=DIMS + 1),
                StreamSpec(subscribers=1, readers=1),
            )
        assert not _driver_threads()

    def test_registry_without_metrics_is_rejected(self):
        rng = np.random.default_rng(25)
        registry = _registry(_grid(rng, 10))
        with pytest.raises(ConfigurationError):
            replay_stream(registry, "ds", _grid(rng, 5), StreamSpec())


# ----------------------------------------------------------------------
# hypothesis: the soundness oracle (satellite c)
# ----------------------------------------------------------------------
@st.composite
def ingest_stream(draw):
    """A short stream of small insert batches on a 3-D grid."""
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(n_batches):
        n = draw(st.integers(1, 6))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, TOP - 1), min_size=DIMS, max_size=DIMS),
                min_size=n,
                max_size=n,
            )
        )
        batches.append(rows)
    return batches


@given(
    ingest_stream(),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_streaming_soundness_oracle(batches, window, use_time):
    seed_rng = np.random.default_rng(42)
    registry = _registry(_grid(seed_rng, 6))
    hub = SubscriptionHub(retention=64).attach(registry)
    manager = ContinuousQueryManager().attach(registry)
    spec = (
        WindowSpec.time(float(window)) if use_time
        else WindowSpec.count(window)
    )
    query = manager.register("q", "ds", spec)
    fast = hub.subscribe("ds")
    slow = hub.subscribe("ds", max_pending=1)  # exercises coalescing
    next_id = 6
    for rows in batches:
        ids = list(range(next_id, next_id + len(rows)))
        next_id += len(rows)
        registry.insert("ds", np.asarray(rows, dtype=np.float64), ids)
        # (1) the continuous skyline equals brute force over the
        # window's current contents, at every step
        window_ids = np.asarray(query.window_ids(), dtype=np.int64)
        snap = registry.snapshot("ds")
        rows_in_window = np.vstack(
            [snap.points[snap.row_of(int(i))] for i in window_ids]
        )
        _, want = bnl_skyline(rows_in_window, ids=window_ids)
        _, got = query.skyline()
        np.testing.assert_array_equal(np.sort(got), np.sort(want))
        query.verify()
    # (2) replaying all diffs from version 1 reconstructs the final
    # skyline id-set exactly — for the fast subscriber, the coalescing
    # slow subscriber, and a cursor resumed from version 1.
    expect = _sky_ids(registry)
    resumed = hub.subscribe_from("ds", 1)
    # A chain resume assumes the caller still holds the version-1
    # state — which is exactly the fast subscriber's baseline.
    for sub, baseline in (
        (fast, fast.start_sky_ids),
        (slow, slow.start_sky_ids),
        (resumed, fast.start_sky_ids),
    ):
        final, version = replay(
            _drain(sub, timeout=0.01), baseline, sub.start_version
        )
        assert final == expect
        assert version == registry.version("ds")


# ----------------------------------------------------------------------
# encode once: every admitted row gets one Z-address, on the write path
# and in every continuous query
# ----------------------------------------------------------------------
def _encoded_rows(codec) -> int:
    stats = codec.kernel_stats
    return stats.counter("zkernel", "encode_fast_rows") + stats.counter(
        "zkernel", "encode_wide_rows"
    )


@pytest.mark.parametrize("durable", [False, True])
def test_each_admitted_row_is_encoded_once(tmp_path, durable):
    rng = np.random.default_rng(21)
    codec = _codec()
    registry = DatasetRegistry(
        durability_dir=str(tmp_path) if durable else None
    )
    registry.register(
        "ds", _grid(rng, 300), codec=codec, drift=DriftPolicy.never()
    )
    assert _encoded_rows(codec) == 300
    manager = ContinuousQueryManager().attach(registry)
    count = manager.register("count", "ds", WindowSpec.count(200))
    timed = manager.register("time", "ds", WindowSpec.time(5.0))
    hub = SubscriptionHub().attach(registry)
    sub = hub.subscribe("ds")
    feed = IngestFeed(
        registry, "ds", config=FeedConfig(batch_size=64),
        window=WindowSpec.count(200),
    )
    codec.kernel_stats = MetricsRegistry()
    flushes = 12
    for row in _grid(rng, 64 * flushes):
        feed.append(row)
    assert feed.records_expired > 0  # window deletes ran too
    assert _encoded_rows(codec) == 64 * flushes
    assert count.window_size == 200 and timed.window_size > 0
    assert _drain(sub, timeout=0.01)
    count.verify()
    timed.verify()

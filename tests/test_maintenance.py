"""Unit and randomized tests for incremental skyline maintenance."""

import numpy as np
import pytest

from repro.core.exceptions import DatasetError
from repro.maintenance import SkylineMaintainer
from repro.zorder.encoding import ZGridCodec


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(3, bits_per_dim=5)


def fresh(codec, rng, n=60):
    m = SkylineMaintainer(codec)
    pts = rng.integers(0, 32, (n, 3)).astype(float)
    m.insert_block(pts, np.arange(n))
    return m, pts


class TestInserts:
    def test_empty_maintainer(self, codec):
        m = SkylineMaintainer(codec)
        assert m.size == 0
        assert m.skyline_size == 0
        m.verify()

    def test_single_insert(self, codec):
        m = SkylineMaintainer(codec)
        m.insert([1.0, 2.0, 3.0], 7)
        points, ids = m.skyline()
        assert ids.tolist() == [7]
        m.verify()

    def test_batch_insert_matches_oracle(self, codec):
        rng = np.random.default_rng(1)
        m, _ = fresh(codec, rng)
        m.verify()

    def test_incremental_batches_match_oracle(self, codec):
        rng = np.random.default_rng(2)
        m = SkylineMaintainer(codec)
        next_id = 0
        for _ in range(6):
            n = int(rng.integers(5, 40))
            pts = rng.integers(0, 32, (n, 3)).astype(float)
            m.insert_block(pts, np.arange(next_id, next_id + n))
            next_id += n
            m.verify()

    def test_dominating_insert_shrinks_skyline(self, codec):
        m = SkylineMaintainer(codec)
        m.insert_block(
            np.array([[10.0, 10.0, 10.0], [12.0, 9.0, 11.0]]),
            np.array([0, 1]),
        )
        assert m.skyline_size == 2
        m.insert([1.0, 1.0, 1.0], 2)
        points, ids = m.skyline()
        assert ids.tolist() == [2]
        assert m.size == 3

    def test_duplicate_id_rejected(self, codec):
        m = SkylineMaintainer(codec)
        m.insert([1.0, 1.0, 1.0], 0)
        with pytest.raises(DatasetError):
            m.insert([2.0, 2.0, 2.0], 0)

    def test_bad_shapes_rejected(self, codec):
        m = SkylineMaintainer(codec)
        with pytest.raises(DatasetError):
            m.insert_block(np.zeros((2, 3)), np.array([1]))


class TestStoreSums:
    @pytest.mark.parametrize("bits,sums", [(5, np.uint32), (20, np.uint64)])
    def test_sums_keep_their_integer_dtype(self, bits, sums):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=bits)
        rng = np.random.default_rng(6)
        m = SkylineMaintainer(codec)
        assert m._sums.dtype == sums
        for start in range(0, 200, 50):
            # enough inserts to grow the store, and deletes to compact it
            pts = rng.integers(0, 1 << bits, (50, 3)).astype(float)
            m.insert_block(pts, np.arange(start, start + 50))
            m.delete(np.arange(start, start + 40).tolist())
            assert m._sums.dtype == sums
            m.verify()

    def test_verify_catches_float_sums(self, codec):
        rng = np.random.default_rng(7)
        m, _ = fresh(codec, rng)
        m._sums = m._sums.astype(np.float64)  # equal values, float dtype
        with pytest.raises(DatasetError, match="grid columns"):
            m.verify()


class TestDeletes:
    def test_delete_non_skyline_point_keeps_skyline(self, codec):
        m = SkylineMaintainer(codec)
        m.insert_block(
            np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]), np.array([0, 1])
        )
        before = m.skyline()[1].tolist()
        m.delete([1])
        assert m.skyline()[1].tolist() == before
        assert m.size == 1
        m.verify()

    def test_delete_skyline_point_promotes_shadowed(self, codec):
        m = SkylineMaintainer(codec)
        # 0 dominates 1 exclusively; deleting 0 must surface 1.
        m.insert_block(
            np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [9.0, 0.0, 9.0]]),
            np.array([0, 1, 2]),
        )
        assert m.is_skyline_member(0)
        assert not m.is_skyline_member(1)
        m.delete([0])
        assert m.is_skyline_member(1)
        assert m.is_skyline_member(2)
        m.verify()

    def test_delete_everything(self, codec):
        rng = np.random.default_rng(3)
        m, pts = fresh(codec, rng, n=30)
        m.delete(list(range(30)))
        assert m.size == 0
        assert m.skyline_size == 0
        m.verify()

    def test_delete_unknown_id_rejected(self, codec):
        m = SkylineMaintainer(codec)
        m.insert([1.0, 1.0, 1.0], 0)
        with pytest.raises(DatasetError):
            m.delete([5])

    def test_is_skyline_member_requires_alive(self, codec):
        m = SkylineMaintainer(codec)
        m.insert([1.0, 1.0, 1.0], 0)
        with pytest.raises(DatasetError):
            m.is_skyline_member(99)


class TestRandomizedStream:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_mixed_stream_matches_oracle(self, codec, seed):
        rng = np.random.default_rng(seed)
        m = SkylineMaintainer(codec)
        alive = []
        next_id = 0
        for step in range(15):
            if alive and rng.random() < 0.4:
                k = int(rng.integers(1, max(2, len(alive) // 2)))
                doomed = list(
                    rng.choice(alive, size=min(k, len(alive)), replace=False)
                )
                m.delete(doomed)
                alive = [a for a in alive if a not in set(doomed)]
            else:
                n = int(rng.integers(1, 25))
                pts = rng.integers(0, 32, (n, 3)).astype(float)
                ids = list(range(next_id, next_id + n))
                m.insert_block(pts, np.asarray(ids))
                alive.extend(ids)
                next_id += n
            m.verify()
        assert m.size == len(alive)


class TestSkylineIdCache:
    """The cached skyline id-set (membership must not rebuild a set
    per call, and must invalidate on every mutation)."""

    def test_id_set_is_cached_between_reads(self, codec):
        rng = np.random.default_rng(11)
        m, _ = fresh(codec, rng, n=40)
        first = m.skyline_id_set()
        assert m.skyline_id_set() is first  # same frozen object, no rebuild

    def test_insert_invalidates_cache(self, codec):
        rng = np.random.default_rng(12)
        m, _ = fresh(codec, rng, n=40)
        before = m.skyline_id_set()
        m.insert([0.0, 0.0, 0.0], 999)  # dominates everything
        after = m.skyline_id_set()
        assert after is not before
        assert after == frozenset({999})
        assert m.is_skyline_member(999)

    def test_delete_invalidates_cache_even_on_error(self, codec):
        m = SkylineMaintainer(codec)
        m.insert([1.0, 1.0, 1.0], 0)
        before = m.skyline_id_set()
        with pytest.raises(DatasetError):
            m.delete([5])
        # Failed validation must not poison the cache with stale state.
        assert m.skyline_id_set() == before
        m.delete([0])
        assert m.skyline_id_set() == frozenset()

    def test_membership_matches_skyline_arrays(self, codec):
        rng = np.random.default_rng(13)
        m, _ = fresh(codec, rng, n=50)
        m.delete(list(range(10)))
        _, sky_ids = m.skyline()
        expected = frozenset(int(i) for i in sky_ids)
        assert m.skyline_id_set() == expected
        for pid in range(10, 50):
            assert m.is_skyline_member(pid) == (pid in expected)


class TestMaintainerMetrics:
    def test_op_counters_flow_into_registry(self, codec):
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        m = SkylineMaintainer(codec, metrics=metrics)
        rng = np.random.default_rng(14)
        pts = rng.integers(0, 32, (30, 3)).astype(float)
        m.insert_block(pts, np.arange(30))
        m.insert([0.0, 0.0, 1.0], 100)
        m.delete([100, 0, 1])
        assert metrics.counter("maintenance", "inserts") == 2
        assert metrics.counter("maintenance", "insert_records") == 31
        assert metrics.counter("maintenance", "deletes") == 1
        assert metrics.counter("maintenance", "delete_records") == 3
        # Dominance work was attributed to the ops that caused it.
        assert metrics.counter("maintenance", "point_tests") > 0
        timers = metrics.timers_as_dict()
        assert timers["maintenance.insert_seconds"]["calls"] == 2
        assert timers["maintenance.delete_seconds"]["calls"] == 1

    def test_metrics_are_optional(self, codec):
        m = SkylineMaintainer(codec)  # no registry: must not blow up
        m.insert([1.0, 2.0, 3.0], 0)
        m.delete([0])


class TestFromState:
    def test_adopts_state_without_recompute(self, codec):
        rng = np.random.default_rng(15)
        m, pts = fresh(codec, rng, n=45)
        points, ids = m.alive()
        _, sky_ids = m.skyline()
        clone = SkylineMaintainer.from_state(codec, points, ids, sky_ids)
        assert clone.size == m.size
        assert clone.skyline_id_set() == m.skyline_id_set()
        clone.verify()

    def test_rejects_unknown_skyline_ids(self, codec):
        rng = np.random.default_rng(16)
        m, _ = fresh(codec, rng, n=10)
        points, ids = m.alive()
        with pytest.raises(DatasetError):
            SkylineMaintainer.from_state(
                codec, points, ids, np.array([12345], dtype=np.int64)
            )

    def test_alive_roundtrip(self, codec):
        rng = np.random.default_rng(17)
        m, pts = fresh(codec, rng, n=20)
        m.delete([3, 4])
        points, ids = m.alive()
        assert points.shape[0] == ids.shape[0] == 18
        assert 3 not in set(ids.tolist())

"""WAL framing, durable checkpoints, and crash/replay bit-identity."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, WriterDownError
from repro.serving.faults import WRITER_PHASES, ServingFaultPlan
from repro.serving.registry import DatasetRegistry, DriftPolicy
from repro.serving.wal import DatasetStore, MutationWAL, WalRecord
from repro.zorder.encoding import ZGridCodec


def _points(rng, n, d=4, cells=64):
    return rng.integers(0, cells, size=(n, d)).astype(np.float64)


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestMutationWAL:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = MutationWAL(str(tmp_path / "wal.log"))
        r1 = WalRecord.insert(
            2, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([10, 11])
        )
        r2 = WalRecord.delete(3, [10])
        wal.append(r1)
        wal.append(r2)
        wal.close()
        replay = wal.replay()
        assert replay.dropped_tail == 0
        assert replay.records == (r1, r2)
        assert replay.records[0].points == ((1.0, 2.0), (3.0, 4.0))

    def test_missing_file_replays_empty(self, tmp_path):
        replay = MutationWAL(str(tmp_path / "nope.log")).replay()
        assert replay.records == () and replay.dropped_tail == 0

    def test_torn_tail_is_dropped(self, tmp_path):
        wal = MutationWAL(str(tmp_path / "wal.log"))
        wal.append(WalRecord.delete(2, [1]))
        wal.close()
        # simulate a crash mid-append: a half-written final frame
        with open(wal.path, "ab") as handle:
            handle.write(b'deadbeef {"seq": 3, "op"')
        replay = wal.replay()
        assert replay.dropped_tail == 1
        assert [r.seq for r in replay.records] == [2]

    def test_mid_log_corruption_refuses_recovery(self, tmp_path):
        wal = MutationWAL(str(tmp_path / "wal.log"))
        wal.append(WalRecord.delete(2, [1]))
        wal.append(WalRecord.delete(3, [2]))
        wal.close()
        raw = open(wal.path, "rb").read()
        lines = raw.split(b"\n")
        lines[0] = lines[0][:-3] + b"zzz"  # flip bytes in frame 0
        open(wal.path, "wb").write(b"\n".join(lines))
        with pytest.raises(ConfigurationError, match="corrupt"):
            wal.replay()

    def test_sequence_jump_refuses_recovery(self, tmp_path):
        wal = MutationWAL(str(tmp_path / "wal.log"))
        wal.append(WalRecord.delete(2, [1]))
        wal.append(WalRecord.delete(4, [2]))  # gap: 3 missing
        wal.close()
        with pytest.raises(ConfigurationError, match="sequence jump"):
            wal.replay()

    def test_rotate_truncates_atomically(self, tmp_path):
        wal = MutationWAL(str(tmp_path / "wal.log"))
        wal.append(WalRecord.delete(2, [1]))
        wal.rotate()
        assert wal.replay().records == ()
        # still appendable after rotation
        wal.append(WalRecord.delete(3, [2]))
        wal.close()
        assert [r.seq for r in wal.replay().records] == [3]


# ----------------------------------------------------------------------
# durable checkpoints
# ----------------------------------------------------------------------
class TestDatasetStore:
    def _store_state(self, tmp_path):
        rng = np.random.default_rng(0)
        store = DatasetStore(str(tmp_path), "ds")
        codec = ZGridCodec.grid_identity(3, bits_per_dim=6)
        points = _points(rng, 50, d=3)
        ids = np.arange(50, dtype=np.int64)
        sky_ids = ids[:7]
        store.save_checkpoint(
            codec, seq=9, version=9, points=points, ids=ids,
            sky_ids=sky_ids, deletes_since_rebuild=4,
        )
        return store, points, ids, sky_ids

    def test_checkpoint_roundtrip(self, tmp_path):
        store, points, ids, sky_ids = self._store_state(tmp_path)
        state = store.load_checkpoint()
        assert state is not None
        assert state.seq == 9 and state.version == 9
        assert state.deletes_since_rebuild == 4
        np.testing.assert_array_equal(state.points, points)
        np.testing.assert_array_equal(state.ids, ids)
        np.testing.assert_array_equal(state.sky_ids, sky_ids)
        assert state.codec.dimensions == 3

    def test_no_checkpoint_returns_none(self, tmp_path):
        assert DatasetStore(str(tmp_path), "ds").load_checkpoint() is None

    def test_corrupt_state_fails_crc(self, tmp_path):
        store, points, ids, sky_ids = self._store_state(tmp_path)
        # overwrite the state file with different arrays, keep the meta
        np.savez(
            store.state_path, points=points + 1.0, ids=ids, sky_ids=sky_ids
        )
        with pytest.raises(ConfigurationError, match="CRC"):
            store.load_checkpoint()

    def test_checkpoint_rotates_wal(self, tmp_path):
        store, *_ = self._store_state(tmp_path)
        assert store.wal.replay().records == ()


# ----------------------------------------------------------------------
# registry durability + crash/replay bit-identity
# ----------------------------------------------------------------------
def _mutation_sequence(seed=5, batches=10, d=4):
    """A deterministic alternating insert/delete batch sequence."""
    rng = np.random.default_rng(seed)
    base = _points(rng, 120, d=d)
    ops = []
    next_id = 1000
    alive = set(range(120))
    for i in range(batches):
        if i % 3 == 2 and len(alive) > 8:
            doomed = sorted(alive)[:3]
            ops.append(("delete", None, np.array(doomed, dtype=np.int64)))
            alive -= set(doomed)
        else:
            pts = _points(rng, 4, d=d)
            ids = np.arange(next_id, next_id + 4, dtype=np.int64)
            next_id += 4
            ops.append(("insert", pts, ids))
            alive |= set(int(x) for x in ids)
    return base, ops


def _apply_all(registry, name, ops):
    """Apply the batch sequence, self-healing injected writer crashes
    the way the service's mutate worker does."""
    for op, pts, ids in ops:
        try:
            if op == "insert":
                registry.insert(name, pts, ids)
            else:
                registry.delete(name, ids)
        except WriterDownError as exc:
            registry.recover(name)
            if not exc.applied:
                if op == "insert":
                    registry.insert(name, pts, ids)
                else:
                    registry.delete(name, ids)


class TestRegistryDurability:
    def test_recover_is_idempotent_and_bit_identical(self, tmp_path):
        base, ops = _mutation_sequence()
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=4
        )
        registry.register("ds", base, drift=DriftPolicy.never())
        _apply_all(registry, "ds", ops)
        before = registry.snapshot("ds")
        result = registry.recover("ds")
        after = registry.snapshot("ds")
        assert result.recovered
        assert after.version == before.version
        assert after.state_digest() == before.state_digest()

    @pytest.mark.parametrize("phase", WRITER_PHASES)
    def test_crash_phase_replays_bit_identical(self, tmp_path, phase):
        base, ops = _mutation_sequence()
        # ground truth: the uninterrupted run
        clean = DatasetRegistry(
            durability_dir=str(tmp_path / "clean"), checkpoint_every=4
        )
        clean.register("ds", base, drift=DriftPolicy.never())
        _apply_all(clean, "ds", ops)
        expected = clean.snapshot("ds")

        # chaos run: the writer crashes publishing batch seq=5
        plan = ServingFaultPlan(
            scripted_writer_crashes={("ds", 5): phase}
        )
        registry = DatasetRegistry(
            durability_dir=str(tmp_path / "chaos"),
            checkpoint_every=4,
            fault_plan=plan,
        )
        registry.register("ds", base, drift=DriftPolicy.never())
        _apply_all(registry, "ds", ops)
        recovered = registry.snapshot("ds")
        assert recovered.version == expected.version
        assert recovered.state_digest() == expected.state_digest()

    def test_crash_semantics_per_phase(self, tmp_path):
        rng = np.random.default_rng(1)
        base = _points(rng, 60)
        plan = ServingFaultPlan(
            scripted_writer_crashes={("ds", 2): "during"}
        )
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), fault_plan=plan
        )
        registry.register("ds", base, drift=DriftPolicy.never())
        pts = _points(rng, 3)
        with pytest.raises(WriterDownError) as excinfo:
            registry.insert("ds", pts, [900, 901, 902])
        # "during": the batch reached the WAL before the crash
        assert excinfo.value.applied is True
        assert registry.writer_status("ds")["writer_down"]
        assert registry.writer_status("ds")["pending_batches"] == 1
        # reads keep serving the stale snapshot
        assert registry.snapshot("ds").version == 1
        # further mutations fail fast while down
        with pytest.raises(WriterDownError) as down:
            registry.delete("ds", [0])
        assert down.value.applied is False
        # recovery applies the durable batch and republishes v2
        result = registry.recover("ds")
        assert result.version == 2
        snapshot = registry.snapshot("ds")
        assert snapshot.row_of(900) is not None
        assert not registry.writer_status("ds")["writer_down"]
        assert snapshot.meta["recovered"] is True

    def test_before_crash_loses_batch(self, tmp_path):
        rng = np.random.default_rng(2)
        base = _points(rng, 60)
        plan = ServingFaultPlan(
            scripted_writer_crashes={("ds", 2): "before"}
        )
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), fault_plan=plan
        )
        registry.register("ds", base, drift=DriftPolicy.never())
        with pytest.raises(WriterDownError) as excinfo:
            registry.insert("ds", _points(rng, 2), [700, 701])
        assert excinfo.value.applied is False
        registry.recover("ds")
        # the batch never reached the WAL: recovery cannot resurrect it
        assert registry.snapshot("ds").version == 1
        assert registry.snapshot("ds").row_of(700) is None

    def test_torn_tail_recovery_marks_partial(self, tmp_path):
        rng = np.random.default_rng(3)
        base = _points(rng, 60)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=100
        )
        registry.register("ds", base, drift=DriftPolicy.never())
        registry.insert("ds", _points(rng, 2), [800, 801])
        # tear the WAL tail by hand (crash mid-append of seq 3)
        wal_path = tmp_path / "ds" / "wal.log"
        with open(wal_path, "ab") as handle:
            handle.write(b'00000000 {"torn')
        result = registry.recover("ds")
        assert result.version == 2
        assert registry.snapshot("ds").meta["dropped_tail"] == 1

    def test_recover_without_durability_raises(self):
        rng = np.random.default_rng(4)
        registry = DatasetRegistry()
        registry.register("ds", _points(rng, 30))
        with pytest.raises(ConfigurationError, match="durab"):
            registry.recover("ds")

    def test_checkpoint_cadence(self, tmp_path):
        rng = np.random.default_rng(5)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=3
        )
        registry.register("ds", _points(rng, 60), drift=DriftPolicy.never())
        next_id = 2000
        for _ in range(3):
            registry.insert("ds", _points(rng, 2), [next_id, next_id + 1])
            next_id += 2
        store = DatasetStore(str(tmp_path), "ds")
        state = store.load_checkpoint()
        # register checkpointed v1; three publishes later the cadence
        # (every 3) checkpointed v4 and rotated the WAL
        assert state is not None and state.version == 4
        assert store.wal.replay().records == ()

    def test_inapplicable_batch_leaves_no_orphan_wal_frame(self, tmp_path):
        # A batch that cannot apply (duplicate id) must be rejected
        # BEFORE the WAL append: an orphan frame would never publish
        # its seq, the next batch would reuse it, and recovery would
        # refuse the duplicate-seq log.
        from repro.core.exceptions import DatasetError

        rng = np.random.default_rng(6)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=100
        )
        registry.register("ds", _points(rng, 40), drift=DriftPolicy.never())
        registry.insert("ds", _points(rng, 2), [500, 501])
        with pytest.raises(DatasetError, match="already alive"):
            registry.insert("ds", _points(rng, 1), [500])
        with pytest.raises(DatasetError, match="not alive"):
            registry.delete("ds", [99_999])
        # the rejected batches left no frame behind: seq stays dense
        store = DatasetStore(str(tmp_path), "ds")
        assert [r.seq for r in store.wal.replay().records] == [2]
        registry.delete("ds", [500])
        result = registry.recover("ds")
        assert result.version == 3

    def test_off_grid_insert_is_rejected_before_the_wal(self, tmp_path):
        # A point off the codec's grid (non-integral or out of range)
        # cannot apply either: it is rejected before the WAL append and
        # before any id turns alive, so a corrected retry succeeds.
        from repro.core.exceptions import DatasetError

        rng = np.random.default_rng(7)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=100
        )
        registry.register(
            "ds", _points(rng, 40, d=2),
            codec=ZGridCodec.grid_identity(2, bits_per_dim=6),
            drift=DriftPolicy.never(),
        )
        version = registry.snapshot("ds").version
        for bad in ([[1.5, 2.0]], [[-1.0, 2.0]], [[64.0, 2.0]]):
            with pytest.raises(DatasetError, match="integers"):
                registry.insert("ds", bad, [500])
        assert registry.snapshot("ds").version == version
        store = DatasetStore(str(tmp_path), "ds")
        assert store.wal.replay().records == ()
        assert registry.insert("ds", [[1.0, 2.0]], [500]).version == version + 1
        assert registry.recover("ds").version == version + 1
        assert 500 in registry.snapshot("ds").ids.tolist()

    def test_register_rejects_off_grid_points(self):
        from repro.core.exceptions import DatasetError

        with pytest.raises(DatasetError, match="quantise first"):
            DatasetRegistry().register("ds", np.array([[1.0, 2.5]]))

    def test_writer_crash_draw_varies_by_incarnation(self):
        plan = ServingFaultPlan(seed=9, writer_crash_rate=0.4)
        phases = {
            inc: plan.writer_crash_phase("ds", 7, inc) for inc in range(12)
        }
        # same (dataset, seq) must not crash in every incarnation —
        # otherwise a crashed batch could never succeed on retry
        assert any(p is None for p in phases.values())
        # and the draw is deterministic
        assert phases[0] == plan.writer_crash_phase("ds", 7, 0)


# ----------------------------------------------------------------------
# recovery across the checkpoint/rotation boundary
# ----------------------------------------------------------------------
class TestRotationBoundary:
    def test_adopt_across_rotated_boundary_is_bit_identical(self, tmp_path):
        """A checkpoint cadence that rotates the WAL mid-sequence must
        not change what a cold adoption reconstructs: checkpoint +
        post-rotation WAL frames replay to the uninterrupted state."""
        base, ops = _mutation_sequence(seed=8, batches=11)
        # ground truth: same batches, no durability machinery at all
        clean = DatasetRegistry(keep_versions=64)
        clean.register("ds", base, drift=DriftPolicy.never())
        _apply_all(clean, "ds", ops)
        expected = clean.snapshot("ds")

        durable = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=3
        )
        durable.register("ds", base, drift=DriftPolicy.never())
        _apply_all(durable, "ds", ops)
        # the cadence (every 3) rotated at least once, and the live WAL
        # holds only frames past the last checkpoint
        store = DatasetStore(str(tmp_path), "ds")
        state = store.load_checkpoint()
        assert state is not None and state.seq > 1
        tail = [r.seq for r in store.wal.replay().records]
        assert all(seq > state.seq for seq in tail)

        # cold-start adoption (the failover path) spans the boundary
        fresh = DatasetRegistry(durability_dir=str(tmp_path))
        result = fresh.adopt("ds", drift=DriftPolicy.never())
        recovered = fresh.snapshot("ds")
        assert result.recovered
        assert recovered.version == expected.version
        assert recovered.state_digest() == expected.state_digest()

    def test_recover_refuses_seq_jump_past_checkpoint(self, tmp_path):
        """A WAL that resumes *beyond* checkpoint.seq + 1 means an
        acknowledged batch vanished across the rotation point; recovery
        must refuse rather than silently replay past the hole."""
        rng = np.random.default_rng(9)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=1
        )
        registry.register("ds", _points(rng, 40), drift=DriftPolicy.never())
        registry.insert("ds", _points(rng, 2), [600, 601])
        # checkpoint_every=1: every publish checkpoints + rotates, so
        # the live WAL is empty and the checkpoint ends at seq 2
        store = DatasetStore(str(tmp_path), "ds")
        state = store.load_checkpoint()
        assert state is not None and state.seq == 2
        assert store.wal.replay().records == ()
        # forge a frame that skips seq 3 — as if rotation ate its head
        store.wal.append(WalRecord.delete(state.seq + 2, [600]))
        store.wal.close()

        fresh = DatasetRegistry(durability_dir=str(tmp_path))
        with pytest.raises(ConfigurationError, match="sequence gap"):
            fresh.adopt("ds")

    def test_recover_skips_frames_the_checkpoint_covers(self, tmp_path):
        """Crash *between* checkpoint and rotation: the WAL still holds
        frames at or below checkpoint.seq.  Recovery must skip them
        (replaying would double-apply) and land bit-identical."""
        rng = np.random.default_rng(10)
        registry = DatasetRegistry(
            durability_dir=str(tmp_path), checkpoint_every=100
        )
        registry.register("ds", _points(rng, 40), drift=DriftPolicy.never())
        registry.insert("ds", _points(rng, 2), [700, 701])
        registry.delete("ds", [0])
        expected = registry.snapshot("ds")

        store = DatasetStore(str(tmp_path), "ds")
        wal_records = store.wal.replay().records
        assert [r.seq for r in wal_records] == [2, 3]
        # hand-roll the "checkpointed but crashed before rotate" state
        snap = registry.snapshot("ds")
        store.save_checkpoint(
            snap.codec, seq=3, version=3, points=snap.points,
            ids=snap.ids, sky_ids=snap.sky_ids,
            deletes_since_rebuild=0,
        )
        # save_checkpoint rotates; write the pre-rotation frames back
        for record in wal_records:
            store.wal.append(record)
        store.wal.close()

        fresh = DatasetRegistry(durability_dir=str(tmp_path))
        fresh.adopt("ds", drift=DriftPolicy.never())
        recovered = fresh.snapshot("ds")
        assert recovered.version == expected.version
        assert recovered.state_digest() == expected.state_digest()


def test_recovery_and_drift_rebuild_encode_each_row_once(tmp_path):
    """Recovery encodes the checkpoint's rows once plus each replayed
    row; a drift rebuild reuses the stored Z-addresses."""
    rng = np.random.default_rng(8)
    codec = ZGridCodec.grid_identity(4, bits_per_dim=6)
    registry = DatasetRegistry(
        durability_dir=str(tmp_path), checkpoint_every=100
    )
    registry.register(
        "ds", _points(rng, 120), codec=codec,
        drift=DriftPolicy(max_deletes=25),
    )
    for batch in range(3):
        registry.insert("ds", _points(rng, 10), range(1000 + 10 * batch, 1010 + 10 * batch))
    registry.delete("ds", range(0, 20))
    codec.kernel_stats.reset()
    recovered = registry.recover("ds")
    encoded = codec.kernel_stats.snapshot()["encode_fast_rows"]
    assert encoded == 120 + 30  # the checkpoint's rows, then the replay
    codec.kernel_stats.reset()
    assert registry.delete("ds", range(20, 30)).rebuilt  # 30 > 25 deletes
    assert codec.kernel_stats.snapshot().get("encode_fast_rows", 0) == 0
    assert recovered.size == 130

"""Write-path differential oracle.

One seeded interleaving of insert/delete batches goes through a durable
registry with its publish hooks (a count-window continuous query and a
subscription-hub subscriber), and every published version is checked
against independent paths:

* the model: BNL over the alive set the test keeps itself, frozen into a
  :class:`Snapshot` so its ``state_digest()`` is comparable;
* the paper's offline engine (``run_plan``) over the same alive set;
* the same registry stack that calls ``recover()`` after every batch;
* a fresh registry that ``adopt()``s a copy of the live durable home;
* the subscriber's replayed diff stream and the continuous query's
  window, checked against BNL over the last arrivals.

A second matrix crashes the writer at every ``writer_crash_phase`` on
seeded batches, self-heals the way the service does, and checks that
every version digests like the crash-free run and that the continuous
query saw every arrival exactly once.

On a divergence the seed, op log and per-path digests are written to a
JSON bundle under ``write-path-differential/`` and the failure names it.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.algorithms.bnl import bnl_skyline
from repro.core.dataset import Dataset
from repro.core.exceptions import DatasetError, WriterDownError
from repro.maintenance import SkylineMaintainer
from repro.pipeline.driver import run_plan
from repro.serving.faults import WRITER_PHASES, ServingFaultPlan
from repro.serving.registry import DatasetRegistry, DriftPolicy
from repro.serving.snapshot import Snapshot
from repro.serving.wal import DatasetStore
from repro.streaming import (
    ContinuousQueryManager,
    SubscriptionHub,
    WindowSpec,
    replay,
)
from repro.zorder.encoding import ZGridCodec

SEED = 20240617
DIMS = 3
BITS = 5
BASE_N = 32
BATCHES = 36
WINDOW = 16
DATASET = "ds"
#: rebuild once deletes exceed 1.5x the alive set, so the maintainer's
#: store also compacts (dead rows > live rows) between rebuilds
DRIFT = DriftPolicy(max_delete_fraction=1.5)
BUNDLE_DIR = "write-path-differential"


def _codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(DIMS, bits_per_dim=BITS)


def _grid(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << BITS, size=(n, DIMS)).astype(np.float64)


def _workload(seed: int):
    """Base points plus a seeded op list ``(op, points | None, ids)``.

    Deletes pick from the model's alive set; insert ids are fresh and
    deliberately not ascending within a batch, except that an insert
    may bring back a deleted id — preferably one whose earlier arrival
    is still inside the query's window, which then holds two arrivals
    of it.
    """
    rng = np.random.default_rng(seed)
    base = _grid(rng, BASE_N)
    alive = list(range(BASE_N))
    gone = []
    arrivals = []
    next_id = BASE_N
    ops = []
    for _ in range(BATCHES):
        if rng.random() < 0.5 or len(alive) < 12:
            k = int(rng.integers(1, 7))
            ids = list(range(next_id, next_id + k))[::-1]
            next_id += k
            if gone and rng.random() < 0.5:
                recent = [pid for pid in gone if pid in arrivals[-WINDOW:]]
                back = (recent or gone)[-1]
                gone.remove(back)
                ids.insert(int(rng.integers(0, k + 1)), back)
            ops.append(("insert", _grid(rng, len(ids)), ids))
            alive.extend(ids)
            arrivals.extend(ids)
        else:
            k = int(rng.integers(1, 9))
            picks = rng.choice(len(alive), size=k, replace=False)
            ids = [alive[int(i)] for i in picks]
            ops.append(("delete", None, ids))
            alive = [pid for pid in alive if pid not in set(ids)]
            gone.extend(ids)
    return base, ops


class _Model:
    """The test's own alive set and arrival stream."""

    def __init__(self, base: np.ndarray) -> None:
        self.rows = {pid: base[pid] for pid in range(base.shape[0])}
        self.arrivals = []  # (id, row) after registration, applied order
        self.version = 1

    def apply(self, op, points, ids) -> None:
        if op == "insert":
            for pid, row in zip(ids, points):
                self.rows[pid] = row
                self.arrivals.append((pid, row))
        else:
            for pid in ids:
                del self.rows[pid]
        self.version += 1

    def alive(self):
        ids = np.asarray(sorted(self.rows), dtype=np.int64)
        points = np.asarray([self.rows[int(i)] for i in ids])
        return points.reshape(len(ids), DIMS), ids

    def snapshot(self) -> Snapshot:
        points, ids = self.alive()
        sky_points, sky_ids = bnl_skyline(points, ids=ids)
        return Snapshot.build(
            DATASET, self.version, _codec(), points, ids, sky_points, sky_ids
        )

    def window(self):
        tail = self.arrivals[-WINDOW:]
        ids = np.asarray([pid for pid, _ in tail], dtype=np.int64)
        points = np.asarray([row for _, row in tail]).reshape(len(tail), DIMS)
        return points, ids


class _Stack:
    """A durable registry with a count-window query and a subscriber."""

    def __init__(self, home: str, base: np.ndarray, fault_plan=None) -> None:
        self.registry = DatasetRegistry(
            durability_dir=home, checkpoint_every=3, fault_plan=fault_plan
        )
        self.registry.register(
            DATASET, base, ids=np.arange(base.shape[0]), codec=_codec(),
            drift=DRIFT,
        )
        manager = ContinuousQueryManager().attach(self.registry)
        self.query = manager.register(
            "lastN", DATASET, WindowSpec.count(WINDOW)
        )
        hub = SubscriptionHub().attach(self.registry)
        self.sub = hub.subscribe(DATASET, max_pending=4 * BATCHES)
        self.events = []

    def apply(self, op, points, ids) -> None:
        """One batch, self-healing injected writer crashes the way the
        service's mutate worker does."""
        try:
            self._write(op, points, ids)
        except WriterDownError as exc:
            self.registry.recover(DATASET)
            if not exc.applied:
                self._write(op, points, ids)

    def _write(self, op, points, ids) -> None:
        if op == "insert":
            self.registry.insert(DATASET, points, ids)
        else:
            self.registry.delete(DATASET, ids)

    def snapshot(self) -> Snapshot:
        return self.registry.snapshot(DATASET)

    def replayed_skyline(self) -> frozenset:
        while True:
            event = self.sub.get(timeout=0)
            if event is None:
                break
            self.events.append(event)
        sky, _version = replay(
            self.events, self.sub.start_sky_ids, self.sub.start_version
        )
        return sky


class _Oracle:
    """Collects per-path digests; a divergence writes the debug bundle."""

    def __init__(self, name: str, seed: int, ops) -> None:
        self.name = name
        self.seed = seed
        self.op_log = [
            {"op": op, "ids": [int(i) for i in ids]} for op, _, ids in ops
        ]
        self.digests = {}

    def record(self, path: str, version: int, digest: str) -> None:
        self.digests.setdefault(path, {})[version] = digest

    def check(self, ok: bool, message: str) -> None:
        if ok:
            return
        os.makedirs(BUNDLE_DIR, exist_ok=True)
        bundle = os.path.join(BUNDLE_DIR, f"{self.name}.json")
        with open(bundle, "w") as handle:
            json.dump(
                {
                    "seed": self.seed,
                    "failure": message,
                    "op_log": self.op_log,
                    "digests": self.digests,
                },
                handle,
                indent=1,
            )
        pytest.fail(f"{message} (debug bundle: {bundle})")


def _ids(array) -> frozenset:
    return frozenset(int(i) for i in array)


def _offline_skyline(points: np.ndarray, ids: np.ndarray) -> frozenset:
    report = run_plan(
        "ZDG+ZS+ZM", Dataset(points, ids=ids, name="offline"),
        bits_per_dim=BITS, num_workers=2, num_groups=2, seed=0,
    )
    return _ids(report.skyline.ids)


def _adopted_digest(live_home: str, scratch: str) -> str:
    """Digest a fresh registry publishes after adopting a copy of the
    live durable home (checkpoint + WAL replay)."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(live_home, scratch)
    fresh = DatasetRegistry(durability_dir=scratch, checkpoint_every=3)
    fresh.adopt(DATASET, drift=DRIFT)
    return fresh.snapshot(DATASET).state_digest()


def test_write_path_paths_agree_at_every_version(tmp_path):
    base, ops = _workload(SEED)
    oracle = _Oracle("paths", SEED, ops)
    model = _Model(base)
    live_home = str(tmp_path / "live")
    live = _Stack(live_home, base)
    healed = _Stack(str(tmp_path / "recovered"), base)
    for step, (op, points, ids) in enumerate(ops):
        model.apply(op, points, ids)
        live.apply(op, points, ids)
        healed.apply(op, points, ids)
        published = healed.snapshot().state_digest()
        healed.registry.recover(DATASET)
        version = model.version
        where = f"batch {step} ({op} {ids}) -> v{version}"
        oracle.check(
            healed.snapshot().state_digest() == published,
            f"{where}: recover() republished a different digest",
        )

        expected = model.snapshot()
        snap = live.snapshot()
        oracle.record("model", version, expected.state_digest())
        oracle.record("live", version, snap.state_digest())
        oracle.record("recovered", version, healed.snapshot().state_digest())
        oracle.record(
            "adopted", version,
            _adopted_digest(live_home, str(tmp_path / "adopt")),
        )
        oracle.check(snap.version == version, f"{where}: live at v{snap.version}")
        for path in ("live", "recovered", "adopted"):
            oracle.check(
                oracle.digests[path][version]
                == oracle.digests["model"][version],
                f"{where}: {path} digest diverges from the model",
            )
        points_now, ids_now = model.alive()
        oracle.check(
            _ids(snap.sky_ids) == _offline_skyline(points_now, ids_now),
            f"{where}: skyline differs from the offline run_plan recompute",
        )
        for stack, path in ((live, "live"), (healed, "recovered")):
            oracle.check(
                stack.replayed_skyline() == _ids(snap.sky_ids),
                f"{where}: {path} subscriber replay differs from sky_ids",
            )
            window_points, window_ids = model.window()
            oracle.check(
                stack.query.window_ids() == tuple(window_ids.tolist()),
                f"{where}: {path} query window is not the last arrivals",
            )
            _, want = bnl_skyline(window_points, ids=window_ids)
            oracle.check(
                stack.query.skyline_ids() == _ids(want),
                f"{where}: {path} windowed skyline differs from BNL",
            )
            oracle.check(
                stack.query.records_seen == len(model.arrivals),
                f"{where}: {path} query saw {stack.query.records_seen} "
                f"arrivals, the stream has {len(model.arrivals)}",
            )
    final = _adopted_digest(live_home, str(tmp_path / "final"))
    oracle.check(
        final == live.snapshot().state_digest(),
        "adopt() of the final home diverges from the live registry",
    )


def _clean_run(home: str, base: np.ndarray, ops):
    """Per-version observations of the crash-free run."""
    clean = _Stack(home, base)
    seen = []
    for op, points, ids in ops:
        clean.apply(op, points, ids)
        snap = clean.snapshot()
        seen.append((
            snap.version,
            snap.state_digest(),
            clean.query.window_ids(),
            clean.query.skyline_ids(),
        ))
    return seen


@pytest.mark.parametrize("phase", WRITER_PHASES)
def test_writer_crash_matches_crash_free_run(tmp_path, phase):
    base, ops = _workload(SEED)
    oracle = _Oracle(f"crash-{phase}", SEED, ops)
    clean = _clean_run(str(tmp_path / "clean"), base, ops)
    for version, digest, _, _ in clean:
        oracle.record("clean", version, digest)
    # Scripted crashes fire on the writer's first incarnation only, so
    # each seeded seq gets its own run.  Publish seq s is batch s - 2.
    rng = np.random.default_rng([SEED, WRITER_PHASES.index(phase)])
    seqs = sorted(int(s) for s in rng.choice(
        np.arange(2, BATCHES + 2), size=3, replace=False
    ))
    for seq in seqs:
        plan = ServingFaultPlan(scripted_writer_crashes={(DATASET, seq): phase})
        chaos = _Stack(str(tmp_path / f"chaos-{seq}"), base, fault_plan=plan)
        arrivals = 0
        for step, (op, points, ids) in enumerate(ops):
            chaos.apply(op, points, ids)
            arrivals += len(ids) if op == "insert" else 0
            got = chaos.snapshot()
            oracle.record(f"crash@{seq}", got.version, got.state_digest())
            version, digest, window, sky = clean[step]
            where = f"{phase} crash at seq {seq}, batch {step} ({op})"
            oracle.check(
                got.version == version and got.state_digest() == digest,
                f"{where}: digest diverges from the crash-free run",
            )
            oracle.check(
                chaos.query.records_seen == arrivals
                and chaos.query.window_ids() == window
                and chaos.query.skyline_ids() == sky,
                f"{where}: query saw {chaos.query.records_seen} arrivals, "
                f"expected each of {arrivals} exactly once",
            )
            oracle.check(
                chaos.replayed_skyline() == _ids(got.sky_ids),
                f"{where}: subscriber replay differs from sky_ids",
            )
        oracle.check(
            chaos.registry.writer_status(DATASET)["recoveries"] == 1,
            f"{phase} crash at seq {seq} never fired",
        )


class TestBatchValidation:
    """Repeated ids inside one batch are rejected, never half-applied."""

    def test_maintainer_rejects_repeated_insert_ids(self):
        maintainer = SkylineMaintainer(_codec())
        with pytest.raises(DatasetError, match="duplicate"):
            maintainer.insert_block(
                np.asarray([[1.0, 5.0, 3.0], [5.0, 1.0, 3.0]]),
                np.asarray([7, 7]),
            )
        assert maintainer.size == 0
        maintainer.insert_block(
            np.asarray([[1.0, 5.0, 3.0], [5.0, 1.0, 3.0]]),
            np.asarray([7, 8]),
        )
        assert maintainer.size == 2
        maintainer.verify()

    def test_registry_rejects_repeated_delete_ids(self, tmp_path):
        rng = np.random.default_rng(SEED)
        registry = DatasetRegistry(durability_dir=str(tmp_path))
        registry.register(
            DATASET, _grid(rng, 20), codec=_codec(),
            drift=DriftPolicy(max_deletes=1),
        )
        before = registry.snapshot(DATASET)
        with pytest.raises(DatasetError, match="duplicate"):
            registry.delete(DATASET, [3, 3])
        after = registry.snapshot(DATASET)
        assert after.version == before.version
        assert after.state_digest() == before.state_digest()
        assert DatasetStore(str(tmp_path), DATASET).wal.replay().records == ()
        # The rejected batch spent none of the drift budget
        # (max_deletes=1): the next delete is the first to count, and
        # only the one after it crosses the budget.
        assert not registry.delete(DATASET, [3]).rebuilt
        assert registry.snapshot(DATASET).version == before.version + 1
        assert registry.delete(DATASET, [4]).rebuilt

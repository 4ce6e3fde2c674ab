"""Unit tests for Z-search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.algorithms.zs as zs_module
from repro.algorithms.zs import zs_skyline, zs_skyline_groups
from repro.core.dataset import Dataset
from repro.core import point as point_module
from repro.core.exceptions import ZOrderError
from repro.core.point import GridRows
from repro.core.skyline import is_skyline_of
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, build_zbtree, rebuild
from repro.zorder.zsearch import (
    accept,
    accept_groups,
    zsearch,
    zsearch_dataset,
    zsearch_mask,
)


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(3, bits_per_dim=5)


class TestZSearch:
    def test_matches_oracle_random(self, codec):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.integers(0, 32, (120, 3)).astype(float)
            tree = build_zbtree(codec, pts)
            sky, ids = zsearch(tree)
            assert is_skyline_of(sky, pts)

    def test_mask_selects_the_skyline_rows(self, codec):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 32, (150, 3)).astype(float)
        tree = build_zbtree(codec, pts)
        plain, masked = OpCounter(), OpCounter()
        sky, ids = zsearch(tree, plain)
        keep = zsearch_mask(tree, masked)
        assert plain == masked
        assert np.array_equal(tree.leaf_ids[keep], ids)
        # the skyline tree of the mask reuses the stored Z-addresses and
        # columns and equals a tree built from the skyline rows
        sub = rebuild(tree, keep=keep)
        fresh = build_zbtree(codec, sky, ids=ids)
        sub.validate()
        for name in ("leaf_z", "leaf_points", "leaf_ids", "minpt", "maxpt",
                     "parent", "end", "pstart", "npoints"):
            assert np.array_equal(getattr(sub, name), getattr(fresh, name))

    def test_mask_without_counter_skips_the_walk(self, codec, monkeypatch):
        rng = np.random.default_rng(6)
        tree = build_zbtree(codec, rng.integers(0, 32, (150, 3)).astype(float))
        charged = zsearch_mask(tree, OpCounter())

        def walked(*_args):
            raise AssertionError("the charged walk ran without a counter")

        monkeypatch.setattr(tree, "below", walked)
        assert np.array_equal(zsearch_mask(tree), charged)

    def test_empty_tree(self, codec):
        tree = build_zbtree(codec, np.empty((0, 3)))
        sky, ids = zsearch(tree)
        assert sky.shape == (0, 3)
        assert ids.size == 0

    def test_all_duplicates_kept(self, codec):
        pts = np.tile(np.array([[4.0, 4.0, 4.0]]), (6, 1))
        tree = build_zbtree(codec, pts)
        sky, _ = zsearch(tree)
        assert sky.shape[0] == 6

    def test_single_dominator(self, codec):
        pts = np.vstack(
            [np.zeros((1, 3)), np.ones((20, 3)) * 7]
        )
        tree = build_zbtree(codec, pts)
        sky, ids = zsearch(tree)
        assert sky.shape[0] == 1
        assert ids.tolist() == [0]

    def test_ids_refer_to_original_rows(self, codec):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 32, (60, 3)).astype(float)
        custom_ids = np.arange(1000, 1060)
        tree = build_zbtree(codec, pts, ids=custom_ids)
        sky, ids = zsearch(tree)
        for point, pid in zip(sky, ids):
            assert np.array_equal(pts[pid - 1000], point)

    def test_pruning_reduces_point_tests(self, codec):
        # Correlated data: one point dominates nearly everything, so
        # region pruning should keep the test count near-linear.
        rng = np.random.default_rng(4)
        base = rng.integers(0, 4, (300, 3))
        pts = (base + 20).astype(float)
        pts[0] = [0.0, 0.0, 0.0]
        tree = build_zbtree(codec, pts)
        counter = OpCounter()
        sky, _ = zsearch(tree, counter)
        assert sky.shape[0] == 1
        # Far fewer than the quadratic 300*300/2 comparisons.
        assert counter.point_tests < 2000

    def test_result_in_z_order(self, codec):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 32, (120, 3)).astype(float)
        tree = build_zbtree(codec, pts)
        sky, _ = zsearch(tree)
        zs = codec.encode_grid(sky.astype(np.int64))
        assert zs == sorted(zs)


class TestZSearchDataset:
    def test_with_explicit_codec(self, codec):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.integers(0, 32, (80, 3)).astype(float))
        sky, _ = zsearch_dataset(ds, codec)
        assert is_skyline_of(sky, ds.points)

    def test_derives_codec_when_missing(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.integers(0, 100, (80, 4)).astype(float))
        sky, _ = zsearch_dataset(ds)
        assert is_skyline_of(sky, ds.points)


def _grid_rows(seed: int, n: int, d: int, bits: int) -> np.ndarray:
    """``n`` rows on a ``bits``-bit grid, half the time drawn from a
    small palette (duplicate rows, equal Z-addresses) that includes the
    top of the grid."""
    rng = np.random.default_rng(seed)
    top = (1 << bits) - 1
    if seed % 2:
        palette = np.array([0, 1, top // 2, top - 1, top])
        return rng.choice(palette, (n, d)).astype(float)
    return rng.integers(0, top + 1, (n, d)).astype(float)


class TestTreeFreeZSearch:
    """``zs_skyline`` builds a tree only for a charged multi-leaf walk;
    its answers, order, ids and charges equal a tree's Z-search."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 70),
        d=st.sampled_from([1, 2, 4, 8]),
        bits=st.sampled_from([12, 16, 17]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the one-leaf / two-leaf boundary on both kernel paths (4x12 bits
    # is the uint64 path, 8x12 the wide one) and both column dtypes
    @example(n=32, d=8, bits=12, seed=1)
    @example(n=33, d=8, bits=12, seed=2)
    @example(n=32, d=4, bits=12, seed=3)
    @example(n=33, d=4, bits=12, seed=4)
    @example(n=33, d=2, bits=16, seed=5)
    @example(n=33, d=1, bits=17, seed=6)
    def test_matches_the_tree_search(self, n, d, bits, seed):
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        pts = _grid_rows(seed, n, d, bits)
        ids = np.random.default_rng(seed).permutation(n) + 100
        zbatch = codec.encode_grid_batch(pts)
        tree = build_zbtree(codec, pts, ids=ids)
        want_counter = OpCounter()
        want_pts, want_ids = zsearch(tree, want_counter)
        for zaddresses in (None, zbatch):
            for counter in (None, OpCounter()):
                got_pts, got_ids = zs_skyline(
                    pts, ids, counter, codec, zaddresses=zaddresses
                )
                assert np.array_equal(got_pts, want_pts)
                assert np.array_equal(got_ids, want_ids)
                assert got_pts.dtype == np.float64 and got_ids.dtype == np.int64
                if counter is not None:
                    assert counter == want_counter
        # a derived identity codec gives the same answer
        got_pts, got_ids = zs_skyline(pts, ids)
        assert sorted(got_ids.tolist()) == sorted(want_ids.tolist())

    @pytest.mark.parametrize("n,counted,builds", [
        (32, True, 0), (33, True, 1), (200, False, 0),
    ])
    def test_builds_a_tree_only_for_a_charged_multi_leaf_walk(
        self, monkeypatch, n, counted, builds
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return build_zbtree(*args, **kwargs)

        monkeypatch.setattr(zs_module, "build_zbtree", spy)
        codec = ZGridCodec.grid_identity(3, bits_per_dim=5)
        pts = np.random.default_rng(n).integers(0, 32, (n, 3)).astype(float)
        zs_skyline(pts, None, OpCounter() if counted else None, codec)
        assert len(calls) == builds

    def test_one_leaf_charges_in_closed_form(self):
        # Z-order: (1,1) (0,3) (3,0) (2,2) (3,3); the last two are
        # dominated
        codec = ZGridCodec.grid_identity(2, bits_per_dim=2)
        pts = np.array([[3.0, 3.0], [0.0, 3.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        counter = OpCounter()
        _, ids = zs_skyline(pts, None, counter, codec)
        assert sorted(ids.tolist()) == [1, 2, 4]
        # one visit, one region test; each row tests the rows accepted
        # before it in Z-order: 0 + 1 + 2 + 3 + 3
        assert counter == OpCounter(point_tests=9, region_tests=1, nodes_visited=1)

    @pytest.mark.parametrize("counted", [False, True])
    def test_off_grid_rows_are_rejected_without_a_tree(self, counted):
        # truncated onto the grid both rows would be cell (1, 1), and
        # both would be kept although (1.2, 1.2) dominates (1.7, 1.7)
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        pts = np.array([[1.7, 1.7], [1.2, 1.2]])
        counter = OpCounter() if counted else None
        with pytest.raises(ZOrderError, match="integers"):
            zs_skyline(pts, None, counter, codec)
        truncated = codec.encode_grid_batch(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ZOrderError, match="integers"):
            zs_skyline(pts, None, counter, codec, zaddresses=truncated)


class TestGroupedZSearch:
    """``zs_skyline_groups`` equals one ``zs_skyline`` call per one-leaf
    group: rows, ids, order, carried Z-addresses and charges."""

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(
            st.one_of(st.integers(0, 32), st.sampled_from([0, 1, 31, 32])),
            max_size=10,
        ),
        d=st.sampled_from([1, 2, 8]),
        bits=st.sampled_from([12, 16, 17]),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([1, 100, 1 << 18]),
    )
    @example(sizes=[32, 0, 32, 1], d=8, bits=12, seed=1, budget=1 << 18)
    @example(sizes=[32, 32], d=2, bits=16, seed=3, budget=1 << 18)
    @example(sizes=[], d=1, bits=17, seed=0, budget=1 << 18)
    def test_matches_per_group_calls(self, sizes, d, bits, seed, budget):
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        pts = _grid_rows(seed, sum(sizes), d, bits)
        ids = np.random.default_rng(seed).permutation(len(pts)) + 7
        zbatch = codec.encode_grid_batch(pts)
        want_counter = OpCounter()
        want_pts, want_ids, want_counts = [], [], []
        lo = 0
        for size in sizes:
            got = zs_skyline(
                pts[lo : lo + size], ids[lo : lo + size], want_counter, codec,
                zaddresses=zbatch[lo : lo + size],
            )
            want_pts.append(got[0])
            want_ids.append(got[1])
            want_counts.append(len(got[1]))
            lo += size
        counter = OpCounter()
        # a small pair budget splits the padded pass into group chunks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(point_module, "PAIR_BUDGET", budget)
            got_pts, got_ids, got_z, counts = zs_skyline_groups(
                pts, ids, zbatch, sizes, codec, counter
            )
        want = np.concatenate(want_pts) if sizes else np.empty((0, d))
        assert np.array_equal(got_pts, want.reshape(-1, d))
        assert np.array_equal(
            got_ids, np.concatenate(want_ids) if sizes else np.empty(0)
        )
        assert got_pts.dtype == np.float64 and got_ids.dtype == np.int64
        assert counts.tolist() == want_counts
        # the carried addresses are the output rows' own
        assert np.array_equal(got_z, codec.encode_grid_batch(got_pts))
        assert counter == want_counter

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 40), max_size=8),
        d=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accept_groups_is_accept_per_group(self, sizes, d, seed):
        # any scan order, not only Z-order: earlier rows screen later ones
        rows = GridRows.of(_grid_rows(seed, sum(sizes), d, 4), np.uint16)
        got = accept_groups(rows, np.array(sizes, dtype=np.int64))
        starts = np.cumsum([0] + sizes)
        want = [accept(rows[a:b]) for a, b in zip(starts[:-1], starts[1:])]
        assert np.array_equal(
            got, np.concatenate(want) if want else np.zeros(0, dtype=bool)
        )

    def test_groups_wider_than_a_leaf_are_rejected(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=6)
        pts = np.random.default_rng(0).integers(0, 64, (33, 2)).astype(float)
        with pytest.raises(ZOrderError, match="leaf"):
            zs_skyline_groups(
                pts, np.arange(33), codec.encode_grid_batch(pts), [33], codec
            )

    def test_off_grid_rows_are_rejected(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        pts = np.array([[1.7, 1.7], [1.2, 1.2]])
        truncated = codec.encode_grid_batch(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ZOrderError, match="integers"):
            zs_skyline_groups(pts, np.arange(2), truncated, [1, 1], codec)

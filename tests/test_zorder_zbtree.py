"""Unit tests for the ZB-tree structure and its queries."""

import numpy as np
import pytest

import repro.core.point as point_module
from repro.core.exceptions import ZOrderError
from repro.core.point import GridRows, dominates
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import (
    OpCounter,
    ZBTree,
    build_zbtree,
    rebuild,
)
from repro.zorder.zmerge import zmerge_all
from repro.zorder.zsearch import zsearch


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(3, bits_per_dim=6)


def make_tree(codec, rng, n=200, top=64, **kwargs) -> ZBTree:
    points = rng.integers(0, top, (n, codec.dimensions)).astype(float)
    return build_zbtree(codec, points, **kwargs), points


class TestBuild:
    def test_empty_tree(self, codec):
        tree = build_zbtree(codec, np.empty((0, 3)))
        assert tree.is_empty
        assert tree.size == 0
        assert tree.height() == 0
        assert tree.points().shape == (0, 3)

    def test_single_point(self, codec):
        tree = build_zbtree(codec, np.array([[1.0, 2.0, 3.0]]))
        assert tree.size == 1
        assert tree.height() == 1

    def test_points_come_back_in_z_order(self, codec, rng):
        tree, points = make_tree(codec, rng)
        zs, got, ids = tree.collect()
        ints = codec.kernel.to_int_list(zs)
        assert sorted(ints) == ints
        assert ints == codec.encode_grid(got.astype(np.int64))
        assert got.shape == points.shape
        # Content preserved as a multiset (ids map back to rows).
        assert np.array_equal(got[np.argsort(ids)], points)

    def test_validate_passes_for_fresh_tree(self, codec, rng):
        tree, _ = make_tree(codec, rng)
        tree.validate()

    def test_validate_catches_corruption(self, codec):
        # Corrupt a tree by rebinding a column to a changed copy.
        def rebind(tree, name, row, value):
            column = getattr(tree, name).copy()
            column[row] = value
            setattr(tree, name, column)

        def corner(tree, row):
            # shrink a node's region to the single cell (63, 63, 63)
            rebind(tree, "minpt", row, 63.0)
            rebind(tree, "maxpt", row, 63.0)

        for corrupt in (
            lambda t: rebind(t, "leaf_points", 0, t.leaf_points[0] + 1),
            lambda t: corner(t, t.num_nodes - 1),   # a leaf
            lambda t: corner(t, 0),                 # the root
            lambda t: rebind(t, "npoints", 0, t.npoints[0] + 1),
        ):
            tree, _ = make_tree(
                codec, np.random.default_rng(3), n=60, top=32,
                leaf_capacity=4, fanout=3,
            )
            tree.validate()
            corrupt(tree)
            with pytest.raises(ZOrderError):
                tree.validate()

    def test_size_and_leaf_capacity(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=100, leaf_capacity=8, fanout=4)
        assert tree.size == 100
        assert tree.npoints[tree.is_leaf].max() <= 8
        assert tree.npoints[tree.is_leaf].sum() == 100

    def test_height_grows_logarithmically(self, codec, rng):
        small, _ = make_tree(codec, rng, n=10, leaf_capacity=4, fanout=4)
        big, _ = make_tree(codec, rng, n=600, leaf_capacity=4, fanout=4)
        assert big.height() > small.height()
        assert big.height() <= 7

    def test_custom_ids_preserved(self, codec):
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        tree = build_zbtree(codec, pts, ids=[42, 7])
        assert set(tree.ids().tolist()) == {42, 7}

    def test_rejects_mismatched_ids(self, codec):
        with pytest.raises(ZOrderError):
            build_zbtree(codec, np.zeros((2, 3)), ids=[1])

    def test_rejects_bad_fanout(self, codec):
        with pytest.raises(ZOrderError):
            build_zbtree(codec, np.zeros((2, 3)), fanout=1)

    def test_rejects_1d_points(self, codec):
        with pytest.raises(ZOrderError):
            build_zbtree(codec, np.zeros(3))

    def test_unsorted_zaddresses_accepted(self, codec):
        pts = np.array([[5.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
        zs = codec.encode_grid(pts.astype(np.int64))
        tree = build_zbtree(codec, pts, zaddresses=zs)
        tree.validate()


class TestGridInput:
    def test_non_integral_points_are_rejected(self):
        # truncating them would encode 1.7 as cell 1, so Z-search would
        # keep both rows although (1.2, 1.2) dominates (1.7, 1.7)
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        pts = np.array([[1.7, 1.7], [1.2, 1.2]])
        with pytest.raises(ZOrderError, match="integers"):
            build_zbtree(codec, pts)
        zs = codec.encode_grid_batch(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ZOrderError, match="integers"):
            build_zbtree(codec, pts, zaddresses=zs)
        with pytest.raises(ZOrderError):
            build_zbtree(codec, np.array([[np.nan, 1.0]]))

    def test_integral_floats_still_build(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        tree = build_zbtree(codec, np.array([[2.0, 2.0], [1.0, 1.0]]))
        tree.validate()
        assert zsearch(tree)[1].tolist() == [1]

    @pytest.mark.parametrize(
        "bits,dtype",
        [(12, np.uint16), (16, np.uint16), (17, np.uint32), (32, np.uint32)],
    )
    def test_grid_columns_stored_once(self, rng, bits, dtype):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=bits)
        pts = rng.integers(0, 1 << bits, (90, 3)).astype(float)
        pts[:3] = (1 << bits) - 1  # the top of the grid, exact in the sums
        pts[3] = [0.0, 0.0, (1 << bits) - 1]
        tree = build_zbtree(codec, pts, leaf_capacity=4, fanout=3)
        skyline = [
            i for i, p in enumerate(pts) if not any(dominates(q, p) for q in pts)
        ]
        assert sorted(zsearch(tree)[1].tolist()) == skyline
        for grid, rows in (
            (tree.grid_points, tree.leaf_points),
            (tree.grid_min, tree.minpt),
            (tree.grid_max, tree.maxpt),
        ):
            assert grid.cols.dtype == dtype
            assert np.array_equal(np.asarray(grid), rows)
            assert np.array_equal(grid.sums, rows.sum(axis=1))
        tree.remove_dominated_by(np.full(3, float(1 << (bits - 1))))
        tree.validate()

    def test_validate_catches_stale_grid_columns(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=50)
        tree.validate()
        good = tree.grid_points
        cols = good.cols.copy()
        cols[0, 0] += 1
        for stale in (GridRows(cols, good.sums), GridRows(good.cols, good.sums + 1)):
            tree.grid_points = stale
            with pytest.raises(ZOrderError, match="grid columns"):
                tree.validate()
        tree.grid_min = GridRows(tree.grid_min.cols.astype(np.uint32), tree.grid_min.sums)
        tree.grid_points = good
        with pytest.raises(ZOrderError, match="grid columns"):
            tree.validate()

    @pytest.mark.parametrize(
        "bits,sums", [(12, np.uint32), (16, np.uint32), (17, np.uint64), (32, np.uint64)]
    )
    def test_sums_are_integers_twice_the_column_width(self, rng, bits, sums):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=bits)
        pts = rng.integers(0, 1 << bits, (40, 3)).astype(float)
        tree = build_zbtree(codec, pts, leaf_capacity=4, fanout=3)
        for grid in (tree.grid_points, tree.grid_min, tree.grid_max):
            assert grid.sums.dtype == sums
        tree.remove_dominated_by(np.full(3, float(1 << (bits - 1))))
        for grid in (tree.grid_points, tree.grid_min, tree.grid_max):
            assert grid.sums.dtype == sums
        tree.validate()

    def test_validate_catches_float_sums(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=50)
        for name in ("grid_points", "grid_min", "grid_max"):
            good = getattr(tree, name)
            # equal values, float dtype: a compare would leave the
            # integer path
            setattr(tree, name, GridRows(good.cols, good.sums.astype(np.float64)))
            with pytest.raises(ZOrderError, match="grid columns"):
                tree.validate()
            setattr(tree, name, good)
        tree.validate()

    def test_non_grid_probes_are_rejected(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=50)
        with pytest.raises(ZOrderError):
            tree.dominated_mask_tree(np.array([[0.5, 1.0, 1.0]]))
        with pytest.raises(ZOrderError):
            tree.remove_dominated_by(np.array([-1.0, 0.0, 0.0]))

    def test_walks_never_take_the_float_path(self, codec, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("float two-comparison path used")

        monkeypatch.setattr(point_module, "dominance_blocks", refuse)
        pts = rng.integers(0, 16, (300, 3)).astype(float)
        skyline = [
            i for i, p in enumerate(pts) if not any(dominates(q, p) for q in pts)
        ]
        tree = build_zbtree(codec, pts, leaf_capacity=4, fanout=3)
        assert sorted(zsearch(tree)[1].tolist()) == skyline
        parts = [
            zsearch(build_zbtree(codec, pts[i::3], ids=np.arange(i, 300, 3)))
            for i in range(3)
        ]
        trees = [build_zbtree(codec, p, ids=ids) for p, ids in parts]
        assert sorted(zmerge_all(trees).ids().tolist()) == skyline
        probes = rng.integers(0, 16, (40, 3)).astype(float)
        expected = [any(dominates(q, p) for q in pts) for p in probes]
        assert tree.dominated_mask_tree(probes).tolist() == expected
        assert tree.remove_dominated_by_block(probes[:4]) == sum(
            any(dominates(q, p) for q in probes[:4]) for p in pts
        )


class TestIsDominated:
    def test_matches_brute_force(self, codec, rng):
        tree, points = make_tree(codec, rng, n=150, top=16)
        probes = rng.integers(0, 16, (50, 3)).astype(float)
        for probe in probes:
            expected = any(dominates(row, probe) for row in points)
            assert tree.is_dominated(probe) == expected

    def test_empty_tree_dominates_nothing(self, codec):
        tree = build_zbtree(codec, np.empty((0, 3)))
        assert not tree.is_dominated(np.zeros(3))

    def test_equal_point_does_not_dominate(self, codec):
        pts = np.array([[3.0, 3.0, 3.0]])
        tree = build_zbtree(codec, pts)
        assert not tree.is_dominated(np.array([3.0, 3.0, 3.0]))
        assert tree.is_dominated(np.array([3.0, 3.0, 4.0]))

    def test_counter_accrues(self, codec, rng):
        tree, _ = make_tree(codec, rng)
        counter = OpCounter()
        tree.is_dominated(np.full(3, 63.0), counter)
        assert counter.total() > 0


class TestRemoveDominatedBy:
    def test_matches_brute_force(self, codec, rng):
        for trial in range(5):
            tree, points = make_tree(codec, rng, n=120, top=16)
            pivot = rng.integers(0, 16, 3).astype(float)
            expected_removed = sum(
                1 for row in points if dominates(pivot, row)
            )
            removed = tree.remove_dominated_by(pivot)
            assert removed == expected_removed
            assert tree.size == 120 - expected_removed
            # No survivor is dominated by the pivot.
            for row in tree.points():
                assert not dominates(pivot, row)

    def test_remove_everything(self, codec):
        pts = np.full((10, 3), 9.0)
        tree = build_zbtree(codec, pts)
        removed = tree.remove_dominated_by(np.zeros(3))
        assert removed == 10
        assert tree.is_empty

    def test_remove_nothing_from_empty(self, codec):
        tree = build_zbtree(codec, np.empty((0, 3)))
        assert tree.remove_dominated_by(np.zeros(3)) == 0

    def test_repeated_removals_consistent(self, codec, rng):
        tree, points = make_tree(codec, rng, n=200, top=8)
        pivots = rng.integers(0, 8, (10, 3)).astype(float)
        survivors = list(map(tuple, points))
        for pivot in pivots:
            tree.remove_dominated_by(pivot)
            survivors = [
                s for s in survivors if not dominates(pivot, np.array(s))
            ]
        assert sorted(map(tuple, tree.points())) == sorted(survivors)

    def test_rebuild_after_removals_rebalances(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=300, top=8)
        tree.remove_dominated_by(np.array([1.0, 1.0, 1.0]))
        rebuilt = rebuild(tree)
        rebuilt.validate()
        assert rebuilt.size == tree.size
        assert sorted(map(tuple, rebuilt.points())) == sorted(
            map(tuple, tree.points())
        )

    def test_rebuild_reuses_stored_columns_exactly(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=300, top=8)
        tree.remove_dominated_by(np.array([1.0, 1.0, 1.0]))
        reused = rebuild(tree)
        fresh = build_zbtree(codec, tree.leaf_points, ids=tree.leaf_ids)
        for name in ("grid_points", "grid_min", "grid_max"):
            a, b = getattr(reused, name), getattr(fresh, name)
            assert a.cols.dtype == b.cols.dtype
            np.testing.assert_array_equal(a.cols, b.cols)
            np.testing.assert_array_equal(a.sums, b.sums)


class TestBatchedQueries:
    def test_dominated_mask_tree_matches_single(self, codec, rng):
        tree, points = make_tree(codec, rng, n=150, top=16)
        probes = rng.integers(0, 16, (60, 3)).astype(float)
        batched = tree.dominated_mask_tree(probes)
        for i, probe in enumerate(probes):
            assert batched[i] == tree.is_dominated(probe)

    def test_dominated_mask_tree_empty_cases(self, codec):
        empty_tree = build_zbtree(codec, np.empty((0, 3)))
        assert not empty_tree.dominated_mask_tree(np.ones((3, 3))).any()
        full_tree = build_zbtree(codec, np.zeros((1, 3)))
        assert full_tree.dominated_mask_tree(np.empty((0, 3))).size == 0

    def test_remove_block_matches_sequential(self, codec, rng):
        pts = rng.integers(0, 16, (200, 3)).astype(float)
        pivots = rng.integers(0, 16, (8, 3)).astype(float)
        t_batch = build_zbtree(codec, pts)
        t_seq = build_zbtree(codec, pts)
        removed_batch = t_batch.remove_dominated_by_block(pivots)
        removed_seq = sum(
            t_seq.remove_dominated_by(pivot) for pivot in pivots
        )
        assert removed_batch == removed_seq
        assert sorted(map(tuple, t_batch.points())) == sorted(
            map(tuple, t_seq.points())
        )

    def test_remove_block_empty_block(self, codec, rng):
        tree, _ = make_tree(codec, rng, n=50)
        assert tree.remove_dominated_by_block(np.empty((0, 3))) == 0
        assert tree.size == 50


class TestRangeQuery:
    def test_matches_bruteforce(self, codec, rng):
        tree, points = make_tree(codec, rng, n=300, top=32)
        for _ in range(10):
            lo = rng.integers(0, 24, 3).astype(float)
            hi = lo + rng.integers(0, 10, 3)
            expected = np.flatnonzero(
                np.all((lo <= points) & (points <= hi), axis=1)
            )
            got = tree.range_query(lo, hi)
            assert got.tolist() == expected.tolist()

    def test_empty_tree(self, codec):
        tree = build_zbtree(codec, np.empty((0, 3)))
        assert tree.range_query(np.zeros(3), np.ones(3)).size == 0

    def test_full_box_returns_everything(self, codec, rng):
        tree, points = make_tree(codec, rng, n=100)
        got = tree.range_query(np.zeros(3), np.full(3, 63.0))
        assert got.size == 100


class TestOpCounter:
    def test_merge_and_total(self):
        a = OpCounter(point_tests=3, region_tests=2, nodes_visited=1)
        b = OpCounter(point_tests=10)
        a.merge(b)
        assert a.point_tests == 13
        assert a.total() == 16

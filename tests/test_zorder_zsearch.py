"""Unit tests for Z-search."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.skyline import is_skyline_of
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, build_zbtree, rebuild
from repro.zorder.zsearch import zsearch, zsearch_dataset, zsearch_mask


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

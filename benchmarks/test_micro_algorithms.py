"""Micro-benchmarks of the building blocks (wall-clock, multi-round):
centralized skyline algorithms, ZB-tree construction, Z-merge vs
re-running Z-search when folding candidate sets.
"""

import numpy as np
import pytest

from repro.algorithms.bnl import bnl_skyline
from repro.algorithms.sfs import sort_based_skyline
from repro.algorithms.zs import zs_skyline
from repro.data.synthetic import anticorrelated, independent
from repro.zorder.encoding import quantize_dataset
from repro.zorder.zbtree import build_zbtree
from repro.zorder.zmerge import zmerge_all
from repro.zorder.zsearch import zsearch


@pytest.fixture(scope="module")
def indep_grid(scale):
    ds = independent(scale.size(10), 5, seed=1)
    snapped, codec = quantize_dataset(ds, bits_per_dim=12)
    return snapped, codec


@pytest.fixture(scope="module")
def anti_grid(scale):
    ds = anticorrelated(scale.size(10), 5, seed=1)
    snapped, codec = quantize_dataset(ds, bits_per_dim=12)
    return snapped, codec


class TestCentralizedAlgorithms:
    def test_bnl(self, benchmark, indep_grid):
        snapped, _ = indep_grid
        benchmark(lambda: bnl_skyline(snapped.points, snapped.ids, None))

    def test_sort_based(self, benchmark, indep_grid):
        snapped, _ = indep_grid
        benchmark(
            lambda: sort_based_skyline(snapped.points, snapped.ids, None)
        )

    def test_zsearch(self, benchmark, indep_grid):
        snapped, codec = indep_grid
        benchmark(
            lambda: zs_skyline(snapped.points, snapped.ids, None, codec)
        )

    def test_zsearch_anticorrelated(self, benchmark, anti_grid):
        snapped, codec = anti_grid
        benchmark(
            lambda: zs_skyline(snapped.points, snapped.ids, None, codec)
        )


class TestTreeOperations:
    def test_zbtree_build(self, benchmark, indep_grid):
        snapped, codec = indep_grid
        benchmark(lambda: build_zbtree(codec, snapped.points, ids=snapped.ids))

    def test_zmerge_fold(self, benchmark, anti_grid):
        snapped, codec = anti_grid
        chunks = np.array_split(np.arange(snapped.size), 8)
        trees = []
        for chunk in chunks:
            pts = snapped.points[chunk]
            tree = build_zbtree(codec, pts, ids=snapped.ids[chunk])
            sky, ids = zsearch(tree)
            trees.append(build_zbtree(codec, sky, ids=ids))

        # zmerge_all never mutates its inputs, so every round folds the
        # same trees.
        result = benchmark(zmerge_all, trees)
        assert result.size > 0

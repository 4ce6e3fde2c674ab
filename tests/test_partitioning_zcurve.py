"""Unit tests for Z-curve partitioning (Naive-Z) and ZCurveRule."""

import random

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.exceptions import PartitioningError
from repro.partitioning.base import DROPPED, load_imbalance
from repro.partitioning.zcurve import (
    ZCurvePartitioner,
    ZCurveRule,
    equidepth_pivots,
)
from repro.zorder.encoding import ZGridCodec, quantize_dataset


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(3, bits_per_dim=6)


def snapped_uniform(n=3000, d=3, seed=0, bits=6):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.random((n, d)))
    return quantize_dataset(ds, bits_per_dim=bits)


class TestEquidepthPivots:
    def test_splits_evenly(self):
        zs = list(range(100))
        pivots = equidepth_pivots(zs, 4)
        assert pivots == [25, 50, 75]

    def test_duplicate_heavy_input(self):
        zs = [5] * 50 + [9] * 50
        pivots = equidepth_pivots(zs, 4)
        # Only one distinct boundary is possible.
        assert pivots == [9]

    def test_single_part(self):
        assert equidepth_pivots(list(range(10)), 1) == []

    def test_empty_input(self):
        assert equidepth_pivots([], 4) == []

    def test_no_pivot_at_global_minimum(self):
        zs = [3] * 90 + [7] * 10
        pivots = equidepth_pivots(zs, 4)
        assert all(p > 3 for p in pivots)


class TestZCurveRule:
    def test_partition_of_binary_search(self, codec):
        rule = ZCurveRule(codec, [100, 200, 300])
        assert rule.partition_of([0, 99, 100, 250, 99999]).tolist() == [
            0, 0, 1, 2, 3,
        ]

    def test_rejects_unsorted_pivots(self, codec):
        with pytest.raises(PartitioningError):
            ZCurveRule(codec, [200, 100])

    def test_rejects_duplicate_pivots(self, codec):
        with pytest.raises(PartitioningError):
            ZCurveRule(codec, [100, 100])

    def test_zranges_tile_address_space(self, codec):
        rule = ZCurveRule(codec, [100, 200])
        ranges = [rule.zrange(pid) for pid in range(rule.num_partitions)]
        assert ranges[0] == (0, 99)
        assert ranges[1] == (100, 199)
        assert ranges[2] == (200, codec.max_zaddress)

    def test_zrange_out_of_bounds(self, codec):
        rule = ZCurveRule(codec, [100])
        with pytest.raises(PartitioningError):
            rule.zrange(5)

    def test_regions_cover_their_ranges(self, codec):
        rule = ZCurveRule(codec, [1000, 5000])
        for pid in range(rule.num_partitions):
            lo, hi = rule.zrange(pid)
            region = rule.region(pid)
            assert region.contains_zaddress(lo)
            assert region.contains_zaddress(hi)

    @pytest.mark.parametrize("d, bits", [(3, 6), (8, 12)])
    def test_batched_regions_equal_per_partition_regions(self, d, bits):
        # (3, 6) runs on the uint64 fast path, (8, 12) on the wide one
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        draw = random.Random(d)
        top = codec.max_zaddress
        pivots = sorted({draw.randrange(1, top) for _ in range(40)} | {1, top})
        for rule in (ZCurveRule(codec, []), ZCurveRule(codec, pivots)):
            got = rule.regions()
            want = [rule.region(pid) for pid in range(rule.num_partitions)]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a.minz, a.maxz) == (b.minz, b.maxz)
                assert type(a.minz) is type(b.minz) is int
                for x, y in ((a.minpt, b.minpt), (a.maxpt, b.maxpt)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_group_map_identity_by_default(self, codec):
        rule = ZCurveRule(codec, [100])
        assert rule.num_groups == rule.num_partitions == 2
        assert rule.group_map.tolist() == [0, 1]

    def test_group_map_custom(self, codec):
        rule = ZCurveRule(codec, [100, 200], group_map=[1, 0, 1])
        assert rule.num_groups == 2
        gids = rule.assign_groups(
            np.zeros((1, 3)), np.array([0]), zaddresses=[150]
        )
        assert gids.tolist() == [0]

    def test_group_map_dropping(self, codec):
        rule = ZCurveRule(codec, [100], group_map=[0, DROPPED])
        gids = rule.assign_groups(
            np.zeros((2, 3)), np.array([0, 1]), zaddresses=[50, 500]
        )
        assert gids.tolist() == [0, DROPPED]
        assert rule.describe()["dropped_partitions"] == 1

    def test_group_map_wrong_length(self, codec):
        with pytest.raises(PartitioningError):
            ZCurveRule(codec, [100], group_map=[0])

    def test_group_map_all_dropped(self, codec):
        with pytest.raises(PartitioningError):
            ZCurveRule(codec, [100], group_map=[DROPPED, DROPPED])

    def test_assign_computes_z_when_missing(self, codec):
        rule = ZCurveRule(codec, [])
        pts = np.array([[1.0, 2.0, 3.0]])
        gids = rule.assign_groups(pts, np.array([0]))
        assert gids.tolist() == [0]


class TestZCurvePartitioner:
    def test_balances_uniform_data(self):
        snapped, codec = snapped_uniform()
        rule = ZCurvePartitioner().fit(snapped, codec, 16)
        gids = rule.assign_groups(snapped.points, snapped.ids)
        assert rule.num_groups == 16
        assert load_imbalance(gids, 16) < 1.6

    def test_balance_holds_in_high_dimensions(self):
        # The paper's point: Z-curve equi-depth stays balanced when the
        # grid scheme cannot (it works on the 1-D mapped values).
        snapped, codec = snapped_uniform(n=4000, d=10, bits=4)
        rule = ZCurvePartitioner().fit(snapped, codec, 32)
        gids = rule.assign_groups(snapped.points, snapped.ids)
        assert load_imbalance(gids, rule.num_groups) < 2.0

    def test_every_point_assigned_no_drops(self):
        snapped, codec = snapped_uniform()
        rule = ZCurvePartitioner().fit(snapped, codec, 8)
        gids = rule.assign_groups(snapped.points, snapped.ids)
        assert (gids >= 0).all()

"""Unit tests for Z-merge (Algorithm 4)."""

import functools
import pickle

import numpy as np
import pytest

from repro.core.skyline import is_skyline_of
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, build_zbtree
from repro.zorder.zmerge import zmerge, zmerge_all
from repro.zorder.zsearch import zsearch


@pytest.fixture
def codec() -> ZGridCodec:
    return ZGridCodec.grid_identity(3, bits_per_dim=5)


def skyline_tree(codec, points, id_offset=0):
    """Build a dominance-free tree: the skyline of `points`."""
    tree = build_zbtree(
        codec, points, ids=np.arange(len(points)) + id_offset
    )
    sky, ids = zsearch(tree)
    return build_zbtree(codec, sky, ids=ids)


class TestZMergeContract:
    def test_merge_equals_skyline_of_union(self, codec):
        rng = np.random.default_rng(1)
        for trial in range(10):
            a = rng.integers(0, 32, (150, 3)).astype(float)
            b = rng.integers(0, 32, (150, 3)).astype(float)
            ta = skyline_tree(codec, a)
            tb = skyline_tree(codec, b, id_offset=1000)
            merged = zmerge(ta, tb)
            union = np.vstack([a, b])
            assert is_skyline_of(merged.points(), union)

    def test_merge_with_empty_source(self, codec):
        a = np.array([[1.0, 1.0, 1.0]])
        ta = skyline_tree(codec, a)
        tb = build_zbtree(codec, np.empty((0, 3)))
        merged = zmerge(ta, tb)
        assert merged.size == 1

    def test_merge_into_empty_sky(self, codec):
        a = np.array([[1.0, 1.0, 1.0]])
        ta = build_zbtree(codec, np.empty((0, 3)))
        tb = skyline_tree(codec, a)
        merged = zmerge(ta, tb)
        assert merged.size == 1

    def test_source_fully_dominated_is_discarded(self, codec):
        sky = skyline_tree(codec, np.array([[0.0, 0.0, 0.0]]))
        src = skyline_tree(
            codec,
            np.array([[5.0, 5.0, 5.0], [6.0, 7.0, 8.0]]),
            id_offset=10,
        )
        merged = zmerge(sky, src)
        assert merged.size == 1
        assert merged.points().tolist() == [[0.0, 0.0, 0.0]]

    def test_sky_fully_replaced_by_source(self, codec):
        sky = skyline_tree(
            codec, np.array([[5.0, 5.0, 5.0], [7.0, 6.0, 8.0]])
        )
        src = skyline_tree(codec, np.array([[0.0, 0.0, 0.0]]), id_offset=10)
        merged = zmerge(sky, src)
        assert merged.size == 1
        assert merged.points().tolist() == [[0.0, 0.0, 0.0]]

    def test_incomparable_trees_graft(self, codec):
        # Two anti-diagonal clusters: no cross dominance at all.
        a = np.array([[0.0, 31.0, 15.0], [1.0, 30.0, 15.0]])
        b = np.array([[31.0, 0.0, 15.0], [30.0, 1.0, 15.0]])
        ta = skyline_tree(codec, a)
        tb = skyline_tree(codec, b, id_offset=10)
        merged = zmerge(ta, tb)
        assert merged.size == 4

    def test_duplicates_across_trees_survive(self, codec):
        a = np.array([[3.0, 3.0, 3.0]])
        b = np.array([[3.0, 3.0, 3.0]])
        merged = zmerge(
            skyline_tree(codec, a), skyline_tree(codec, b, id_offset=5)
        )
        assert merged.size == 2

    def test_merged_tree_is_valid_and_balanced(self, codec):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 32, (200, 3)).astype(float)
        b = rng.integers(0, 32, (200, 3)).astype(float)
        merged = zmerge(
            skyline_tree(codec, a), skyline_tree(codec, b, id_offset=1000)
        )
        merged.validate()

    def test_counter_accrues(self, codec):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 32, (100, 3)).astype(float)
        b = rng.integers(0, 32, (100, 3)).astype(float)
        counter = OpCounter()
        zmerge(
            skyline_tree(codec, a),
            skyline_tree(codec, b, id_offset=1000),
            counter,
        )
        assert counter.total() > 0

    def test_ids_preserved_through_merge(self, codec):
        a = np.array([[0.0, 9.0, 5.0]])
        b = np.array([[9.0, 0.0, 5.0]])
        merged = zmerge(
            build_zbtree(codec, a, ids=[111]),
            build_zbtree(codec, b, ids=[222]),
        )
        assert set(merged.ids().tolist()) == {111, 222}


    def test_merge_leaves_the_skyline_argument_unchanged(self, codec):
        rng = np.random.default_rng(11)
        sky = skyline_tree(codec, rng.integers(8, 32, (200, 3)).astype(float))
        # low source rows: the scan deletes skyline points (UDominate)
        src = skyline_tree(
            codec, rng.integers(0, 12, (40, 3)).astype(float), id_offset=1000
        )
        before = pickle.dumps(sky)
        merged = zmerge(sky, src)
        assert merged.size < sky.size + src.size
        assert pickle.dumps(sky) == before
        sky.validate()


class TestZMergeAll:
    def test_fold_many_trees(self, codec):
        rng = np.random.default_rng(4)
        chunks = [
            rng.integers(0, 32, (80, 3)).astype(float) for _ in range(6)
        ]
        trees = [
            skyline_tree(codec, chunk, id_offset=1000 * i)
            for i, chunk in enumerate(chunks)
        ]
        merged = zmerge_all(trees)
        assert is_skyline_of(merged.points(), np.vstack(chunks))

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValueError):
            zmerge_all([])

    def test_fold_order_does_not_change_result(self, codec):
        rng = np.random.default_rng(5)
        chunks = [
            rng.integers(0, 16, (60, 3)).astype(float) for _ in range(4)
        ]

        def run(order):
            trees = [
                skyline_tree(codec, chunks[i], id_offset=1000 * i)
                for i in order
            ]
            pts = zmerge_all(trees).points()
            return sorted(map(tuple, pts))

        assert run([0, 1, 2, 3]) == run([3, 1, 0, 2])


def _contents(tree):
    """A tree's ids and points, for before/after comparisons."""
    return sorted(tree.ids().tolist()), sorted(map(tuple, tree.points()))


def _arrays(tree):
    """Every table column of a tree (per-depth row lists included)."""
    for value in vars(tree).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, list):
            yield from value


def _shares_memory(tree, others):
    return any(
        np.shares_memory(mine, theirs)
        for mine in _arrays(tree)
        for other in others
        for theirs in _arrays(other)
    )


class TestZMergeAllOwnership:
    """``zmerge_all`` never mutates its inputs and shares no arrays with
    them — the sharded router folds retained per-shard snapshot trees
    on every cache miss, and phase 2 folds its per-reducer trees."""

    def _chunks(self, seed=11, k=4):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 32, (70, 3)).astype(float) for _ in range(k)
        ]

    def test_default_leaves_inputs_intact(self, codec):
        chunks = self._chunks(seed=12)
        trees = [
            skyline_tree(codec, chunk, id_offset=1000 * i)
            for i, chunk in enumerate(chunks)
        ]
        before = [_contents(tree) for tree in trees]
        merged = zmerge_all(trees)
        assert is_skyline_of(merged.points(), np.vstack(chunks))
        assert [_contents(tree) for tree in trees] == before
        assert not _shares_memory(merged, trees)

    def test_double_fold_is_stable(self, codec):
        # The router's exact usage pattern: fold the same retained
        # trees twice (two cache misses over an unchanged shard) and
        # expect byte-identical answers both times, matching the fold
        # over fresh trees.
        chunks = self._chunks(seed=13)

        def fresh():
            return [
                skyline_tree(codec, chunk, id_offset=1000 * i)
                for i, chunk in enumerate(chunks)
            ]

        def canon(tree):
            ids = tree.ids()
            order = np.argsort(ids, kind="stable")
            return ids[order].tolist(), tree.points()[order].tolist()

        retained = fresh()
        first = canon(zmerge_all(retained))
        second = canon(zmerge_all(retained))
        oracle = canon(zmerge_all(fresh()))
        assert first == second == oracle

    def test_single_tree_is_independent_copy(self, codec):
        # A lone tree must still come back as an independent copy —
        # callers are promised the result is theirs to consume.
        tree = skyline_tree(codec, np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
        merged = zmerge_all([tree])
        assert merged is not tree
        assert merged.ids().tolist() == tree.ids().tolist()
        assert not _shares_memory(merged, [tree])
        merged.remove_dominated_by_block(np.array([[0.0, 0.0, 0.0]]))
        assert merged.is_empty
        assert tree.ids().tolist() == [0, 1]

    def test_empty_accumulator_adopts_a_copy(self, codec):
        empty = build_zbtree(codec, np.empty((0, 3)))
        tree = skyline_tree(codec, np.array([[1.0, 2.0, 3.0]]))
        merged = zmerge_all([empty, tree])
        assert merged is not tree
        assert not _shares_memory(merged, [tree])
        assert _contents(merged) == _contents(tree)

    def test_phase2_call_shape(self, codec):
        # Phase 2's Z-merge reducer: trees built on native Z-address
        # batches, folded into the task's counter, then collected.
        chunks = self._chunks(seed=14, k=5)

        def trees():
            out = []
            for i, chunk in enumerate(chunks):
                zs, pts, ids = skyline_tree(
                    codec, chunk, id_offset=1000 * i
                ).collect()
                out.append(
                    build_zbtree(
                        codec, pts, ids=ids, zaddresses=codec.as_zbatch(zs)
                    )
                )
            return out

        inputs = trees()
        before = [_contents(tree) for tree in inputs]
        counter = OpCounter()
        zs, points, ids = zmerge_all(inputs, counter=counter).collect()
        assert is_skyline_of(points, np.vstack(chunks))
        assert np.array_equal(zs, codec.encode_grid_batch(points.astype(np.int64)))
        assert [_contents(tree) for tree in inputs] == before
        reference_counter = OpCounter()
        reference = functools.reduce(
            lambda sky, src: zmerge(sky, src, reference_counter), trees()
        )
        assert ids.tolist() == reference.ids().tolist()
        assert counter == reference_counter

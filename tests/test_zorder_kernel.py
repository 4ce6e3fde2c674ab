"""Tests for the vectorized Z-kernel layer and its batched consumers.

Pins the PR's two central equivalence claims:

* the uint64 **fast path** and the packed-byte **wide path** compute
  identical Z-addresses, region bounds, prefix lengths and sort orders —
  checked against each other (the wide path can be forced onto narrow
  shapes) and against scalar bit-twiddling references;
* the batched leaf screening in Z-search and the ``zmerge_all`` fold
  produce results identical to scalar references and to a plain
  ``functools.reduce`` over ``zmerge`` — including *exact* ``OpCounter``
  totals, which the simulated cost model and trace reconciliation rely
  on;
* the flat ZB-tree walks (Z-search, the batched dominator probe and
  the batched ``UDominate`` deletion) equal node-by-node walks over the
  table's rows (a node's children are the rows whose ``parent`` it is),
  kept below as reference oracles — answers, resulting tree structure
  and every ``OpCounter`` field, on bulk-built, thinned and composite
  trees, and through whole ``run_plan`` jobs — and the batched probe
  charges the dominance tests of one single-probe walk per probe;
* Z-merge's scan equals Alg. 4's literal per-leaf scan built from those
  node-by-node walks (``_walk_zmerge_scan``): grafts, accepted points,
  the thinned skyline tree and every ``OpCounter`` field;
* ``build_zbtree``'s table equals a node-by-node bottom-up build, and
  equal trees pickle byte-identically.

Plus the satellite fixes that ride along: the BNL empty-input shape,
vectorised ``decode_many``/``dominance_counts``, Z-address carry through
:class:`~repro.mapreduce.types.Block` and checkpoints, native-batch
partition routing (byte-key lookup on the wide path), and the
kernel-path metrics wiring.
"""

import bisect
import dataclasses
import functools
import importlib
import pickle
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.zs as zs_module
import repro.core.point as point_module
from repro.algorithms.bnl import bnl_skyline
from repro.core.exceptions import ZOrderError
from repro.core.point import dominance_counts
from repro.data.synthetic import independent
from repro.mapreduce.types import Block
from repro.observability import MetricsRegistry, Tracer
from repro.partitioning.zcurve import ZCurveRule
from repro.pipeline.checkpoint import STAGE_PHASE1, CheckpointStore
from repro.pipeline.driver import run_plan
from repro.zorder.encoding import ZGridCodec
from repro.zorder.kernel import ZKernel
from repro.zorder.rzregion import RZRegion
from repro.zorder.zbtree import OpCounter, ZBTree, build_zbtree
from repro.zorder.zmerge import _zmerge_scan, zmerge, zmerge_all
from repro.zorder.zsearch import zsearch

# the package re-exports the ``zsearch`` and ``zmerge`` functions under
# their modules' names
zsearch_module = importlib.import_module("repro.zorder.zsearch")
zmerge_module = importlib.import_module("repro.zorder.zmerge")


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def _scalar_interleave(row, bits_per_dim):
    """The documented level-major, dimension-minor bit layout, one bit
    at a time — the oracle both kernel paths must reproduce."""
    z = 0
    for level in range(bits_per_dim - 1, -1, -1):
        for value in row:
            z = (z << 1) | ((int(value) >> level) & 1)
    return z


def _forced_wide(dimensions, bits_per_dim):
    """A kernel driven down the packed-byte wide path on a shape that
    would normally qualify for the uint64 fast path, so both code paths
    can be compared on identical inputs."""
    kernel = ZKernel(dimensions, bits_per_dim)
    assert kernel.fast_path, "force-wide only makes sense on narrow shapes"
    kernel.fast_path = False
    return kernel


def _dominated_by_any(points, dominators):
    """Broadcast dominance screen, independent of the pairwise kernel:
    entry ``i`` says whether some row of ``dominators`` dominates
    ``points[i]``."""
    points = np.asarray(points, dtype=np.float64)
    dominators = np.asarray(dominators, dtype=np.float64)
    if points.shape[0] == 0 or dominators.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    le = np.all(dominators[None, :, :] <= points[:, None, :], axis=2)
    lt = np.any(dominators[None, :, :] < points[:, None, :], axis=2)
    return (le & lt).any(axis=1)


class _SkylineBuffer:
    """The growing buffer of the node-by-node Z-search walk."""

    def __init__(self, dimensions):
        self.points = np.empty((0, dimensions))
        self.ids = np.empty(0, dtype=np.int64)

    @property
    def size(self):
        return self.points.shape[0]

    def append(self, point, point_id):
        self.points = np.vstack([self.points, point[None, :]])
        self.ids = np.append(self.ids, np.int64(point_id))

    def dominates(self, point, counter):
        if self.size == 0:
            return False
        counter.point_tests += self.size
        return bool(_dominated_by_any(point[None, :], self.points)[0])


def _children(tree, row):
    """A node's children: the rows whose parent it is, in row order."""
    return np.flatnonzero(tree.parent == row).tolist()


def _leaf_block(tree, row):
    """A leaf's ``(points, ids, zaddresses)``."""
    rows = slice(tree.pstart[row], tree.pstart[row] + tree.npoints[row])
    return tree.leaf_points[rows], tree.leaf_ids[rows], tree.leaf_z[rows]


def _buffer_dominates_region(buffer, tree, row, counter):
    """True when some buffered point dominates the whole node region."""
    if buffer.size == 0:
        return False
    counter.point_tests += buffer.size
    return bool(_dominated_by_any(tree.minpt[row][None, :], buffer.points)[0])


def _scalar_zsearch(tree, counter):
    """The pre-batching Z-search leaf scan: one buffer probe per point,
    in Z-order.  Counter semantics are the accounting contract the
    flat implementation must reproduce exactly."""
    d = tree.codec.dimensions
    buffer = _SkylineBuffer(d)
    if tree.is_empty:
        return np.empty((0, d)), np.empty(0, dtype=np.int64)
    stack = [0]
    while stack:
        row = stack.pop()
        counter.nodes_visited += 1
        counter.region_tests += 1
        if _buffer_dominates_region(buffer, tree, row, counter):
            continue
        if tree.is_leaf[row]:
            points, ids, _ = _leaf_block(tree, row)
            for i in range(points.shape[0]):
                if buffer.dominates(points[i], counter):
                    continue
                buffer.append(points[i], int(ids[i]))
        else:
            stack.extend(reversed(_children(tree, row)))
    return buffer.points.copy(), buffer.ids.copy()


def _walk_zsearch(tree, counter=None):
    """The node-by-node Z-search with batched leaf screening: one
    buffer probe per node, one block test per leaf against the buffer
    at leaf entry, then a sequential sweep for points accepted earlier
    in the same leaf."""
    counter = counter if counter is not None else OpCounter()
    d = tree.codec.dimensions
    buffer = _SkylineBuffer(d)
    if tree.is_empty:
        return np.empty((0, d)), np.empty(0, dtype=np.int64)
    stack = [0]
    while stack:
        row = stack.pop()
        counter.nodes_visited += 1
        counter.region_tests += 1
        if _buffer_dominates_region(buffer, tree, row, counter):
            continue
        if not tree.is_leaf[row]:
            stack.extend(reversed(_children(tree, row)))
            continue
        points, ids, _ = _leaf_block(tree, row)
        s0 = buffer.size
        mask0 = _dominated_by_any(points, buffer.points)
        accepted = 0
        for i in range(points.shape[0]):
            counter.point_tests += s0 + accepted
            if mask0[i]:
                continue
            if accepted and _dominated_by_any(
                points[i : i + 1], buffer.points[s0:]
            )[0]:
                continue
            buffer.append(points[i], int(ids[i]))
            accepted += 1
    return buffer.points.copy(), buffer.ids.copy()


def _walk_dominated_mask(tree, points, counter=None):
    """The node-by-node batched dominator probe: a stack walk carrying
    the undecided probes, each node's min corner tested when it pops."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    out = np.zeros(n, dtype=bool)
    if tree.is_empty or n == 0:
        return out
    counter = counter if counter is not None else OpCounter()
    stack = [(0, np.arange(n))]
    while stack:
        row, probe_idx = stack.pop()
        probe_idx = probe_idx[~out[probe_idx]]
        if probe_idx.size == 0:
            continue
        counter.nodes_visited += 1
        counter.region_tests += probe_idx.size
        minpt = tree.minpt[row]
        probe_idx = probe_idx[_dominated_by_any(points[probe_idx], minpt[None, :])]
        if probe_idx.size == 0:
            continue
        if tree.is_leaf[row]:
            leaf_points, _, _ = _leaf_block(tree, row)
            counter.point_tests += probe_idx.size * leaf_points.shape[0]
            hit = _dominated_by_any(points[probe_idx], leaf_points)
            out[probe_idx[hit]] = True
        else:
            stack.extend((kid, probe_idx) for kid in _children(tree, row))
    return out


def _nested(tree, row=0):
    """The subtree at ``row`` as nested lists, node by node: a leaf is
    ``["leaf", minpt, maxpt, points, ids, zaddresses]``, an internal
    node ``["node", minpt, maxpt, [children]]``."""
    corners = (tree.minpt[row], tree.maxpt[row])
    if tree.is_leaf[row]:
        return ["leaf", *corners, *_leaf_block(tree, row)]
    return ["node", *corners, [_nested(tree, kid) for kid in _children(tree, row)]]


def _from_nested(codec, root, leaf_capacity=32, fanout=8):
    """The pre-order table of a nested tree, built node by node."""
    if root is None:
        return ZBTree.empty(codec, leaf_capacity, fanout)
    rows, leaves = [], []

    def points_so_far():
        return sum(leaf[3].shape[0] for leaf in leaves)

    def visit(node, parent, depth):
        row, first = len(rows), points_so_far()
        rows.append([node[1], node[2], parent, depth, None, first, None])
        if node[0] == "leaf":
            leaves.append(node)
        else:
            for child in node[3]:
                visit(child, row, depth + 1)
        rows[row][4] = len(rows)                     # subtree end row
        rows[row][6] = points_so_far() - first       # subtree point count

    visit(root, -1, 0)
    minpt, maxpt, *counts = zip(*rows)
    d = codec.dimensions

    def corners(values):
        return np.array(values, dtype=np.float64).reshape(-1, d)

    return ZBTree(
        codec,
        np.concatenate([leaf[5] for leaf in leaves]),
        corners(np.concatenate([leaf[3] for leaf in leaves])),
        np.concatenate([leaf[4] for leaf in leaves]).astype(np.int64),
        corners(minpt), corners(maxpt),
        *(np.array(values, dtype=np.int64) for values in counts),
        leaf_capacity, fanout,
    )


def _walk_remove_block(tree, block, counter=None):
    """The recursive batched ``UDominate`` deletion, node by node on the
    nested form of the tree; the tree then takes the surviving table."""
    block = np.asarray(block, dtype=np.float64)
    if tree.is_empty or block.shape[0] == 0:
        return 0
    counter = counter if counter is not None else OpCounter()
    removed, root = _remove_block_rec(_nested(tree), block, counter)
    survivor = _from_nested(tree.codec, root, tree.leaf_capacity, tree.fanout)
    vars(tree).update(vars(survivor))
    return removed


def _node_size(node):
    if node[0] == "leaf":
        return node[3].shape[0]
    return sum(_node_size(child) for child in node[3])


def _remove_block_rec(node, block, counter):
    counter.nodes_visited += 1
    counter.region_tests += block.shape[0]
    feasible = np.all(block <= node[2], axis=1)
    if not feasible.any():
        return 0, node
    sub = block[feasible]
    counter.region_tests += sub.shape[0]
    if _dominated_by_any(node[1][None, :], sub)[0]:
        return _node_size(node), None
    if node[0] == "leaf":
        points, ids, zs = node[3:]
        counter.point_tests += points.shape[0] * sub.shape[0]
        dominated = _dominated_by_any(points, sub)
        n_removed = int(dominated.sum())
        if n_removed == 0:
            return 0, node
        if n_removed == points.shape[0]:
            return n_removed, None
        keep = ~dominated
        return n_removed, ["leaf", node[1], node[2], points[keep], ids[keep], zs[keep]]
    total = 0
    new_children = []
    for child in node[3]:
        n_removed, new_child = _remove_block_rec(child, sub, counter)
        total += n_removed
        if new_child is not None:
            new_children.append(new_child)
    if not new_children:
        return total, None
    return total, ["node", node[1], node[2], new_children]


def _walk_zmerge_scan(sky, src, counter):
    """Alg. 4's Z-merge scan, one source node and one leaf at a time.

    The BFS of ``src`` against ``sky``: each frontier pays one visit and
    two region tests per node plus one min-corner probe walk of ``sky``;
    then, in visit order, a node is discarded (a skyline point dominates
    its min corner), grafted (Lemma 1: incomparable with the skyline
    root's region, or the skyline is already empty) or, at a leaf,
    decided by a probe walk of its points against the skyline *as it
    stands*, followed by a ``UDominate`` walk of its accepted points
    that deletes what they dominate.  Node-by-node walks throughout
    (:func:`_walk_dominated_mask`, :func:`_walk_remove_block`); returns
    ``_zmerge_scan``'s grafted rows and accepted point offsets.
    """
    grafts, accepted = [], [np.empty(0, dtype=np.int64)]
    frontier = [0]
    while frontier:
        counter.nodes_visited += len(frontier)
        if sky.is_empty:
            grafts.extend(frontier)
            break
        counter.region_tests += len(frontier)
        dominated = _walk_dominated_mask(sky, src.minpt[frontier], counter)
        counter.region_tests += len(frontier)
        children = []
        for pos, row in enumerate(frontier):
            if sky.is_empty:
                grafts.append(row)
                continue
            if dominated[pos]:
                continue
            root_min, root_max = sky.minpt[0][None, :], sky.maxpt[0][None, :]
            if not (
                _dominated_by_any(src.maxpt[row][None, :], root_min)[0]
                or _dominated_by_any(root_max, src.minpt[row][None, :])[0]
            ):
                grafts.append(row)
                continue
            if not src.is_leaf[row]:
                children.extend(_children(src, row))
                continue
            block, _, _ = _leaf_block(src, row)
            hit = _walk_dominated_mask(sky, block, counter)
            if not hit.all():
                keep = np.flatnonzero(~hit)
                accepted.append(keep + src.pstart[row])
                _walk_remove_block(sky, block[keep], counter)
        frontier = children
    return np.array(grafts, dtype=np.int64), np.concatenate(accepted)


def _shape(tree):
    """Full structural signature of a tree, node by node: corners, child
    order, and each leaf's points, ids and Z-addresses."""
    if tree.is_empty:
        return None

    def sig(node):
        corners = (tuple(node[1].tolist()), tuple(node[2].tolist()))
        if node[0] == "leaf":
            return (
                "leaf",
                corners,
                tuple(node[4].tolist()),
                tuple(tree.codec.kernel.to_int_list(node[5])),
                tuple(map(tuple, node[3].tolist())),
            )
        return ("node", corners, tuple(sig(child) for child in node[3]))

    return sig(_nested(tree))


def _counts(counter):
    return (counter.point_tests, counter.region_tests, counter.nodes_visited)


@contextmanager
def _chunking(budget, scan_chunk):
    """Shrink the kernel's pair budget and Z-search's scan chunk, so the
    flat walks cross chunk boundaries on small trees."""
    with mock.patch.object(point_module, "PAIR_BUDGET", budget), mock.patch.object(
        zsearch_module, "_SCAN_CHUNK", scan_chunk
    ):
        yield


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def shape_and_grid(draw, narrow, max_points=48):
    """A ``(d, bits_per_dim)`` shape plus a random grid batch.

    ``narrow=True`` keeps ``d * bits <= 64`` (fast-path eligible);
    ``narrow=False`` forces ``> 64`` (wide path, multi-byte rows).
    """
    if narrow:
        d = draw(st.integers(min_value=1, max_value=8))
        bits = draw(st.integers(min_value=1, max_value=min(32, 64 // d)))
    else:
        d = draw(st.integers(min_value=5, max_value=10))
        bits = draw(st.integers(min_value=64 // d + 1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=max_points))
    cells = 1 << bits
    grid = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=cells - 1),
                min_size=d,
                max_size=d,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return d, bits, np.asarray(grid, dtype=np.int64)


@st.composite
def shape_and_parts(draw, max_parts=4, max_points=24):
    """One narrow shape plus several independent grid batches on it."""
    d = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.integers(min_value=1, max_value=min(32, 64 // d)))
    cells = 1 << bits
    count = draw(st.integers(min_value=2, max_value=max_parts))
    parts = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=max_points))
        grid = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=cells - 1),
                    min_size=d,
                    max_size=d,
                ),
                min_size=n,
                max_size=n,
            )
        )
        parts.append(np.asarray(grid, dtype=np.int64))
    return d, bits, parts


@st.composite
def walk_case(draw):
    """A tree recipe for the flat-vs-reference walk properties.

    Covers both kernel paths (``d * bits`` up to and past 64), coarse
    grids and repeated rows (duplicate points), small leaves and
    fanouts (deep trees), three tree kinds — ``bulk`` (built),
    ``thinned`` (after reference UDominate deletions, so regions are
    stale) and ``composite`` (un-rebuilt Z-merge folds) — and kernel
    chunk sizes small enough to split every pass.
    """
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=8))
        bits = draw(st.integers(min_value=1, max_value=min(8, 64 // d)))
    else:
        d = draw(st.integers(min_value=5, max_value=10))
        bits = draw(st.integers(min_value=64 // d + 1, max_value=16))
    return {
        "d": d,
        "bits": bits,
        "n": draw(st.integers(min_value=1, max_value=70)),
        "cells": 1 << draw(st.integers(min_value=1, max_value=bits)),
        "dups": draw(st.integers(min_value=0, max_value=12)),
        "leaf_capacity": draw(st.integers(min_value=2, max_value=6)),
        "fanout": draw(st.integers(min_value=2, max_value=4)),
        "kind": draw(st.sampled_from(["bulk", "thinned", "composite"])),
        "budget": draw(st.sampled_from([1, 5, 64, 1 << 18])),
        "scan_chunk": draw(st.sampled_from([1, 3, 16, 512])),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@st.composite
def zmerge_case(draw):
    """A Z-merge scan recipe: a skyline tree and a source tree, each
    dominance-free (the scan's contract).

    Covers both kernel paths, coarse grids with duplicate points
    (within a tree and shared between the two), ``leaf_capacity`` 2-4
    and ``fanout`` 2-3 (deep sources, many leaves per frontier),
    single-leaf sources, skylines thinned by earlier deletions (stale
    regions), and ``low`` sources drawn below a skyline held in the
    grid's upper half, whose first leaves can delete every skyline
    point mid-frontier.  Kernel chunk sizes split every pass.
    """
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=6))
        bits = draw(st.integers(min_value=1, max_value=min(8, 64 // d)))
    else:
        d = draw(st.integers(min_value=5, max_value=10))
        bits = draw(st.integers(min_value=64 // d + 1, max_value=16))
    return {
        "d": d,
        "bits": bits,
        "cells": 1 << draw(st.integers(min_value=1, max_value=bits)),
        "sky_n": draw(st.integers(min_value=1, max_value=60)),
        "src_n": draw(st.integers(min_value=1, max_value=60)),
        "dups": draw(st.integers(min_value=0, max_value=8)),
        "leaf_capacity": draw(st.integers(min_value=2, max_value=4)),
        "fanout": draw(st.integers(min_value=2, max_value=3)),
        "low": draw(st.booleans()),
        "thinned": draw(st.booleans()),
        "budget": draw(st.sampled_from([1, 5, 64, 1 << 18])),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


def _zmerge_trees(case):
    """The case's ``(sky, src)`` trees; deterministic, so two calls give
    identical, independent trees."""
    codec = ZGridCodec.grid_identity(case["d"], bits_per_dim=case["bits"])
    shape = {"leaf_capacity": case["leaf_capacity"], "fanout": case["fanout"]}
    rng = np.random.default_rng([case["seed"], 8])
    cells, d = case["cells"], case["d"]
    floor = cells // 2 if case["low"] else 0
    sky = rng.integers(floor, cells, (case["sky_n"], d)).astype(float)
    src = rng.integers(0, cells, (case["src_n"], d)).astype(float)
    # repeated rows within each side, and skyline rows the source shares
    sky = np.vstack([sky, sky[rng.integers(0, sky.shape[0], case["dups"])]])
    src = np.vstack([
        src,
        src[rng.integers(0, src.shape[0], case["dups"])],
        sky[rng.integers(0, sky.shape[0], case["dups"] // 2)],
    ])
    trees = []
    for offset, pts in ((0, sky), (1000, src)):
        ids = np.arange(offset, offset + pts.shape[0], dtype=np.int64)
        trees.append(build_zbtree(codec, *bnl_skyline(pts, ids), **shape))
    if case["thinned"]:
        _walk_remove_block(trees[0], rng.integers(0, cells, (2, d)) + floor + 1.0)
    return tuple(trees)


def _case_grid(case, salt, n=None):
    rng = np.random.default_rng([case["seed"], salt])
    rows = case["n"] if n is None else n
    return rng.integers(0, case["cells"], size=(rows, case["d"])).astype(float)


def _composite(sky, src, grafts, accepted):
    """An un-rebuilt Z-merge fold: a root over the surviving skyline
    root, the grafted source subtrees and one (possibly oversized) leaf
    of accepted points.  Children are out of Z-order, heights differ and
    the root region is a conservative span of its children's — the
    stale, non-nested regions the flat walks must handle."""
    codec = sky.codec
    children = [] if sky.is_empty else [_nested(sky)]
    children.extend(_nested(src, row) for row in grafts.tolist())
    if accepted.size:
        zs = codec.kernel.to_int_list(src.leaf_z[accepted])
        region = RZRegion(codec, min(zs), max(zs))
        children.append([
            "leaf", region.minpt.astype(float), region.maxpt.astype(float),
            src.leaf_points[accepted], src.leaf_ids[accepted], src.leaf_z[accepted],
        ])
    if len(children) > 1:
        # a child's min/max corner encodes to its region's min/max address
        minz = min(codec.encode_grid(child[1][None, :].astype(np.int64))[0] for child in children)
        maxz = max(codec.encode_grid(child[2][None, :].astype(np.int64))[0] for child in children)
        region = RZRegion(codec, minz, maxz)
        root = ["node", region.minpt.astype(float), region.maxpt.astype(float), children]
    else:
        root = children[0] if children else None
    return _from_nested(codec, root, sky.leaf_capacity, sky.fanout)


def _case_tree(case):
    """Build the case's tree; deterministic, so two calls give two
    identical, independent trees."""
    codec = ZGridCodec.grid_identity(case["d"], bits_per_dim=case["bits"])
    shape = {"leaf_capacity": case["leaf_capacity"], "fanout": case["fanout"]}
    pts = _case_grid(case, 0)
    rng = np.random.default_rng([case["seed"], 1])
    pts = np.vstack([pts, pts[rng.integers(0, pts.shape[0], case["dups"])]])
    ids = np.arange(pts.shape[0], dtype=np.int64)
    if case["kind"] != "composite":
        tree = build_zbtree(codec, pts, ids=ids, **shape)
        if case["kind"] == "thinned":
            for salt in (2, 3):
                _walk_remove_block(tree, _case_grid(case, salt, n=2) + 1)
        return tree
    labels = rng.integers(0, 3, pts.shape[0])
    trees = []
    for part in range(3):
        rows = labels == part
        if rows.any():
            sky_pts, sky_ids = bnl_skyline(pts[rows], ids[rows])
            trees.append(build_zbtree(codec, sky_pts, ids=sky_ids, **shape))
    tree = trees[0]
    for other in trees[1:]:
        tree = _composite(tree, other, *_zmerge_scan(tree, other, OpCounter()))
    return tree


def _node_corners(tree):
    """Every node's min corner (the probes Z-merge's frontier sends)."""
    out = []
    stack = [] if tree.is_empty else [0]
    while stack:
        row = stack.pop()
        out.append(tree.minpt[row])
        stack.extend(_children(tree, row))
    return np.array(out).reshape(-1, tree.codec.dimensions)


class TestKernelPathsAgree:
    @given(shape_and_grid(narrow=True))
    @settings(max_examples=120, deadline=None)
    def test_fast_path_matches_scalar_reference(self, sg):
        d, bits, grid = sg
        kernel = ZKernel(d, bits)
        assert kernel.fast_path
        zbatch = kernel.interleave(grid)
        expected = [_scalar_interleave(row, bits) for row in grid]
        assert kernel.to_int_list(zbatch) == expected
        assert np.array_equal(
            kernel.deinterleave(zbatch).astype(np.int64), grid
        )

    @given(shape_and_grid(narrow=False, max_points=24))
    @settings(max_examples=60, deadline=None)
    def test_wide_path_matches_scalar_reference(self, sg):
        d, bits, grid = sg
        kernel = ZKernel(d, bits)
        assert not kernel.fast_path
        zbatch = kernel.interleave(grid)
        expected = [_scalar_interleave(row, bits) for row in grid]
        assert kernel.to_int_list(zbatch) == expected
        assert np.array_equal(
            kernel.deinterleave(zbatch).astype(np.int64), grid
        )

    @given(shape_and_grid(narrow=True))
    @settings(max_examples=120, deadline=None)
    def test_forced_wide_agrees_with_fast(self, sg):
        d, bits, grid = sg
        fast = ZKernel(d, bits)
        wide = _forced_wide(d, bits)
        zf = fast.interleave(grid)
        zw = wide.interleave(grid)
        ints = fast.to_int_list(zf)
        assert wide.to_int_list(zw) == ints
        # Stable sort permutations must match element-for-element, so
        # duplicate Z-addresses keep input order on both paths.
        assert np.array_equal(fast.argsort(zf), wide.argsort(zw))
        # Pairwise region bounds and prefix lengths.
        if grid.shape[0] >= 2:
            af, bf = zf[:-1], zf[1:]
            aw, bw = zw[:-1], zw[1:]
            min_f, max_f = fast.region_bounds(af, bf)
            min_w, max_w = wide.region_bounds(aw, bw)
            assert fast.to_int_list(min_f) == wide.to_int_list(min_w)
            assert fast.to_int_list(max_f) == wide.to_int_list(max_w)
            assert np.array_equal(
                fast.common_prefix_lengths(af, bf),
                wide.common_prefix_lengths(aw, bw),
            )
        # Int round-trip through the boundary converters.
        assert wide.to_int_list(wide.from_ints(ints)) == ints

    @given(shape_and_grid(narrow=False, max_points=24))
    @settings(max_examples=60, deadline=None)
    def test_batched_region_ops_match_scalar_codec(self, sg):
        d, bits, grid = sg
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        kernel = codec.kernel
        zbatch = codec.encode_grid_batch(grid)
        ints = kernel.to_int_list(zbatch)
        if len(ints) < 2:
            return
        alpha, beta = zbatch[:-1], zbatch[1:]
        min_b, max_b = kernel.region_bounds(alpha, beta)
        prefixes = kernel.common_prefix_lengths(alpha, beta)
        for i, (a, b) in enumerate(zip(ints[:-1], ints[1:])):
            lo, hi = codec.region_bounds(min(a, b), max(a, b))
            assert kernel.to_int_list(min_b[i:i + 1]) == [lo]
            assert kernel.to_int_list(max_b[i:i + 1]) == [hi]
            assert prefixes[i] == codec.common_prefix_length(a, b)

    def test_from_ints_rejects_out_of_range(self):
        fast = ZKernel(2, 4)
        with pytest.raises(ZOrderError):
            fast.from_ints([1 << 70])
        wide = ZKernel(6, 12)
        with pytest.raises(ZOrderError):
            wide.from_ints([1 << wide.total_bits])


class TestBatchedTreeOpsEquivalence:
    @given(shape_and_grid(narrow=True, max_points=64))
    @settings(max_examples=60, deadline=None)
    def test_zsearch_matches_scalar_reference_with_exact_counters(self, sg):
        d, bits, grid = sg
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        tree = build_zbtree(
            codec, grid.astype(float), leaf_capacity=4, fanout=3
        )
        batched_counter = OpCounter()
        pts_b, ids_b = zsearch(tree, counter=batched_counter)
        scalar_counter = OpCounter()
        pts_s, ids_s = _scalar_zsearch(tree, scalar_counter)
        assert np.array_equal(pts_b, pts_s)
        assert np.array_equal(ids_b, ids_s)
        assert batched_counter.point_tests == scalar_counter.point_tests
        assert batched_counter.region_tests == scalar_counter.region_tests
        assert batched_counter.nodes_visited == scalar_counter.nodes_visited

    @given(shape_and_parts())
    @settings(max_examples=40, deadline=None)
    def test_zmerge_all_equals_reduce_of_zmerge(self, sp):
        d, bits, parts = sp
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)

        def candidates():
            """Dominance-free candidate trees (the zmerge contract),
            with globally unique ids."""
            trees = []
            offset = 0
            for grid in parts:
                pts = grid.astype(float)
                ids = np.arange(offset, offset + pts.shape[0], dtype=np.int64)
                offset += pts.shape[0]
                sky_pts, sky_ids = zsearch(
                    build_zbtree(codec, pts, ids=ids)
                )
                trees.append(
                    build_zbtree(
                        codec, sky_pts, ids=sky_ids,
                        leaf_capacity=4, fanout=3,
                    )
                )
            return trees

        fold_counter, reduce_counter = OpCounter(), OpCounter()
        folded = zmerge_all(candidates(), fold_counter)
        folded.validate()
        sequential = functools.reduce(
            lambda sky, src: zmerge(sky, src, reduce_counter), candidates()
        )
        _, fold_pts, fold_ids = folded.collect()
        _, seq_pts, seq_ids = sequential.collect()
        assert np.array_equal(fold_ids, seq_ids)
        assert np.array_equal(fold_pts, seq_pts)
        assert _counts(fold_counter) == _counts(reduce_counter)
        # Oracle: the skyline of the union of all parts.
        union = np.vstack([grid.astype(float) for grid in parts])
        oracle_pts, _ = bnl_skyline(union)
        oracle = {tuple(row) for row in oracle_pts}
        assert {tuple(row) for row in fold_pts} == oracle


class TestFlatWalksMatchReferences:
    @given(walk_case())
    @settings(max_examples=150, deadline=None)
    def test_dominated_mask_tree(self, case):
        flat_tree, ref_tree = _case_tree(case), _case_tree(case)
        stored = ref_tree.points()
        probes = np.vstack(
            [_case_grid(case, 4, n=25), stored[:10], _node_corners(ref_tree)]
        )
        flat_counter, ref_counter = OpCounter(), OpCounter()
        with _chunking(case["budget"], case["scan_chunk"]):
            got = flat_tree.dominated_mask_tree(probes, flat_counter)
        want = _walk_dominated_mask(ref_tree, probes, ref_counter)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, _dominated_by_any(probes, stored))
        assert _counts(flat_counter) == _counts(ref_counter)

    @given(walk_case())
    @settings(max_examples=60, deadline=None)
    def test_dominated_mask_tree_tests_sum_over_probes(self, case):
        # Batching probes shares node visits but no dominance test: the
        # point and region tests are those of one walk per probe.
        tree = _case_tree(case)
        probes = np.vstack([_case_grid(case, 4, n=25), _node_corners(tree)])
        batched, single = OpCounter(), OpCounter()
        with _chunking(case["budget"], case["scan_chunk"]):
            tree.dominated_mask_tree(probes, batched)
        for probe in probes:
            _walk_dominated_mask(tree, probe[None, :], single)
        assert batched.point_tests == single.point_tests
        assert batched.region_tests == single.region_tests
        assert batched.nodes_visited <= single.nodes_visited

    @given(walk_case())
    @settings(max_examples=150, deadline=None)
    def test_remove_dominated_by_block(self, case):
        flat_tree, ref_tree = _case_tree(case), _case_tree(case)
        before = ref_tree.points()
        blocks = [_case_grid(case, 5, n=2), _case_grid(case, 6, n=3)]
        flat_counter, ref_counter = OpCounter(), OpCounter()
        for block in blocks:
            with _chunking(case["budget"], case["scan_chunk"]):
                # probe first, so the removal starts from a cached view
                flat_tree.dominated_mask_tree(block, OpCounter())
                got = flat_tree.remove_dominated_by_block(block, flat_counter)
            want = _walk_remove_block(ref_tree, block, ref_counter)
            assert got == want
            assert _counts(flat_counter) == _counts(ref_counter)
            assert _shape(flat_tree) == _shape(ref_tree)
        survivors = before[~_dominated_by_any(before, np.vstack(blocks))]
        assert sorted(map(tuple, flat_tree.points().tolist())) == sorted(
            map(tuple, survivors.tolist())
        )
        # The thinned tree's next walks see the mutation (no stale view).
        probes = _case_grid(case, 7, n=20)
        flat_counter, ref_counter = OpCounter(), OpCounter()
        with _chunking(case["budget"], case["scan_chunk"]):
            got = flat_tree.dominated_mask_tree(probes, flat_counter)
            flat_sky = zsearch(flat_tree, flat_counter)
        want = _walk_dominated_mask(ref_tree, probes, ref_counter)
        ref_sky = _walk_zsearch(ref_tree, ref_counter)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(flat_sky[1], ref_sky[1])
        assert _counts(flat_counter) == _counts(ref_counter)

    @given(walk_case())
    @settings(max_examples=150, deadline=None)
    def test_zsearch(self, case):
        tree = _case_tree(case)
        flat_counter, walk_counter, scalar_counter = (
            OpCounter(), OpCounter(), OpCounter()
        )
        with _chunking(case["budget"], case["scan_chunk"]):
            pts, ids = zsearch(tree, counter=flat_counter)
        walk_pts, walk_ids = _walk_zsearch(tree, walk_counter)
        scalar_pts, scalar_ids = _scalar_zsearch(tree, scalar_counter)
        np.testing.assert_array_equal(pts, walk_pts)
        np.testing.assert_array_equal(ids, walk_ids)
        np.testing.assert_array_equal(ids, scalar_ids)
        assert pts.dtype == np.float64 and ids.dtype == np.int64
        assert _counts(flat_counter) == _counts(walk_counter)
        assert _counts(flat_counter) == _counts(scalar_counter)
        if case["kind"] == "bulk":
            oracle_pts, _ = bnl_skyline(tree.points())
            assert sorted(map(tuple, pts.tolist())) == sorted(
                map(tuple, oracle_pts.tolist())
            )

    @staticmethod
    def _hand_tree(spec):
        """A tree with hand-set regions: ``spec`` is ``(minpt, maxpt,
        [point lists])`` for a leaf or ``(minpt, maxpt, [child specs])``."""
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        ids = iter(range(100))

        def node(minpt, maxpt, body):
            corners = (np.array(minpt, dtype=float), np.array(maxpt, dtype=float))
            if body and isinstance(body[0], tuple):
                return ["node", *corners, [node(*child) for child in body]]
            pts = np.array(body, dtype=float)
            leaf_ids = np.array([next(ids) for _ in body], dtype=np.int64)
            return ["leaf", *corners, pts, leaf_ids, codec.kernel.from_ints([0] * len(body))]

        return _from_nested(codec, node(*spec))

    def _all_walks_match(self, spec, probes, block):
        tree = self._hand_tree(spec)
        c = [OpCounter() for _ in range(3)]
        pts, ids = zsearch(tree, c[0])
        walk_pts, walk_ids = _walk_zsearch(tree, c[1])
        scalar_pts, scalar_ids = _scalar_zsearch(tree, c[2])
        np.testing.assert_array_equal(ids, walk_ids)
        np.testing.assert_array_equal(ids, scalar_ids)
        assert _counts(c[0]) == _counts(c[1]) == _counts(c[2])
        c = [OpCounter(), OpCounter()]
        ref = self._hand_tree(spec)
        np.testing.assert_array_equal(
            tree.dominated_mask_tree(probes, c[0]),
            _walk_dominated_mask(ref, probes, c[1]),
        )
        assert _counts(c[0]) == _counts(c[1])
        c = [OpCounter(), OpCounter()]
        assert tree.remove_dominated_by_block(block, c[0]) == _walk_remove_block(
            ref, block, c[1]
        )
        assert _counts(c[0]) == _counts(c[1])
        assert _shape(tree) == _shape(ref)
        return tree

    def test_zsearch_prunes_only_on_points_scanned_earlier(self):
        # (0, 0) in the third leaf dominates the second leaf's min
        # corner, but the walk only prunes on points already in its
        # buffer, so the second leaf is scanned (and its point rejected
        # by (1, 5)); the duplicate (0, 0) is accepted too.
        spec = ((0, 0), (15, 15), [
            ((1, 5), (1, 5), [[1, 5]]),
            ((2, 0), (3, 7), [[3, 6]]),
            ((0, 0), (0, 0), [[0, 0]]),
            ((0, 0), (0, 0), [[0, 0]]),
        ])
        probes = np.array([[2.0, 6.0], [4.0, 8.0], [0.0, 0.0]])
        self._all_walks_match(spec, probes, np.array([[1.0, 5.0]]))

    def test_reach_is_a_root_path_condition(self):
        # Each leaf's region escapes its parent's: a node-by-node walk
        # never reaches (6, 6) for probe (8, 8) nor hands (9, 0) row
        # (8, 0), so the flat walks must not either, whatever the leaf's
        # own test says.  ((6, 6) still goes: row (1, 1) dominates its
        # parent's min corner.)
        spec = ((0, 0), (15, 15), [
            ((9, 9), (15, 15), [((5, 5), (7, 7), [[6, 6]])]),
            ((0, 0), (4, 15), [((5, 0), (9, 0), [[9, 0]])]),
        ])
        probes = np.array([[8.0, 8.0], [15.0, 15.0]])
        tree = self._all_walks_match(spec, probes, np.array([[1.0, 1.0], [8.0, 0.0]]))
        assert tree.points().tolist() == [[9.0, 0.0]]

    def test_empty_and_single_point_trees(self):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=4)
        empty = build_zbtree(codec, np.empty((0, 3)))
        counter = OpCounter()
        pts, ids = zsearch(empty, counter)
        assert pts.shape == (0, 3) and ids.shape == (0,)
        assert _counts(counter) == (0, 0, 0)
        single = build_zbtree(codec, np.array([[2.0, 2.0, 2.0]]))
        probes = np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        c1, c2 = OpCounter(), OpCounter()
        np.testing.assert_array_equal(
            single.dominated_mask_tree(probes, c1),
            _walk_dominated_mask(single, probes, c2),
        )
        assert _counts(c1) == _counts(c2)
        c1 = OpCounter()
        assert single.remove_dominated_by_block(np.zeros((1, 3)), c1) == 1
        assert single.is_empty
        assert _counts(c1) == (0, 2, 1)


class TestZmergeScanMatchesReference:
    @given(zmerge_case())
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_per_leaf_walk(self, case):
        sky, src = _zmerge_trees(case)
        ref_sky, _ = _zmerge_trees(case)
        before = ref_sky.points()
        flat_counter, ref_counter = OpCounter(), OpCounter()
        with _chunking(case["budget"], zsearch_module._SCAN_CHUNK):
            grafts, accepted = _zmerge_scan(sky, src, flat_counter)
        want_grafts, want_accepted = _walk_zmerge_scan(ref_sky, src, ref_counter)
        np.testing.assert_array_equal(grafts, want_grafts)
        np.testing.assert_array_equal(accepted, want_accepted)
        assert grafts.dtype == accepted.dtype == np.int64
        # every OpCounter field, and so the cost model's total
        assert dataclasses.astuple(flat_counter) == dataclasses.astuple(ref_counter)
        assert flat_counter.total() == ref_counter.total()
        assert _shape(sky) == _shape(ref_sky)
        # the scan's answer is the skyline of the union
        taken = np.concatenate([
            *(np.arange(src.pstart[row], src.pstart[row] + src.npoints[row])
              for row in grafts.tolist()),
            accepted,
        ]).astype(np.int64)
        merged = np.vstack([sky.points(), src.leaf_points[taken]])
        oracle, _ = bnl_skyline(np.vstack([before, src.points()]))
        assert sorted(map(tuple, merged.tolist())) == sorted(map(tuple, oracle.tolist()))

    def test_skyline_emptied_mid_frontier(self):
        # The first leaf's (0, 5) dominates both skyline points, so the
        # rest of that frontier is grafted without a probe, and so is
        # the whole next frontier.
        codec = ZGridCodec.grid_identity(2, bits_per_dim=4)
        sky_pts = np.array([[12.0, 13.0], [13.0, 12.0]])
        src_pts = np.array(
            [[0.0, 5.0], [2.0, 4.0], [4.0, 2.0], [5.0, 0.0], [1.0, 14.0],
             [14.0, 1.0], [3.0, 11.0], [11.0, 3.0], [6.0, 9.0], [9.0, 6.0]]
        )
        shape = {"leaf_capacity": 2, "fanout": 2}
        src = build_zbtree(codec, src_pts, ids=np.arange(10) + 100, **shape)
        results = []
        for scan in (_zmerge_scan, _walk_zmerge_scan):
            sky = build_zbtree(codec, sky_pts, ids=np.arange(2), **shape)
            counter = OpCounter()
            results.append((*scan(sky, src, counter), dataclasses.astuple(counter)))
            assert sky.is_empty
        (grafts, accepted, counts), (want_grafts, want_accepted, want_counts) = results
        np.testing.assert_array_equal(grafts, want_grafts)
        np.testing.assert_array_equal(accepted, want_accepted)
        assert counts == want_counts
        # only the first leaf was decided; all its points were accepted
        first_leaf = int(np.flatnonzero(src.is_leaf)[0])
        assert accepted.tolist() == [0, 1]
        assert first_leaf not in grafts.tolist()
        grafted = np.concatenate(
            [src.leaf_ids[src.pstart[r] : src.pstart[r] + src.npoints[r]] for r in grafts]
        )
        assert sorted(grafted.tolist() + src.leaf_ids[accepted].tolist()) == list(
            range(100, 110)
        )


def _node_build(codec, points, ids, leaf_capacity, fanout):
    """The bulk build node by node, as the nested form: a stable sort
    on Python-int Z-addresses, leaves of ``leaf_capacity`` points,
    levels of ``fanout`` nodes, and each node's region from the scalar
    codec over its first and last address."""
    zs = codec.encode_grid(points.astype(np.int64))
    order = sorted(range(len(zs)), key=zs.__getitem__)
    zs = [zs[i] for i in order]
    points, ids = points[order], ids[order]

    def corners(lo, hi):
        region = RZRegion(codec, zs[lo], zs[hi - 1])
        return region.minpt.astype(float), region.maxpt.astype(float)

    level = []
    for lo in range(0, len(zs), leaf_capacity):
        hi = min(lo + leaf_capacity, len(zs))
        level.append((lo, hi, [
            "leaf", *corners(lo, hi), points[lo:hi], ids[lo:hi],
            codec.kernel.from_ints(zs[lo:hi]),
        ]))
    while len(level) > 1:
        level = [
            (group[0][0], group[-1][1], [
                "node", *corners(group[0][0], group[-1][1]),
                [node for _, _, node in group],
            ])
            for group in (
                level[i : i + fanout] for i in range(0, len(level), fanout)
            )
        ]
    return level[0][2]


def _columns(tree):
    """Every table column of a tree, by name."""
    cols = {
        key: value for key, value in vars(tree).items()
        if isinstance(value, np.ndarray)
    }
    cols["levels"] = tree.levels
    return cols


class TestBuildTable:
    @given(
        shape_and_grid(narrow=True, max_points=90),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_node_by_node_build_fast(self, sg, leaf_capacity, fanout, dups):
        self._check(sg, leaf_capacity, fanout, dups)

    @given(
        shape_and_grid(narrow=False, max_points=90),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_node_by_node_build_wide(self, sg, leaf_capacity, fanout, dups):
        self._check(sg, leaf_capacity, fanout, dups)

    @staticmethod
    def _check(sg, leaf_capacity, fanout, dups):
        d, bits, grid = sg
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        rng = np.random.default_rng(grid.shape[0])
        # repeated rows make duplicate points (equal Z-addresses)
        points = np.vstack([grid, grid[rng.integers(0, grid.shape[0], dups)]])
        points = points.astype(float)
        ids = rng.permutation(points.shape[0]).astype(np.int64)
        got = build_zbtree(
            codec, points, ids=ids, leaf_capacity=leaf_capacity, fanout=fanout
        )
        want = _from_nested(
            codec, _node_build(codec, points, ids, leaf_capacity, fanout),
            leaf_capacity, fanout,
        )
        got_cols, want_cols = _columns(got), _columns(want)
        assert got_cols.keys() == want_cols.keys()
        for key, value in want_cols.items():
            if key == "levels":
                assert len(got.levels) == len(value)
                for mine, theirs in zip(got.levels, value):
                    np.testing.assert_array_equal(mine, theirs)
                continue
            assert got_cols[key].dtype == value.dtype, key
            np.testing.assert_array_equal(got_cols[key], value, err_msg=key)
        got.validate()

    def test_sizes_off_the_level_grid(self):
        # n a multiple of neither the leaf capacity nor the fanout: the
        # last leaf and the last node of every level are partial
        codec = ZGridCodec.grid_identity(3, bits_per_dim=5)
        rng = np.random.default_rng(4)
        points = rng.integers(0, 32, (61, 3)).astype(float)
        ids = np.arange(61, dtype=np.int64)
        tree = build_zbtree(codec, points, ids=ids, leaf_capacity=4, fanout=3)
        assert tree.height() == 4
        assert tree.npoints[tree.is_leaf].tolist() == [4] * 15 + [1]
        assert _shape(tree) == _shape(
            _from_nested(codec, _node_build(codec, points, ids, 4, 3), 4, 3)
        )


class TestTreePickles:
    @pytest.mark.parametrize("shape", [(3, 6), (8, 12)])
    def test_equal_trees_pickle_identically(self, shape):
        # The distributed cache's idempotent-republish check compares
        # pickle bytes, so a tree must pickle as its table alone.
        d, bits = shape
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        rng = np.random.default_rng(8)
        points = rng.integers(0, 1 << bits, (150, d)).astype(float)
        ids = np.arange(150, dtype=np.int64)
        perm = rng.permutation(150)
        a = build_zbtree(codec, points, ids=ids, leaf_capacity=4, fanout=3)
        b = build_zbtree(codec, points[perm], ids=ids[perm], leaf_capacity=4, fanout=3)
        # walks leave no derived state behind
        a.dominated_mask_tree(points[:20])
        zsearch(a)
        assert pickle.dumps(a) == pickle.dumps(b)
        restored = pickle.loads(pickle.dumps(a))
        assert pickle.dumps(restored) == pickle.dumps(b)
        assert _shape(restored) == _shape(a)
        block = points[:5] + 1
        assert restored.remove_dominated_by_block(block) == a.remove_dominated_by_block(block)
        assert _shape(restored) == _shape(a)

    def test_emptied_tree_pickles_like_an_empty_build(self):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=4)
        tree = build_zbtree(codec, np.full((10, 3), 5.0))
        assert tree.remove_dominated_by_block(np.zeros((1, 3))) == 10
        assert tree.is_empty and tree.height() == 0
        assert pickle.dumps(tree) == pickle.dumps(build_zbtree(codec, np.empty((0, 3))))


#: plans whose phase-1 Z-search and Z-merge scans all run on the flat
#: walks
REFERENCE_PLANS = ("ZDG+ZS+ZM", "Naive-Z+ZS+ZM", "ZDG+ZS+ZMP")


class TestPlansMatchReferenceWalks:
    @pytest.mark.parametrize("d", [4, 6])
    @pytest.mark.parametrize("plan", REFERENCE_PLANS)
    def test_run_plan_matches_reference_walks(self, plan, d, monkeypatch):
        dataset = independent(1500, d, seed=11)
        flat = run_plan(plan, dataset, seed=3)
        monkeypatch.setattr(ZBTree, "dominated_mask_tree", _walk_dominated_mask)
        monkeypatch.setattr(ZBTree, "remove_dominated_by_block", _walk_remove_block)
        monkeypatch.setattr(zs_module, "zsearch", _walk_zsearch)
        monkeypatch.setattr(zmerge_module, "_zmerge_scan", _walk_zmerge_scan)
        ref = run_plan(plan, dataset, seed=3)
        np.testing.assert_array_equal(flat.skyline.ids, ref.skyline.ids)
        np.testing.assert_array_equal(flat.skyline.points, ref.skyline.points)
        for name in ("point_tests", "region_tests"):
            assert flat.merged_counters().counter(
                "dominance", name
            ) == ref.merged_counters().counter("dominance", name)
        assert flat.merged_counters().counter("dominance", "point_tests") > 0
        assert flat.num_candidates == ref.num_candidates
        assert flat.makespan_cost == ref.makespan_cost
        assert flat.total_cost == ref.total_cost
        assert flat.shuffle_records == ref.shuffle_records


# ----------------------------------------------------------------------
# satellites
# ----------------------------------------------------------------------
class TestBnlEmptyInputShape:
    def test_empty_2d_keeps_dimensionality(self):
        pts, ids = bnl_skyline(np.empty((0, 5)))
        assert pts.shape == (0, 5)
        assert ids.shape == (0,)

    def test_empty_1d_normalises_to_zero_dims(self):
        pts, ids = bnl_skyline(np.empty(0))
        assert pts.shape == (0, 0)
        assert ids.shape == (0,)


class TestVectorisedPointOps:
    def test_dominance_counts_chunked_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        pts = rng.integers(0, 6, size=(97, 4)).astype(float)
        expected = np.array(
            [
                sum(
                    bool(np.all(q <= p) and np.any(q < p))
                    for q in pts
                )
                for p in pts
            ],
            dtype=np.int64,
        )
        assert np.array_equal(dominance_counts(pts, chunk=16), expected)
        assert np.array_equal(dominance_counts(pts, chunk=10_000), expected)

    def test_decode_many_accepts_ints_and_native_batches(self):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=5)
        rng = np.random.default_rng(3)
        grid = rng.integers(0, 32, size=(40, 3))
        zbatch = codec.encode_grid_batch(grid)
        ints = codec.kernel.to_int_list(zbatch)
        assert np.array_equal(codec.decode_many(ints), grid.astype(np.uint32))
        assert np.array_equal(codec.decode_many(zbatch), grid.astype(np.uint32))


class TestKernelStats:
    def test_record_snapshot_reset(self):
        # The codec counts calls and rows per kernel path under the
        # ``zkernel`` group of its registry.
        fast = ZGridCodec.grid_identity(4, bits_per_dim=8)
        fast.encode_grid_batch(np.ones((10, 4), dtype=np.int64))
        fast.encode_grid_batch(np.ones((5, 4), dtype=np.int64))
        assert fast.kernel_stats.counters_as_dict() == {
            "zkernel": {"encode_fast_calls": 2, "encode_fast_rows": 15}
        }
        wide = ZGridCodec.grid_identity(10, bits_per_dim=8)
        assert not wide.fast_path
        wide.decode_batch(
            wide.encode_grid_batch(np.ones((3, 10), dtype=np.int64))
        )
        assert wide.kernel_stats.counter("zkernel", "decode_wide_calls") == 1
        assert wide.kernel_stats.counter("zkernel", "decode_wide_rows") == 3
        # A fresh registry resets the counts (what a pool worker does
        # before each task).
        fast.kernel_stats = MetricsRegistry()
        assert fast.kernel_stats.counters_as_dict() == {}
        fast.encode_grid_batch(np.ones((2, 4), dtype=np.int64))
        assert fast.kernel_stats.counter("zkernel", "encode_fast_rows") == 2

    def test_codec_pickles_identically_regardless_of_stats(self):
        # The distributed cache's idempotent-republish check compares
        # pickle bytes; process-local telemetry must not break it.
        a = ZGridCodec.grid_identity(4, bits_per_dim=8)
        b = ZGridCodec.grid_identity(4, bits_per_dim=8)
        a.encode_grid_batch(np.ones((5, 4), dtype=np.int64))
        assert (
            a.kernel_stats.counters_as_dict()
            != b.kernel_stats.counters_as_dict()
        )
        assert pickle.dumps(a) == pickle.dumps(b)
        restored = pickle.loads(pickle.dumps(a))
        assert restored.kernel_stats.counters_as_dict() == {}


class TestBlockZCarry:
    def _block(self, codec, n=12, seed=5):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 1 << codec.bits_per_dim, size=(n, codec.dimensions))
        z = codec.encode_grid_batch(grid)
        return Block(np.arange(n), grid.astype(float), zaddresses=z), z

    @pytest.mark.parametrize("shape", [(2, 8), (6, 12)])
    def test_select_and_concat_propagate(self, shape):
        codec = ZGridCodec.grid_identity(shape[0], bits_per_dim=shape[1])
        block, z = self._block(codec)
        mask = np.arange(block.size) % 2 == 0
        sub = block.select(mask)
        assert np.array_equal(sub.zaddresses, z[mask])
        both = Block.concat([sub, block.select(~mask)])
        assert both.zaddresses is not None
        assert both.zaddresses.shape[0] == block.size

    def test_concat_drops_z_when_any_input_lacks_it(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=8)
        block, _ = self._block(codec)
        bare = Block(block.ids + 100, block.points)
        assert Block.concat([block, bare]).zaddresses is None

    def test_checksum_excludes_derived_zaddresses(self):
        codec = ZGridCodec.grid_identity(2, bits_per_dim=8)
        block, _ = self._block(codec)
        bare = Block(block.ids, block.points)
        assert block.checksum() == bare.checksum()


class TestCheckpointZPersistence:
    def test_zaddresses_roundtrip_and_stay_optional(self, tmp_path):
        codec = ZGridCodec.grid_identity(3, bits_per_dim=6)
        rng = np.random.default_rng(11)
        grid = rng.integers(0, 64, size=(20, 3))
        z = codec.encode_grid_batch(grid)
        carrying = Block(np.arange(20), grid.astype(float), zaddresses=z)
        bare = Block(np.arange(20, 40), grid.astype(float))
        store = CheckpointStore(str(tmp_path))
        store.begin({"run": "z"}, resume=False)
        store.save_stage(STAGE_PHASE1, blocks=[(0, carrying), (1, bare)])
        loaded = dict(CheckpointStore(str(tmp_path)).load_blocks(STAGE_PHASE1))
        assert np.array_equal(loaded[0].zaddresses, z)
        assert loaded[1].zaddresses is None


class TestZCurveNativeRouting:
    @pytest.mark.parametrize("shape", [(2, 8), (6, 12)])
    def test_partition_of_native_matches_int_path(self, shape):
        codec = ZGridCodec.grid_identity(shape[0], bits_per_dim=shape[1])
        rng = np.random.default_rng(13)
        grid = rng.integers(
            0, 1 << shape[1], size=(200, shape[0])
        )
        zbatch = codec.encode_grid_batch(grid)
        ints = codec.kernel.to_int_list(zbatch)
        pivots = sorted(set(ints[10:200:40]))
        rule = ZCurveRule(codec, pivots)
        assert np.array_equal(
            rule.partition_of(zbatch), rule.partition_of(ints)
        )
        # A pivot's own address belongs to the partition *after* the
        # boundary (``side="right"`` semantics), on both native paths.
        pivot_batch = codec.as_zbatch(list(pivots))
        assert np.array_equal(
            rule.partition_of(pivot_batch),
            np.arange(1, len(pivots) + 1, dtype=np.int64),
        )


    @staticmethod
    def _assert_matches_bisect(codec, pivots, ints):
        rule = ZCurveRule(codec, pivots)
        got = rule.partition_of(codec.as_zbatch(ints))
        want = np.array([bisect.bisect_right(pivots, z) for z in ints], dtype=np.int64)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, rule.partition_of(ints))

    def test_padded_wide_shape(self):
        # 5 x 13 = 65 bits: nine bytes per row, seven pad bits in byte 0
        codec = ZGridCodec.grid_identity(5, bits_per_dim=13)
        assert codec.kernel.width == 9 and codec.kernel.pad_bits == 7
        rng = np.random.default_rng(21)
        ints = codec.encode_grid(rng.integers(0, 1 << 13, size=(300, 5)))
        pivots = sorted(set(ints[::23]))
        top = (1 << 65) - 1
        self._assert_matches_bisect(codec, pivots, ints + pivots + [0, top, 1 << 64])

    @pytest.mark.parametrize("shape", [(6, 12), (5, 13)])
    def test_trailing_zero_bytes(self, shape):
        # Rows and pivots that end in zero bytes: a key that loses them
        # on the way (a NUL-stripped byte string read back as an int)
        # would misplace the rows.
        codec = ZGridCodec.grid_identity(*shape)
        bits = codec.total_bits
        high = [v << (bits - 9) for v in (1, 2, 3, 255, 256, 511)]
        pivots = sorted({high[1], high[3], high[4], high[3] + 1})
        ints = high + [h + 1 for h in high] + [h - 1 for h in high] + [h + 256 for h in high]
        self._assert_matches_bisect(codec, pivots, ints)

    @pytest.mark.parametrize("shape", [(2, 8), (6, 12), (5, 13)])
    def test_rows_outside_the_pivot_range(self, shape):
        codec = ZGridCodec.grid_identity(*shape)
        top = codec.max_zaddress
        pivots = [top // 5, top // 3, top // 2]
        ints = [0, 1, pivots[0] - 1, pivots[-1], pivots[-1] + 1, top - 1, top]
        self._assert_matches_bisect(codec, pivots, ints)
        rule = ZCurveRule(codec, pivots)
        assert rule.partition_of(codec.as_zbatch([0, top])).tolist() == [0, 3]


class TestKernelMetricsWiring:
    def test_run_report_carries_zkernel_counters(self):
        ds = independent(400, 4, seed=2)
        rep = run_plan("ZHG+ZS+ZM", ds, seed=2, tracer=Tracer())
        assert rep.observed_metrics is not None
        groups = rep.observed_metrics.counters_as_dict()
        assert "zkernel" in groups
        # d=4 at the default 12 bits/dim is 48 bits: fast-path eligible.
        assert groups["zkernel"].get("encode_fast_calls", 0) > 0
        assert groups["zkernel"].get("encode_fast_rows", 0) > 0

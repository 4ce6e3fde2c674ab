"""Z-search: skyline computation over a ZB-tree (Lee et al. [5]).

The correctness anchor is the Z-order monotonicity property: for distinct
grid points, ``p`` dominates ``q`` implies ``z(p) < z(q)``.  Scanning the
tree in increasing Z-address order therefore guarantees that a point can
only be dominated by points *already scanned*, so a single forward pass
with a growing skyline buffer is exact — no point ever has to be retracted
from the buffer.

Region pruning: before descending into a node, the buffer is probed for a
point dominating the node region's min corner; such a point dominates
every point in the region (Lemma 1), so the whole subtree is skipped.

The scan runs flat (see :mod:`repro.zorder.zbtree`).  A point enters the
buffer iff no point *earlier in the scan* dominates it: a rejected or
pruned earlier dominator is itself dominated by an accepted one, which
then dominates the point too.  So the buffer when the walk reaches a
node is exactly the accepted points before that node's first point, and
the accepted set comes from chunked kernel passes — each chunk of the
scan against the points accepted before it, plus the earlier points of
its own chunk — with no per-point loop.  The :class:`OpCounter` charges
of the buffer walk follow in closed form: reaching node ``u`` costs one
visit, one region test and one point test per buffered point; ``u`` is
pruned iff a buffered point dominates its min corner, and the walk
reaches ``u`` iff no ancestor was pruned; each point of a scanned leaf
costs one point test per point buffered before it.

So Z-search is two parts.  :func:`accept` decides the answer from the
Z-sorted grid columns alone; the tree exists only to charge the
modelled walk.  A one-leaf tree cannot prune (its root is reached with
an empty buffer), so its charges are closed-form without the tree
(:func:`charge_one_leaf`), and
:func:`~repro.algorithms.zs.zs_skyline` builds a tree only for a
charged block that spans more than one leaf.  :func:`accept_groups`
decides many one-leaf scans in one padded pass, and
:func:`charge_one_leaf` given their sizes charges them all; the
phase-1 combiner cuts a map task's one-leaf groups that way
(:func:`~repro.algorithms.zs.zs_skyline_groups`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.point import GridRows, pairwise_dominance, rows_per_chunk
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import OpCounter, ZBTree, build_zbtree

#: largest scan chunk of the acceptance pass (its in-chunk test is
#: quadratic); chunks double up to it from 32, so the first chunk,
#: which has no accepted rows to screen it, stays small
_SCAN_CHUNK = 512


def zsearch(
    tree: ZBTree, counter: Optional[OpCounter] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute the skyline of the points stored in ``tree``.

    Returns ``(points, ids)`` in Z-order.  ``counter``, when given,
    accrues the dominance-test counts used by the simulated cost model.
    """
    if tree.is_empty:
        return np.empty((0, tree.codec.dimensions)), np.empty(0, dtype=np.int64)
    accepted = zsearch_mask(tree, counter)
    return tree.leaf_points[accepted], tree.leaf_ids[accepted]


def zsearch_mask(
    tree: ZBTree, counter: Optional[OpCounter] = None
) -> np.ndarray:
    """:func:`zsearch` as a mask over the tree's points (Z-order): the
    skyline rows, e.g. for :func:`~repro.zorder.zbtree.rebuild` to make
    a skyline tree of without re-encoding them.  Charged the same; with
    no ``counter`` the charged walk is skipped."""
    if tree.is_empty:
        return np.zeros(0, dtype=bool)
    accepted = accept(tree.grid_points)
    if counter is None:
        return accepted
    # before[j]: points accepted ahead of scan position j (the buffer)
    before = np.concatenate(([0], np.cumsum(accepted)))
    buffered = before[tree.pstart]
    pruned = _min_corner_dominated(tree.grid_points[accepted], buffered, tree)
    visited = ~tree.below(pruned)
    scanned = visited & tree.is_leaf & ~pruned
    counter.nodes_visited += int(visited.sum())
    counter.region_tests += int(visited.sum())
    counter.point_tests += int(buffered[visited].sum())
    counter.point_tests += int(before[:-1][scanned[tree.point_node]].sum())
    return accepted


def charge_one_leaf(
    accepted: np.ndarray,
    counter: OpCounter,
    sizes: Optional[np.ndarray] = None,
) -> None:
    """Charge ``counter`` for the walk of a one-leaf tree whose Z-order
    scan accepted ``accepted``, without the tree.

    The walk reaches the root leaf with an empty buffer, so nothing is
    pruned: one node visit, one region test, and for each row one point
    test per row accepted before it — exactly :func:`zsearch_mask`'s
    charges on that tree.  ``sizes`` splits ``accepted`` into
    consecutive one-leaf scans (:func:`accept_groups`), each charged
    so, with an empty leaf charged nothing; the sum equals one call
    per group.
    """
    if sizes is None:
        sizes = np.array([accepted.shape[0]])
    before = np.concatenate(([0], np.cumsum(accepted)))
    starts = np.cumsum(sizes) - sizes
    walks = int(np.count_nonzero(sizes))
    counter.nodes_visited += walks
    counter.region_tests += walks
    counter.point_tests += int(
        (before[:-1] - np.repeat(before[starts], sizes)).sum()
    )


def accept(points: GridRows) -> np.ndarray:
    """Scan-order acceptance: rows no earlier row dominates.

    Per chunk of the scan: first against the rows accepted before it,
    then the survivors against each other, earlier over later.  A row
    the first test kills cannot be the only earlier dominator of a
    survivor (its own accepted dominator would dominate that survivor
    too), so the second test needs only the survivors.
    """
    n = len(points)
    accepted = np.zeros(n, dtype=bool)
    lo = 0
    while lo < n:
        part = points[lo : lo + min(_SCAN_CHUNK, max(32, lo))]
        dead = np.zeros(len(part), dtype=bool)
        step = rows_per_chunk(len(part))
        if lo:
            prior = points[np.flatnonzero(accepted[:lo])]
            for _start, dom in pairwise_dominance(prior, part, step):
                dead |= dom.any(axis=0)
        alive = (~dead).nonzero()[0]
        if alive.size > 1:
            rest = part[alive]
            later = np.arange(alive.size)
            for start, dom in pairwise_dominance(rest, rest, rows_per_chunk(alive.size)):
                dom &= later > later[start : start + dom.shape[0], None]
                dead[alive] |= dom.any(axis=0)
        accepted[lo : lo + len(part)] = ~dead
        lo += len(part)
    return accepted


def accept_groups(points: GridRows, sizes: np.ndarray) -> np.ndarray:
    """:func:`accept` of each of consecutive groups of rows, in one pass.

    ``points`` holds the groups back to back, ``sizes[g]`` rows each,
    every group in its own scan order.  Row ``j`` of a group is
    accepted iff no earlier row of the same group dominates it.  The
    groups are padded to the longest one and compared as ``(G, L, L)``
    matrices: one row-sum compare, the earlier-over-later mask, then
    one ``<=`` AND per dimension.  Padding lanes come after a group's
    rows, so that mask keeps them from dominating any of them, and
    their own answers are dropped.  Meant for small groups (Z-search
    leaves): the padding makes the cost ``G * L**2`` pairs, chunked
    over groups within :data:`~repro.core.point.PAIR_BUDGET`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=bool)
    width = int(sizes.max())
    lane = np.arange(width)
    valid = lane < sizes[:, None]
    index = np.where(valid, (np.cumsum(sizes) - sizes)[:, None] + lane, 0)
    sums = points.sums[index]
    earlier = lane[:, None] < lane[None, :]
    accepted = np.empty(valid.shape, dtype=bool)
    step = rows_per_chunk(width * width)
    for lo in range(0, sizes.shape[0], step):
        rows = index[lo : lo + step]
        cols = points.cols[:, rows]
        part = sums[lo : lo + step]
        dom = part[:, :, None] < part[:, None, :]
        dom &= earlier
        for dim in range(cols.shape[0]):
            dom &= cols[dim][:, :, None] <= cols[dim][:, None, :]
        accepted[lo : lo + step] = ~dom.any(axis=1)
    return accepted[valid]


def _min_corner_dominated(
    sky: GridRows, buffered: np.ndarray, tree: ZBTree
) -> np.ndarray:
    """Per node: does one of the ``buffered[u]`` accepted rows ahead of
    it (the first rows of ``sky``) dominate its min corner?"""
    pruned = np.zeros(tree.num_nodes, dtype=bool)
    nodes = np.flatnonzero(buffered)
    if nodes.size == 0:
        return pruned
    corners = tree.grid_min[nodes]
    limit = buffered[nodes]
    for start, dom in pairwise_dominance(
        sky[: limit.max()], corners, rows_per_chunk(nodes.size)
    ):
        rank = np.arange(start, start + dom.shape[0])[:, None]
        dom &= rank < limit
        pruned[nodes] |= dom.any(axis=0)
    return pruned


def zsearch_dataset(
    dataset: Dataset,
    codec: Optional[ZGridCodec] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: build a ZB-tree for a dataset and Z-search it.

    The dataset is assumed to already hold grid coordinates (see
    :func:`repro.zorder.encoding.quantize_dataset`).  When ``codec`` is
    omitted an identity grid codec wide enough for the data is used.
    """
    if codec is None:
        bits = _bits_needed(dataset.points)
        codec = ZGridCodec.grid_identity(dataset.dimensions, bits_per_dim=bits)
    tree = build_zbtree(codec, dataset.points, ids=dataset.ids)
    return zsearch(tree, counter=counter)


def _bits_needed(points: np.ndarray) -> int:
    """Smallest bits-per-dim that can represent the given grid values."""
    top = int(points.max()) if points.size else 1
    return max(1, top.bit_length())

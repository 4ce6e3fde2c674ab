"""Z-merge (Algorithm 4): merge skyline-candidate ZB-trees.

``zmerge`` folds a source tree ``Z_src`` (new candidates) into a skyline
tree ``Z_sky`` (the accumulated global skyline) using a breadth-first
traversal of the source with three-way region pruning:

* source nodes whose region is *fully dominated* by some skyline point are
  discarded without looking at their points;
* source subtrees *incomparable* with the whole skyline tree are grafted
  wholesale (``Zdominate-branches`` in the paper) — no point-level work;
* everything else descends; at the leaves each surviving point is tested
  against the skyline tree and, when accepted, dominated skyline points
  are deleted (the paper's ``UDominate``).

Every tree-side operation is a flat walk: a few kernel passes over
the skyline tree's pre-order table instead of one numpy dispatch per
node, with the node-by-node walk's
:class:`~repro.zorder.zbtree.OpCounter` charges reproduced exactly.  A
fold makes one probe pass (:meth:`~repro.zorder.zbtree.ZBTree._probe`)
over every source node's min corner and every source leaf's points,
and one Lemma 1 broadcast; the BFS frontiers (one depth of ``src``
each, in pre-order) are then walked arithmetically, each charged the
min-corner probe walk Alg. 4 makes for it.  Every leaf of a built or
compacted source sits at the last depth, so nothing is deleted before
the last frontier, whose leaves
:meth:`~repro.zorder.zbtree.ZBTree.decide_blocks` decides from the
same probe pass: one ``UDominate`` pass finds each skyline point's
*kill rank* (the first leaf, in visit order, whose accepted points
delete it), then one compaction.  Alg. 4 decides those leaves one at
a time, each probe seeing the deletions of the leaves before it; the
kill ranks say which points each leaf's walks would see, so every
leaf is charged what its own walks cost.  The scan works on ``src``
rows: a graft is its subtree's point range and the accepted points
are point offsets.

Finally the tree is rebalanced: the surviving skyline points, the
grafted ranges and the accepted points are gathered, native
Z-addresses included, and bulk-built into a new tree (the same
asymptotics as incremental rebalancing at our scales, and far
simpler), so every fold of :func:`zmerge_all` merges into a balanced
tree with tight RZ-regions.

Contract: **both inputs must be dominance-free within themselves** (each
is the skyline of its own point set — exactly what the pipeline's phase-1
reducers emit).  Under that contract the result is the skyline of the
union of the two point sets, which the test suite verifies against the
oracle.  Use :func:`zmerge_all` to fold many candidate trees.

Ownership: neither function changes its inputs.  :func:`zmerge` runs
its UDominate deletions on a shallow copy of the skyline argument (a
deletion rebinds the copy's columns and never writes them), so the
caller's tree stays as it was; the merged tree is built into fresh
arrays.  :func:`zmerge_all` folds into an accumulator it cloned from
its first input, so it compacts that one in place, and returns a tree
that shares no arrays with its inputs.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.exceptions import ZOrderError
from repro.core.point import GridRows
from repro.zorder.zbtree import OpCounter, ZBTree, build_zbtree, concat_ranges, rebuild


def zmerge(
    sky: ZBTree, src: ZBTree, counter: Optional[OpCounter] = None
) -> ZBTree:
    """Merge candidate tree ``src`` into skyline tree ``sky``.

    Returns a new balanced ZB-tree containing the skyline of the union,
    except when either side is empty: then the other input is returned
    by reference.  Both inputs are only read: the deletions compact a
    shallow copy of ``sky``.
    """
    if src.is_empty:
        return sky
    if sky.is_empty:
        return src
    counter = counter if counter is not None else OpCounter()
    return _fold(copy.copy(sky), src, counter)


def _fold(sky: ZBTree, src: ZBTree, counter: OpCounter) -> ZBTree:
    """:func:`zmerge` of two non-empty trees that consumes ``sky``: its
    deletions compact ``sky`` itself.  :func:`zmerge_all` folds into the
    accumulator it owns this way, so each deletion frees the columns it
    replaces instead of keeping a copy's originals alive."""
    grafts, accepted = _zmerge_scan(sky, src, counter)
    # The surviving skyline points, every grafted subtree's points and
    # the accepted leaf points, gathered as native Z-address batches.
    taken = np.concatenate(
        (concat_ranges(src.pstart[grafts], src.npoints[grafts]), accepted)
    )
    return build_zbtree(
        sky.codec,
        np.concatenate((sky.leaf_points, src.leaf_points[taken])),
        ids=np.concatenate((sky.leaf_ids, src.leaf_ids[taken])),
        zaddresses=np.concatenate((sky.leaf_z, src.leaf_z[taken])),
        leaf_capacity=sky.leaf_capacity,
        fanout=sky.fanout,
        grid=GridRows.concat(sky.grid_points, src.grid_points[taken]),
    )


def _zmerge_scan(
    sky: ZBTree, src: ZBTree, counter: OpCounter
) -> Tuple[np.ndarray, np.ndarray]:
    """BFS of ``src`` against ``sky`` with three-way region pruning.

    Mutates ``sky`` (UDominate deletions) and returns what a caller
    needs to assemble the merged tree: the grafted ``src`` rows, in
    visit order, and the ``src`` point offsets of the accepted leaf
    points, in visit order.

    The whole scan runs on one :meth:`ZBTree._probe` pass of ``sky``
    over every ``src`` node's min corner (a group each) and every
    ``src`` leaf's points (a group per leaf), then walks the BFS
    frontiers (one depth each, in pre-order) arithmetically: a node is
    dominated (its corner probe hits), grafted (Lemma 1: incomparable
    with the skyline root's region) or descended, and a node is reached
    iff every strict ancestor descended.  Each frontier is charged one
    corner-probe walk, the per-node probe counts summed over the
    frontier, plus a visit and two region tests per node; its leaves
    are decided by :meth:`ZBTree.decide_blocks` from the leaf groups'
    probe counts, charged leaf by leaf in visit order as Alg. 4 decides
    them.

    This requires every leaf of ``src`` at one depth, as in every built
    or compacted tree (else :class:`ZOrderError`): then only the last
    frontier holds leaves, so nothing is deleted from ``sky`` before
    the last frontier is probed, and every probe sees the starting
    tree.  Deciding that frontier's leaves from the one pass is exact,
    not just conservative, by three invariants of the scan:

    1. A deletion never moves a node's corners (they stay stale), so
       every probe's reach, every ``UDominate`` row's max-corner test
       and every min-corner cover, and the skyline root's corners in
       the Lemma 1 test, are the same at every leaf.
    2. A skyline point that dominates a source point, or a source
       region's min corner, is never deleted during the scan: its
       deleter would be an accepted *source* point that dominates that
       source point (or every point of the region) too, contradicting
       the contract that the source tree is dominance-free.  So every
       probe's verdict, its hit leaves and its first dominating leaf
       are those against the starting tree.
    3. Compaction keeps pre-order as a subsequence, so pop-order
       comparisons between the nodes still present are unchanged.

    What varies from leaf to leaf is only which skyline points, hence
    which nodes, are still present: at leaf ``j``, those whose kill
    rank is at least ``j`` (a leaf's probe runs before its own
    deletions).  Once a leaf's accepted points delete the last skyline
    point, every later row of the frontier is grafted unprobed, as
    Alg. 4 does.
    """
    leaves = np.flatnonzero(src.is_leaf)
    leaf_depth = src.depth[leaves[0]]
    if np.any(src.depth[leaves] != leaf_depth):
        raise ZOrderError(
            "Z-merge needs a source tree whose leaves all sit at one depth"
        )
    if sky.is_empty:
        # Nothing can dominate or be deleted: the source survives whole.
        counter.nodes_visited += 1
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes = src.num_nodes
    sizes = np.concatenate((np.ones(nodes, dtype=np.int64), src.npoints[leaves]))
    probed, handed, tested = sky._probe(
        GridRows.concat(src.grid_min, src.grid_points), sizes
    )
    # Lemma 1 case 2 against the whole skyline tree, for every source
    # node at once: the root corners are stable for the scan's duration
    # (deletions keep stale, conservatively-large regions).
    rmin, rmax = sky.minpt[0], sky.maxpt[0]
    sky_may_dominate = np.all(rmin <= src.maxpt, axis=1) & np.any(
        rmin < src.maxpt, axis=1
    )
    src_may_dominate = np.all(src.minpt <= rmax, axis=1) & np.any(
        src.minpt < rmax, axis=1
    )
    comparable = sky_may_dominate | src_may_dominate
    dominated = probed[:nodes]
    graft = ~dominated & ~comparable
    descend = ~dominated & comparable  # at a leaf: decide its points
    reached = np.empty(nodes, dtype=bool)
    reached[0] = True
    reached[1:] = src.down(descend & ~src.is_leaf)[src.parent[1:]]

    # the frontiers, in BFS order: reached rows by depth, pre-order within
    rows = np.flatnonzero(reached)
    depth = src.depth[rows]
    rows = rows[np.argsort(depth, kind="stable")]
    heads = np.flatnonzero(np.diff(np.sort(depth), prepend=-1))
    counter.nodes_visited += rows.shape[0]
    counter.region_tests += 2 * rows.shape[0]  # corner probes, Lemma 1
    sky._charge_probe(
        counter,
        np.diff(np.append(heads, rows.shape[0])),
        np.add.reduceat(handed[:, rows], heads, axis=1),
        np.add.reduceat(tested[:, rows], heads, axis=1),
        sky.npoints[:, None],
    )

    accepted = np.empty(0, dtype=np.int64)
    decided_leaves = np.flatnonzero(descend & reached & src.is_leaf)
    if decided_leaves.size:
        # the leaf step (probe, accept, UDominate) for all of the last
        # frontier's leaves at once, charged leaf by leaf
        block_sizes = src.npoints[decided_leaves]
        offsets = concat_ranges(src.pstart[decided_leaves], block_sizes)
        groups = nodes + np.searchsorted(leaves, decided_leaves)
        keep, decided = sky.decide_blocks(
            src.grid_points[offsets],
            block_sizes,
            (probed[nodes + offsets], handed[:, groups], tested[:, groups]),
            counter,
        )
        accepted = offsets[: keep.shape[0]][keep]
        if sky.is_empty:
            # the rest of the last frontier is grafted, unprobed
            later = np.arange(nodes) > decided_leaves[decided - 1]
            graft |= later & (src.depth == leaf_depth)
    return rows[graft[rows]], accepted


def zmerge_all(
    trees: Iterable[ZBTree], counter: Optional[OpCounter] = None
) -> ZBTree:
    """Fold many dominance-free candidate trees into one skyline tree.

    A plain left fold of :func:`zmerge`, as in Algorithm 4: every fold
    merges into a freshly built, balanced skyline tree, so Lemma 1
    region pruning always sees tight RZ-regions.  The inputs are never
    mutated and the result shares no arrays with them: the first tree
    is cloned once (:func:`repro.zorder.zbtree.rebuild` reuses the
    stored Z-addresses, so nothing is re-encoded), and so is a tree an
    empty accumulator adopts.  Raises ``ValueError`` for an empty
    iterable.
    """
    counter = counter if counter is not None else OpCounter()
    iterator = iter(trees)
    try:
        result = rebuild(next(iterator))
    except StopIteration:
        raise ValueError("zmerge_all needs at least one tree") from None
    for tree in iterator:
        if result.is_empty:
            result = rebuild(tree)
        elif not tree.is_empty:
            # the accumulator is this function's own tree
            result = _fold(result, tree, counter)
    return result

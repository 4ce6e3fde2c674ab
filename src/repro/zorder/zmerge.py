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

The scan runs one BFS frontier (one depth of ``src``, in pre-order) at
a time, and every tree-side operation is a flat walk: a few kernel
passes over the skyline tree's pre-order table instead of one numpy
dispatch per node, with the node-by-node walk's
:class:`~repro.zorder.zbtree.OpCounter` charges reproduced exactly.  A
frontier costs one min-corner probe
(:meth:`~repro.zorder.zbtree.ZBTree.dominated_mask_tree`), one Lemma 1
broadcast and, for all of its leaves together,
:meth:`~repro.zorder.zbtree.ZBTree.decide_blocks`: one probe pass over
the union of the leaf blocks, one ``UDominate`` pass that finds each
skyline point's *kill rank* (the first leaf, in visit order, whose
accepted points delete it) and one compaction.  Alg. 4 decides those
leaves one at a time, each probe seeing the deletions of the leaves
before it; the kill ranks say which points each leaf's walks would
see, so every leaf is charged what its own walks cost.  The scan works
on ``src`` rows: a graft is its subtree's point range and the accepted
points are point offsets.

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

    The BFS runs level-batched.  Each frontier (an array of ``src``
    rows, all at one depth, in pre-order) sends its min-corner
    dominator probes through one :meth:`ZBTree.dominated_mask_tree`
    walk and its Lemma 1 incomparability tests through one broadcast,
    then decides all of its remaining leaves with one
    :meth:`ZBTree.decide_blocks`, charged leaf by leaf in visit order
    as Alg. 4 decides them.  Batching ahead of the deletions is exact,
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
       are those against the frontier's starting tree.
    3. Compaction keeps pre-order as a subsequence, so pop-order
       comparisons between the nodes still present are unchanged.

    What varies from leaf to leaf is only which skyline points, hence
    which nodes, are still present: at leaf ``j``, those whose kill
    rank is at least ``j`` (a leaf's probe runs before its own
    deletions).  Once a leaf's accepted points delete the last skyline
    point, every later row of the frontier, and every row of later
    frontiers, is grafted unprobed, as Alg. 4 does.
    """
    grafts = [np.empty(0, dtype=np.int64)]
    accepted = [np.empty(0, dtype=np.int64)]
    if not sky.is_empty:
        # Lemma 1 case 2 against the whole skyline tree, for every source
        # node at once: the root corners are stable for the scan's
        # duration (deletions keep stale, conservatively-large regions).
        rmin, rmax = sky.minpt[0], sky.maxpt[0]
        sky_may_dominate = np.all(rmin <= src.maxpt, axis=1) & np.any(
            rmin < src.maxpt, axis=1
        )
        src_may_dominate = np.all(src.minpt <= rmax, axis=1) & np.any(
            src.minpt < rmax, axis=1
        )
        comparable = sky_may_dominate | src_may_dominate
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        counter.nodes_visited += frontier.size
        if sky.is_empty:
            # Every skyline point was deleted by earlier accepted points;
            # whatever remains of the source survives untouched.
            grafts.append(frontier)
            break
        counter.region_tests += frontier.size
        dominated = sky.dominated_mask_tree(src.grid_min[frontier], counter)
        counter.region_tests += frontier.size  # the Lemma 1 tests
        graft = ~dominated & ~comparable[frontier]
        descend = ~dominated & ~graft
        leaf = descend & src.is_leaf[frontier]
        descend &= ~leaf
        if leaf.any():
            # the leaf step (probe, accept, UDominate) for all of the
            # frontier's leaves at once, charged leaf by leaf
            leaves = frontier[leaf]
            sizes = src.npoints[leaves]
            offsets = concat_ranges(src.pstart[leaves], sizes)
            keep, decided = sky.decide_blocks(src.grid_points[offsets], sizes, counter)
            accepted.append(offsets[: keep.shape[0]][keep])
            if sky.is_empty:
                # the rest of the frontier is grafted, unprobed
                after = np.flatnonzero(leaf)[decided - 1] + 1
                graft[after:] = True
                descend[after:] = False
        grafts.append(frontier[graft])
        # children of the descended rows, in pre-order
        below = np.zeros(src.num_nodes, dtype=bool)
        below[frontier[descend]] = True
        frontier = np.flatnonzero(below[src.parent[1:]]) + 1

    return np.concatenate(grafts), np.concatenate(accepted)


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

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

Both tree-side operations of the scan — the batched min-corner dominator
probe and the batched ``UDominate`` deletion — are flat walks
(:meth:`~repro.zorder.zbtree.ZBTree.dominated_mask_tree`,
:meth:`~repro.zorder.zbtree.ZBTree.remove_dominated_by_block`): a few
kernel passes over the skyline tree's cached pre-order table instead of
one numpy dispatch per node, with the node-by-node walk's
:class:`~repro.zorder.zbtree.OpCounter` charges reproduced exactly.  A
deletion that removes something drops the table; the next probe rebuilds
it.

Finally the tree is rebalanced (we rebuild from the surviving points,
which has the same asymptotics at our scales and is far simpler than
incremental rebalancing), so every fold of :func:`zmerge_all` merges
into a balanced tree with tight RZ-regions.

Contract: **both inputs must be dominance-free within themselves** (each
is the skyline of its own point set — exactly what the pipeline's phase-1
reducers emit).  Under that contract the result is the skyline of the
union of the two point sets, which the test suite verifies against the
oracle.  Use :func:`zmerge_all` to fold many candidate trees.

Ownership: :func:`zmerge` mutates its skyline argument in place
(UDominate deletions) and only reads the source tree; the merged tree is
built into fresh arrays.  :func:`zmerge_all` never mutates its inputs and
returns a tree that shares no nodes with them, so long-lived trees (e.g.
the serving router's retained per-shard skyline trees) can be folded
directly.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.zorder.zbtree import (
    OpCounter,
    ZBNode,
    ZBTree,
    build_zbtree,
    rebuild,
)


def zmerge(
    sky: ZBTree, src: ZBTree, counter: Optional[OpCounter] = None
) -> ZBTree:
    """Merge candidate tree ``src`` into skyline tree ``sky``.

    Returns a new balanced ZB-tree containing the skyline of the union,
    except when either side is empty: then the other input is returned
    by reference.  ``sky`` is consumed (its nodes may be mutated by
    deletions) and ``src`` is only read; callers should use the
    returned tree.
    """
    counter = counter if counter is not None else OpCounter()
    if src.root is None:
        return sky
    if sky.root is None:
        return src
    grafts, accepted_points, accepted_ids, accepted_zs = _zmerge_scan(
        sky, src, counter
    )
    return _rebuild_with(sky, grafts, accepted_points, accepted_ids, accepted_zs)


def _zmerge_scan(
    sky: ZBTree, src: ZBTree, counter: OpCounter
) -> Tuple[List[ZBNode], List[np.ndarray], List[np.ndarray], List[int]]:
    """BFS of ``src`` against ``sky`` with three-way region pruning.

    Mutates ``sky`` (UDominate deletions) and returns the material a
    caller needs to assemble the merged tree: grafted subtrees plus the
    accepted leaf point blocks with their id blocks and Z-addresses.

    The BFS runs level-batched: each frontier's min-corner dominator
    probes go through one :meth:`ZBTree.dominated_mask_tree` walk and the
    Lemma 1 incomparability tests through one broadcast, instead of one
    tree walk per node.  Batching ahead of the leaf-acceptance deletions
    is exact, not just conservative: a skyline point that dominates a
    source region's min corner can never itself be deleted during the
    scan — its deleter would be an accepted *source* point transitively
    dominating the probed region's own points, contradicting the
    contract that the source tree is dominance-free.  Deletions only
    shrink the skyline, so batch-time "not dominated" verdicts are
    final too.
    """
    grafts: List[ZBNode] = []
    accepted_points: List[np.ndarray] = []
    accepted_ids: List[np.ndarray] = []
    accepted_zs: List[int] = []

    queue = deque([src.root])
    while queue:
        frontier = list(queue)
        queue.clear()
        counter.nodes_visited += len(frontier)
        if sky.root is None:
            # Every skyline point was deleted by earlier accepted points;
            # whatever remains of the source survives untouched.
            grafts.extend(frontier)
            continue
        minpts = np.stack(
            [node.region.minpt for node in frontier]
        ).astype(np.float64)
        maxpts = np.stack(
            [node.region.maxpt for node in frontier]
        ).astype(np.float64)
        counter.region_tests += len(frontier)
        dominated = sky.dominated_mask_tree(minpts, counter)
        # Lemma 1 case 2 against the whole skyline tree, batched: the
        # root region object is stable for the scan's duration (deletions
        # keep stale, conservatively-large regions), so one broadcast
        # against its corners covers the frontier.
        counter.region_tests += len(frontier)
        root_region = sky.root.region
        rmin = root_region.minpt.astype(np.float64)
        rmax = root_region.maxpt.astype(np.float64)
        sky_may_dominate = np.all(rmin <= maxpts, axis=1) & np.any(
            rmin < maxpts, axis=1
        )
        src_may_dominate = np.all(minpts <= rmax, axis=1) & np.any(
            minpts < rmax, axis=1
        )
        incomparable = ~sky_may_dominate & ~src_may_dominate
        for pos, node in enumerate(frontier):
            if sky.root is None:
                grafts.append(node)
                continue
            if dominated[pos]:
                # Some skyline point dominates the region's min corner,
                # hence every point in the region: discard the subtree.
                continue
            if incomparable[pos]:
                grafts.append(node)
                continue
            if node.is_leaf:
                # Batched UDominate: one tree walk decides the whole leaf
                # block, then one walk deletes the skyline points the
                # accepted block dominates.  Deferring the deletions is
                # safe because source points never dominate each other
                # (the source tree is dominance-free), so a stale skyline
                # point can never wrongly reject a later source point.
                leaf_dominated = sky.dominated_mask_tree(
                    node.points, counter  # type: ignore[union-attr]
                )
                if not leaf_dominated.all():
                    keep = ~leaf_dominated
                    accepted = node.points[keep]  # type: ignore[union-attr]
                    accepted_points.append(accepted)
                    accepted_ids.append(
                        node.ids[keep]  # type: ignore[union-attr]
                    )
                    accepted_zs.extend(
                        z
                        for z, k in zip(node.zaddresses, keep)  # type: ignore[union-attr]
                        if k
                    )
                    sky.remove_dominated_by_block(accepted, counter)
            else:
                queue.extend(node.children)  # type: ignore[union-attr]

    return grafts, accepted_points, accepted_ids, accepted_zs


def _collect_node(
    node: ZBNode,
) -> Tuple[List[int], List[np.ndarray], List[np.ndarray]]:
    """Gather (zaddresses, point blocks, id blocks) of a grafted subtree."""
    zs: List[int] = []
    blocks: List[np.ndarray] = []
    ids: List[np.ndarray] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            zs.extend(n.zaddresses)  # type: ignore[union-attr]
            blocks.append(n.points)  # type: ignore[union-attr]
            ids.append(n.ids)  # type: ignore[union-attr]
        else:
            stack.extend(n.children)  # type: ignore[union-attr]
    return zs, blocks, ids


def _rebuild_with(
    sky: ZBTree,
    grafts: List[ZBNode],
    accepted_points: List[np.ndarray],
    accepted_ids: List[np.ndarray],
    accepted_zs: List[int],
) -> ZBTree:
    """Combine surviving skyline points, grafts, and accepted leaves."""
    zs, points, ids = sky.collect()
    all_zs: List[int] = list(zs)
    blocks: List[np.ndarray] = [points] if points.shape[0] else []
    id_blocks: List[np.ndarray] = [ids] if ids.shape[0] else []
    for node in grafts:
        gz, gblocks, gids = _collect_node(node)
        all_zs.extend(gz)
        blocks.extend(gblocks)
        id_blocks.extend(gids)
    if accepted_points:
        all_zs.extend(accepted_zs)
        blocks.append(np.vstack(accepted_points))
        id_blocks.append(
            np.concatenate(accepted_ids).astype(np.int64, copy=False)
        )
    if not blocks:
        return ZBTree(sky.codec, None, sky.leaf_capacity, sky.fanout)
    merged_points = np.vstack(blocks)
    merged_ids = np.concatenate(id_blocks)
    return build_zbtree(
        sky.codec,
        merged_points,
        ids=merged_ids,
        zaddresses=all_zs,
        leaf_capacity=sky.leaf_capacity,
        fanout=sky.fanout,
    )


def zmerge_all(
    trees: Iterable[ZBTree], counter: Optional[OpCounter] = None
) -> ZBTree:
    """Fold many dominance-free candidate trees into one skyline tree.

    A plain left fold of :func:`zmerge`, as in Algorithm 4: every fold
    merges into a freshly built, balanced skyline tree, so Lemma 1
    region pruning always sees tight RZ-regions.  The inputs are never
    mutated and the result shares no nodes with them: the first tree
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
        if result.root is None:
            result = rebuild(tree)
        else:
            result = zmerge(result, tree, counter)
    return result

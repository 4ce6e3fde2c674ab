"""The ZB-tree: a balanced tree over Z-sorted points with RZ-region nodes.

Leaves store blocks of Z-sorted grid points (numpy arrays, so leaf-level
dominance tests are vectorised); internal nodes store the RZ-region of
their subtree.  The tree is built bottom-up from the Z-sorted input, as in
Lee et al. [5].

Deletion support (needed by Z-merge's ``UDominate``) filters leaf blocks in
place and drops emptied nodes.  Regions are *not* recomputed after
deletions: a stale region is a superset of the live one, which keeps every
pruning test conservative and therefore safe (see the proofs in the method
docstrings).

Flat walks.  The batched dominator probe
(:meth:`ZBTree.dominated_mask_tree`), the batched ``UDominate`` deletion
(:meth:`ZBTree.remove_dominated_by_block`) and Z-search
(:func:`repro.zorder.zsearch.zsearch`) do not visit nodes one at a time:
each runs a few chunked passes of the pairwise kernel
(:func:`repro.core.point.dominance_blocks`) over a :class:`FlatView`, a
pre-order table of the current tree state that the tree caches and drops
on any change.  Answers and :class:`OpCounter` charges are exactly those
of a node-by-node walk of the same tree (the cost model reads the
charges), computed in closed form: whether a walk reaches a node is a
condition on its root path, and what it has decided by then depends only
on the walk order, which pre-order positions encode (docs/INTERNALS.md
§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ZOrderError
from repro.core.point import dominance_blocks, pairwise_dominance, rows_per_chunk
from repro.zorder.encoding import ZGridCodec
from repro.zorder.rzregion import RZRegion

DEFAULT_LEAF_CAPACITY = 32
DEFAULT_FANOUT = 8


@dataclass
class OpCounter:
    """Operation counts used by the simulated cost model.

    ``point_tests`` counts point-vs-point dominance tests (a vectorised
    test of one point against a block of ``m`` points counts ``m``);
    ``region_tests`` counts RZ-region dominance tests (Lemma 1 or
    point-vs-region); ``nodes_visited`` counts tree nodes touched.
    """

    point_tests: int = 0
    region_tests: int = 0
    nodes_visited: int = 0

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another counter's totals into this one."""
        self.point_tests += other.point_tests
        self.region_tests += other.region_tests
        self.nodes_visited += other.nodes_visited

    def total(self) -> int:
        """Single scalar cost figure (used for makespan accounting)."""
        return self.point_tests + self.region_tests + self.nodes_visited


class ZBLeaf:
    """Leaf node: a Z-sorted block of points with their ids and region."""

    __slots__ = ("zaddresses", "points", "ids", "region")

    def __init__(
        self,
        zaddresses: List[int],
        points: np.ndarray,
        ids: np.ndarray,
        codec: ZGridCodec,
        region: Optional[RZRegion] = None,
    ) -> None:
        self.zaddresses = zaddresses
        self.points = points
        self.ids = ids
        # The bulk build precomputes all regions in one vectorised pass
        # and passes them in; standalone construction derives the region.
        self.region = (
            region
            if region is not None
            else RZRegion(codec, zaddresses[0], zaddresses[-1])
        )

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def data_minz(self) -> int:
        return self.zaddresses[0]

    @property
    def data_maxz(self) -> int:
        return self.zaddresses[-1]


class ZBInternal:
    """Internal node: ordered children plus the covering RZ-region."""

    __slots__ = ("children", "region")

    def __init__(
        self,
        children: List["ZBNode"],
        codec: ZGridCodec,
        region: Optional[RZRegion] = None,
    ) -> None:
        self.children = children
        self.region = (
            region
            if region is not None
            else RZRegion(codec, children[0].data_minz, children[-1].data_maxz)
        )

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def size(self) -> int:
        return sum(child.size for child in self.children)

    @property
    def data_minz(self) -> int:
        return self.children[0].data_minz

    @property
    def data_maxz(self) -> int:
        return self.children[-1].data_maxz


ZBNode = Union[ZBLeaf, ZBInternal]


class FlatView:
    """Pre-order table of one ZB-tree state, the input of the flat walks.

    Row ``u`` describes the ``u``-th node of a pre-order traversal
    (children in stored order), so the subtree of ``u`` is the row range
    ``[u, end[u])`` and its points are ``points[pstart[u]:pstart[u] +
    size[u]]`` — leaves in pre-order are the Z-order scan order of a
    bulk-built tree.  Built by :meth:`ZBTree.flat` and cached there until
    the next mutation.

    Attributes
    ----------
    nodes:
        The node objects, in pre-order.
    minpt, maxpt:
        ``(N, d)`` float64 region corners.
    parent, depth, end, nchild:
        Per-node parent row (``-1`` for the root), depth (root 0),
        subtree end row and child count (0 for leaves).
    is_leaf, size, pstart:
        Leaf flags, points per subtree, and each subtree's first offset
        into ``points``.
    levels:
        Row indices per depth ``1..height-1``, for path conditions.
    points, ids, point_node:
        Concatenated leaf points (float64) and ids in pre-order, and the
        row of the leaf holding each point.
    """

    __slots__ = (
        "nodes", "minpt", "maxpt", "parent", "depth", "end", "nchild",
        "is_leaf", "size", "pstart", "levels", "points", "ids", "point_node",
    )

    def __init__(self, root: ZBNode) -> None:
        nodes: List[ZBNode] = []
        parent: List[int] = []
        depth: List[int] = []
        end: List[int] = []
        pstart: List[int] = []
        nchild: List[int] = []
        leaves: List[ZBLeaf] = []
        levels: List[List[int]] = []
        offset = 0
        # An int on the stack closes that row's subtree: every node
        # pushed after it (its descendants) has been numbered by then.
        stack: List[Union[Tuple[ZBNode, int, int], int]] = [(root, -1, 0)]
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                end[item] = len(nodes)
                continue
            node, par, dep = item
            row = len(nodes)
            nodes.append(node)
            parent.append(par)
            depth.append(dep)
            pstart.append(offset)
            end.append(row + 1)
            if dep >= len(levels):
                levels.append([])
            levels[dep].append(row)
            if isinstance(node, ZBLeaf):
                leaves.append(node)
                nchild.append(0)
                offset += node.size
            else:
                nchild.append(len(node.children))
                stack.append(row)
                stack.extend((child, row, dep + 1) for child in reversed(node.children))
        self.nodes = nodes
        self.parent = np.array(parent, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        self.nchild = np.array(nchild, dtype=np.int64)
        self.pstart = np.array(pstart, dtype=np.int64)
        self.size = np.append(self.pstart, offset)[self.end] - self.pstart
        self.is_leaf = self.nchild == 0
        self.levels = [np.array(rows, dtype=np.int64) for rows in levels[1:]]
        self.minpt = np.array([node.region.minpt for node in nodes], dtype=np.float64)
        self.maxpt = np.array([node.region.maxpt for node in nodes], dtype=np.float64)
        points = np.concatenate([leaf.points for leaf in leaves])
        self.points = points.astype(np.float64, copy=False)
        self.ids = np.concatenate([leaf.ids for leaf in leaves])
        self.point_node = np.repeat(
            np.flatnonzero(self.is_leaf), [leaf.size for leaf in leaves]
        )

    @property
    def count(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def down(self, mask: np.ndarray) -> np.ndarray:
        """AND a per-node condition down every root path, in place.

        ``mask`` has one row per node; afterwards row ``u`` holds the
        condition at ``u`` *and* at all of its ancestors.
        """
        for rows in self.levels:
            mask[rows] &= mask[self.parent[rows]]
        return mask

    def below(self, flags: np.ndarray) -> np.ndarray:
        """Nodes with a *strict* ancestor among the flagged ones."""
        rows = np.flatnonzero(flags)
        n = self.count
        if rows.size == 0:
            return np.zeros(n, dtype=bool)
        # +1 where a flagged subtree's strict descendants start, -1 where
        # they end; a positive running sum is inside one
        edges = np.bincount(rows + 1, minlength=n + 1) - np.bincount(
            self.end[rows], minlength=n + 1
        )
        return np.cumsum(edges[:n]) > 0

    def pop_rank(self) -> np.ndarray:
        """Position of each node in a children-reversed stack walk.

        Before ``u`` such a walk pops its ``depth[u]`` ancestors and every
        node after ``u``'s subtree in pre-order (the subtrees of later
        siblings of ``u`` and of its ancestors), nothing else.
        """
        return self.depth + self.count - self.end


class ZBTree:
    """A ZB-tree over grid points.

    Construct via :func:`build_zbtree` (bulk bottom-up build); an empty
    tree has ``root is None``.
    """

    def __init__(
        self,
        codec: ZGridCodec,
        root: Optional[ZBNode],
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        self.codec = codec
        self._root = root
        self._flat: Optional[FlatView] = None
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout

    @property
    def root(self) -> Optional[ZBNode]:
        return self._root

    @root.setter
    def root(self, node: Optional[ZBNode]) -> None:
        self._root = node
        self._flat = None

    def flat(self) -> FlatView:
        """The cached :class:`FlatView` of the current (non-empty) tree.

        Every mutation through the tree drops it; code that edits nodes
        directly must not keep using the tree afterwards (Z-merge's
        ownership rule).
        """
        if self._flat is None:
            if self._root is None:
                raise ZOrderError("an empty tree has no flat view")
            self._flat = FlatView(self._root)
        return self._flat

    def __getstate__(self):
        # The flat view is derived, process-local state: keeping it out
        # of pickles keeps equal trees pickle-identical (the distributed
        # cache's idempotent-republish check and the process pool's
        # cache-bytes comparison rely on that).
        state = self.__dict__.copy()
        state["_flat"] = None
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.root is None

    @property
    def size(self) -> int:
        """Number of points currently stored."""
        return 0 if self.root is None else self.root.size

    def height(self) -> int:
        """Height of the tree (0 for empty, 1 for a single leaf)."""
        h = 0
        node = self.root
        while node is not None:
            h += 1
            if node.is_leaf:
                break
            node = node.children[0]
        return h

    def leaves(self) -> Iterator[ZBLeaf]:
        """Yield leaves in Z-order."""
        if self.root is None:
            return
        stack: List[ZBNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node  # type: ignore[misc]
            else:
                stack.extend(reversed(node.children))  # type: ignore[union-attr]

    def collect(self) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """Return all ``(zaddresses, points, ids)`` in Z-order."""
        zs: List[int] = []
        blocks: List[np.ndarray] = []
        id_blocks: List[np.ndarray] = []
        for leaf in self.leaves():
            zs.extend(leaf.zaddresses)
            blocks.append(leaf.points)
            id_blocks.append(leaf.ids)
        if not blocks:
            d = self.codec.dimensions
            return [], np.empty((0, d)), np.empty(0, dtype=np.int64)
        return zs, np.vstack(blocks), np.concatenate(id_blocks)

    def points(self) -> np.ndarray:
        """All stored points in Z-order, shape ``(n, d)``."""
        return self.collect()[1]

    def ids(self) -> np.ndarray:
        """Ids of all stored points in Z-order."""
        return self.collect()[2]

    def range_query(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> np.ndarray:
        """Ids of stored points inside the box ``[lower, upper]``.

        Region pruning: a subtree is visited only if its RZ-region box
        intersects the query box.  Handy general-purpose access path
        for the substrate (and used by analysis tooling).
        """
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if self.root is None:
            return np.empty(0, dtype=np.int64)
        hits: List[np.ndarray] = []
        stack: List[ZBNode] = [self.root]
        while stack:
            node = stack.pop()
            region = node.region
            if np.any(region.maxpt < lower) or np.any(
                region.minpt > upper
            ):
                continue
            if node.is_leaf:
                inside = np.all(
                    (lower <= node.points)  # type: ignore[union-attr]
                    & (node.points <= upper),  # type: ignore[union-attr]
                    axis=1,
                )
                if inside.any():
                    hits.append(node.ids[inside])  # type: ignore[union-attr]
            else:
                stack.extend(node.children)  # type: ignore[union-attr]
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ZOrderError`.

        Invariants: leaves appear in globally non-decreasing Z-order, every
        leaf point's Z-address lies inside every ancestor region, and node
        sizes are consistent.
        """
        zs, points, _ = self.collect()
        if any(zs[i] > zs[i + 1] for i in range(len(zs) - 1)):
            raise ZOrderError("leaf z-addresses are not sorted")
        recomputed = self.codec.encode_grid(points.astype(np.int64))
        if recomputed != zs:
            raise ZOrderError("stored z-addresses disagree with stored points")

        def check(node: ZBNode) -> None:
            if node.is_leaf:
                leaf = node
                for z in leaf.zaddresses:  # type: ignore[union-attr]
                    if not node.region.contains_zaddress(z):
                        raise ZOrderError("leaf point outside leaf region")
                return
            for child in node.children:  # type: ignore[union-attr]
                if not (
                    node.region.minz <= child.region.minz
                    and child.region.maxz <= node.region.maxz
                ):
                    raise ZOrderError("child region escapes parent region")
                check(child)

        if self.root is not None:
            check(self.root)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_dominated(
        self, point: np.ndarray, counter: Optional[OpCounter] = None
    ) -> bool:
        """Is ``point`` dominated by any point stored in the tree?

        A one-probe :meth:`dominated_mask_tree`, charged the same way.
        """
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return bool(self.dominated_mask_tree(point, counter)[0])

    def dominated_mask_tree(
        self, points: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Which probes are dominated by some stored point?

        Returns a boolean array, entry ``i`` True iff ``points[i]`` is
        dominated by a stored point.

        The walk this models is the single-probe walk run for all probes
        at once, a stack walk that hands the still undecided probes down:
        a node popped with a non-empty set ``S`` of undecided probes costs
        one visit and one region test per probe of ``S`` (its min corner
        against the probe), keeps the probes that corner dominates and
        hands them to its ``k`` children (pushed in order, so popped
        children-reversed) or, at a leaf with ``m`` points, tests them
        against its points (``m`` point tests each), which decides every
        probe some leaf point dominates.  A subtree can hold a dominator
        of ``p`` only if its min corner dominates ``p``, so that test on
        the whole root path says whether ``p`` can reach a node.  A
        probe is still undecided at ``u`` iff its first dominating leaf
        comes at or after ``u`` in the pop order
        (:meth:`FlatView.pop_rank`); the flat pass computes that first
        leaf for all probes at once, then every charge in closed form.
        The point and region tests therefore equal those of the walk
        run once per probe; batching shares only the node visits.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        out = np.zeros(n, dtype=bool)
        if self.root is None or n == 0:
            return out
        counter = counter if counter is not None else OpCounter()
        flat = self.flat()
        rank = flat.pop_rank()
        visited = np.zeros(flat.count, dtype=bool)
        visited[0] = True
        counter.region_tests += n
        step = rows_per_chunk(max(flat.count, flat.points.shape[0]))
        for start in range(0, n, step):
            probes = points[start : start + step]
            reach = np.zeros((flat.count, probes.shape[0]), dtype=bool)
            for row, dom in pairwise_dominance(
                flat.minpt, probes, rows_per_chunk(probes.shape[0])
            ):
                reach[row : row + dom.shape[0]] = dom
            flat.down(reach)
            hit = self._leaf_hits(flat, probes, reach.any(axis=1) & flat.is_leaf)
            hit &= reach
            decided = hit.any(axis=0)
            out[start : start + step] = decided
            # Leaves pop in reverse pre-order, so a probe's first
            # dominating leaf is its last one in pre-order.
            last = flat.count - 1 - hit[::-1].argmax(axis=0)
            first = np.where(decided, rank[last], flat.count)
            pending = rank[:, None] <= first[None, :]
            # the probes each non-root node is popped with
            handed = (reach[flat.parent[1:]] & pending[1:]).sum(axis=1)
            counter.region_tests += int(handed.sum())
            visited[1:] |= handed > 0
            tested = (reach & pending).sum(axis=1)
            counter.point_tests += int((tested * flat.size)[flat.is_leaf].sum())
        counter.nodes_visited += int(visited.sum())
        return out

    @staticmethod
    def _leaf_hits(
        flat: FlatView, probes: np.ndarray, leaves: np.ndarray
    ) -> np.ndarray:
        """``(N, len(probes))`` flags: leaf row ``u`` holds a dominator.

        Only the points of the flagged ``leaves`` are tested.
        """
        hit = np.zeros((flat.count, probes.shape[0]), dtype=bool)
        sel = np.flatnonzero(leaves[flat.point_node])
        if sel.size == 0:
            return hit
        owner = flat.point_node[sel]
        width = rows_per_chunk(probes.shape[0])
        for lo in range(0, sel.size, width):
            rows = owner[lo : lo + width]
            # probes x points, so the kernel streams the longer side
            _, dom = next(
                pairwise_dominance(
                    probes, flat.points[sel[lo : lo + width]], probes.shape[0],
                    reverse=True,
                )
            )
            heads = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            hit[rows[heads]] |= np.logical_or.reduceat(dom, heads, axis=1).T
        return hit

    def remove_dominated_by_block(
        self, block: np.ndarray, counter: Optional[OpCounter] = None
    ) -> int:
        """Batched ``UDominate``: delete every stored point dominated by
        *any* row of ``block``.  Returns the removed count.

        The walk this models hands each node the block rows that could
        still dominate something below it.  Node ``u`` reached with rows
        ``B`` costs one visit and ``|B|`` region tests, keeps the rows
        ``R`` weakly below its max corner (``|R|`` more region tests; a
        row above the max corner somewhere dominates nothing inside)
        and then: stops if ``R`` is empty; drops the whole subtree if a
        row of ``R`` dominates its min corner (hence every point of the
        region); at a leaf, tests its ``m`` points against ``R``
        (``m * |R|`` point tests) and deletes the dominated ones;
        otherwise hands ``R`` to every child.  ``R`` at ``u`` is the
        max-corner test ANDed down the root path, so every charge and
        every deletion follows from two kernel passes per row chunk.
        Emptied leaves and internal nodes are dropped; regions are left
        stale.
        """
        block = np.asarray(block, dtype=np.float64)
        if self.root is None or block.shape[0] == 0:
            return 0
        counter = counter if counter is not None else OpCounter()
        flat = self.flat()
        n = flat.count
        step = rows_per_chunk(2 * n)
        chunks = []
        rows_kept = np.zeros(n, dtype=np.int64)
        covers = np.zeros(n, dtype=bool)
        for start in range(0, block.shape[0], step):
            rows = block[start : start + step]
            keep, dom_min = self._udominate_rows(flat, rows)
            rows_kept += keep.sum(axis=1)
            covers |= (dom_min & keep).any(axis=1)
            chunks.append((rows, keep))
        rows_in = np.empty(n, dtype=np.int64)
        rows_in[0] = block.shape[0]
        rows_in[1:] = rows_kept[flat.parent[1:]]
        visited = ~flat.below((rows_kept == 0) | covers | flat.is_leaf)
        dropped = visited & covers
        scanned = visited & flat.is_leaf & ~covers & (rows_kept > 0)
        counter.nodes_visited += int(visited.sum())
        counter.region_tests += int((rows_in + rows_kept)[visited].sum())
        counter.point_tests += int((flat.size * rows_kept)[scanned].sum())
        removed = int(flat.size[dropped].sum())

        # Points of the scanned leaves, each against the rows that
        # reach its leaf.
        dead = np.zeros(flat.points.shape[0], dtype=bool)
        sel = np.flatnonzero(scanned[flat.point_node])
        owner = flat.point_node[sel]
        for rows, keep in chunks:
            width = rows_per_chunk(rows.shape[0])
            for col in range(0, sel.size, width):
                cols = slice(col, col + width)
                _, dom = next(
                    pairwise_dominance(rows, flat.points[sel[cols]], rows.shape[0])
                )
                dom &= keep[owner[cols]].T
                dead[sel[cols]] |= dom.any(axis=0)
        for row in np.flatnonzero(scanned):
            lo = flat.pstart[row]
            gone = dead[lo : lo + flat.size[row]]
            n_gone = int(gone.sum())
            if n_gone == 0:
                continue
            removed += n_gone
            if n_gone == flat.size[row]:
                dropped[row] = True
                continue
            leaf = flat.nodes[row]
            keep_pts = ~gone
            leaf.points = leaf.points[keep_pts]  # type: ignore[union-attr]
            leaf.ids = leaf.ids[keep_pts]  # type: ignore[union-attr]
            leaf.zaddresses = [
                z
                for z, k in zip(leaf.zaddresses, keep_pts)  # type: ignore[union-attr]
                if k
            ]
        if removed == 0:
            return 0
        self._prune(flat, dropped)
        return removed

    @staticmethod
    def _udominate_rows(
        flat: FlatView, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(N, len(rows))`` flags for a chunk of UDominate rows.

        ``keep[u, i]``: row ``i`` is weakly below the max corner of ``u``
        and of every ancestor (it reaches ``u``'s filtered row set);
        ``dom_min[u, i]``: row ``i`` dominates the min corner of ``u``.
        """
        n = flat.count
        corners = np.concatenate((flat.maxpt, flat.minpt))
        _, le, lt = next(dominance_blocks(corners, rows, 2 * n, reverse=True))
        full = le == rows.shape[1]
        keep = flat.down(full[:n])
        return keep, full[n:] & lt[n:]

    def _prune(self, flat: FlatView, dropped: np.ndarray) -> None:
        """Detach the ``dropped`` rows, then every emptied ancestor."""
        marks = np.concatenate(([0], np.cumsum(dropped)))
        touched = (marks[flat.end] - marks[np.arange(flat.count) + 1] > 0) & ~dropped
        for row in np.flatnonzero(touched)[::-1]:
            kids = np.flatnonzero(flat.parent == row)
            alive = kids[~dropped[kids]]
            if alive.size == 0:
                dropped[row] = True
            else:
                flat.nodes[row].children = [  # type: ignore[union-attr]
                    flat.nodes[kid] for kid in alive
                ]
        self._flat = None
        if dropped[0]:
            self._root = None

    def remove_dominated_by(
        self, point: np.ndarray, counter: Optional[OpCounter] = None
    ) -> int:
        """Delete every stored point dominated by ``point``; return count.

        This is the paper's ``UDominate`` removal direction: a one-row
        :meth:`remove_dominated_by_block`, charged the same way.
        Subtrees whose region min point is dominated by ``point`` are
        dropped wholesale (every point of such a region is dominated);
        subtrees whose region max point is not weakly above ``point``
        cannot contain dominated points and are skipped.  Stale
        (too-large) regions after earlier deletions only make these
        tests more conservative.
        """
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return self.remove_dominated_by_block(point, counter)


def build_zbtree(
    codec: ZGridCodec,
    points: np.ndarray,
    ids: Optional[Sequence[int]] = None,
    zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    fanout: int = DEFAULT_FANOUT,
) -> ZBTree:
    """Bulk-build a ZB-tree bottom-up from grid points.

    The build is fully batched: encoding, the (stable) Z-sort, and the
    RZ-region corners of *every* node — leaves and all internal levels —
    are computed in single vectorised kernel passes.  Per-node Python
    work is limited to object construction.

    Parameters
    ----------
    points:
        ``(n, d)`` array of grid coordinates (integer-valued).  May be
        empty.
    ids:
        Optional stable identifiers (default ``0..n-1``).
    zaddresses:
        Optional precomputed Z-addresses matching ``points`` (skips
        re-encoding).  Either a sequence of Python ints or a native
        kernel batch.  They need not be sorted; the build sorts.
    """
    if leaf_capacity < 2 or fanout < 2:
        raise ZOrderError("leaf_capacity and fanout must both be >= 2")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ZOrderError(f"points must be 2-D; got shape {pts.shape}")
    n = pts.shape[0]
    if ids is None:
        id_arr = np.arange(n, dtype=np.int64)
    else:
        id_arr = np.asarray(ids, dtype=np.int64)
        if id_arr.shape != (n,):
            raise ZOrderError("ids must match points length")
    if n == 0:
        return ZBTree(codec, None, leaf_capacity, fanout)

    kernel = codec.kernel
    if zaddresses is None:
        zbatch = codec.encode_grid_batch(pts.astype(np.int64))
    else:
        zbatch = codec.as_zbatch(zaddresses)
        if zbatch.shape[0] != n:
            raise ZOrderError("zaddresses must match points length")

    # Stable sort keeps equal Z-addresses (duplicate grid points) in
    # input order, matching the former Python ``sorted`` behaviour.
    order = kernel.argsort(zbatch)
    zsorted_batch = zbatch[order]
    zsorted = kernel.to_int_list(zsorted_batch)
    psorted = pts[order]
    isorted = id_arr[order]

    # Node index ranges into the sorted arrays, bottom-up: leaves first,
    # then each internal level, so one region_bounds + two decode calls
    # cover every node in the tree.
    leaf_ranges = [
        (start, min(start + leaf_capacity, n))
        for start in range(0, n, leaf_capacity)
    ]
    range_levels: List[List[Tuple[int, int]]] = [leaf_ranges]
    while len(range_levels[-1]) > 1:
        prev = range_levels[-1]
        range_levels.append(
            [
                (prev[start][0], prev[min(start + fanout, len(prev)) - 1][1])
                for start in range(0, len(prev), fanout)
            ]
        )
    all_ranges = [rng for lvl in range_levels for rng in lvl]
    starts = np.fromiter((r[0] for r in all_ranges), dtype=np.int64)
    ends = np.fromiter((r[1] for r in all_ranges), dtype=np.int64)
    minz_b, maxz_b = kernel.region_bounds(
        zsorted_batch[starts], zsorted_batch[ends - 1]
    )
    minpts = codec.decode_batch(minz_b).astype(np.int64)
    maxpts = codec.decode_batch(maxz_b).astype(np.int64)
    minz_ints = kernel.to_int_list(minz_b)
    maxz_ints = kernel.to_int_list(maxz_b)
    regions = [
        RZRegion.from_corners(minz_ints[i], maxz_ints[i], minpts[i], maxpts[i])
        for i in range(len(all_ranges))
    ]

    pos = 0
    level: List[ZBNode] = []
    for start, end in leaf_ranges:
        level.append(
            ZBLeaf(
                zsorted[start:end],
                psorted[start:end],
                isorted[start:end],
                codec,
                region=regions[pos],
            )
        )
        pos += 1
    for range_level in range_levels[1:]:
        parents: List[ZBNode] = []
        child_pos = 0
        for _ in range_level:
            group = level[child_pos : child_pos + fanout]
            child_pos += fanout
            parents.append(ZBInternal(group, codec, region=regions[pos]))
            pos += 1
        level = parents
    return ZBTree(codec, level[0], leaf_capacity, fanout)


def rebuild(tree: ZBTree) -> ZBTree:
    """Rebuild a tree from its surviving points (rebalance after merges)."""
    zs, points, ids = tree.collect()
    return build_zbtree(
        tree.codec,
        points,
        ids=ids,
        zaddresses=zs,
        leaf_capacity=tree.leaf_capacity,
        fanout=tree.fanout,
    )

"""The ZB-tree: a balanced tree over Z-sorted points, stored as its
pre-order node table.

A ZB-tree (Lee et al. [5]) is built bottom-up over Z-sorted points:
leaves hold runs of at most ``leaf_capacity`` consecutive points, each
internal level groups up to ``fanout`` consecutive nodes of the level
below, and every node carries the RZ-region of its Z-address run.  Here
the tree *is* its table: row ``u`` is the ``u``-th node of a pre-order
traversal, so the subtree of ``u`` is the row range ``[u, end[u])`` and
its points are the slice ``pstart[u] : pstart[u] + npoints[u]`` of the
point columns (leaves in pre-order are the Z-order scan).
:func:`build_zbtree` computes the table straight from the sorted
Z-addresses with level arithmetic; there are no node objects.
:func:`build_zbtrees` builds many trees with that per-call work paid
once (one sort, one region-bounds pass, one decode), each tree a slice
of the shared arrays; :func:`build_zbtree` is its one-block case.

Deletion (Z-merge's ``UDominate``) is a keep-mask over the points:
nodes left without points drop out and every column is recomputed by
compaction.  Region corners are *not* recomputed: a stale region is a
superset of the live one, which keeps every pruning test conservative
and therefore safe (see the proofs in the method docstrings).

Flat walks.  The batched dominator probe
(:meth:`ZBTree.dominated_mask_tree`), the batched ``UDominate`` deletion
(:meth:`ZBTree.remove_dominated_by_block`) and Z-search
(:func:`repro.zorder.zsearch.zsearch`) do not visit nodes one at a time:
each runs a few chunked passes of the grid dominance kernel
(:func:`repro.core.point.pairwise_dominance`) over the table, on the
narrow-int columns and exact integer row sums the tree stores once
for its points and region corners.  Answers and
:class:`OpCounter` charges are exactly those of a node-by-node walk of
the same tree (the cost model reads the charges), computed in closed
form: whether a walk reaches a node is a condition on its root path,
and what it has decided by then depends only on the walk order, which
pre-order positions encode (docs/INTERNALS.md §4).  The probe and the
deletion both count per group of probes or rows, so Z-merge charges
all of a fold's frontier probes from one probe pass, and
:meth:`ZBTree.decide_blocks` charges a run of Z-merge leaf steps, each
a probe then a deletion, from that pass's leaf groups and one
deletion pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ZOrderError
from repro.core.point import (
    GridRows,
    grid_dtype,
    is_grid,
    pairwise_dominance,
    row_sums,
    rows_per_chunk,
    sum_dtype,
)
from repro.zorder.encoding import ZGridCodec

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


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for every ``(s, n)`` pair."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


_ZERO = np.zeros(1, dtype=np.int64)


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in ``keys``."""
    heads = np.flatnonzero(keys[1:] != keys[:-1])
    return np.concatenate((_ZERO, heads + 1))


def _add_per_group(out: np.ndarray, values: np.ndarray, group: np.ndarray) -> None:
    """Add the column sums of the bool ``values`` into the columns of
    ``out`` named by ``group``, the non-decreasing group of each
    column."""
    if group[0] == group[-1]:
        out[:, group[0]] += values.sum(axis=1)
        return
    heads = _run_heads(group)
    out[:, group[heads]] += np.add.reduceat(values, heads, axis=1, dtype=np.int64)


class ZBTree:
    """A ZB-tree over grid points, as its pre-order node table.

    Construct via :func:`build_zbtree`, which admits only grid points
    (integers in the codec's range).  Deletions replace columns and
    never write them, so equal trees pickle byte-identically and a
    shallow copy's deletions leave the original as it was.

    Point columns (``n`` rows, the leaves' points in pre-order, i.e.
    Z-order):

    leaf_z, leaf_points, leaf_ids:
        Native Z-address batch, ``(n, d)`` float64 grid points, ids.
    point_node:
        Row of the leaf holding each point.
    grid_points:
        The points in the grid kernel's layout
        (:class:`~repro.core.point.GridRows`: ``uint16`` columns for
        ``bits_per_dim <= 16``, else ``uint32``, plus exact row sums),
        derived once per tree; every dominance walk reads these.

    Node columns (``N`` rows, pre-order; none for an empty tree):

    minpt, maxpt:
        ``(N, d)`` float64 region corners; ``grid_min`` and ``grid_max``
        hold them in the grid kernel's layout.
    parent, depth, end:
        Parent row (``-1`` for the root), depth (root 0) and subtree
        end row.
    pstart, npoints, is_leaf:
        First point offset and point count of each subtree; leaf flags.
    levels:
        Row indices per depth ``1..height-1``, for path conditions.
    """

    def __init__(
        self,
        codec: ZGridCodec,
        leaf_z: np.ndarray,
        leaf_points: np.ndarray,
        leaf_ids: np.ndarray,
        minpt: np.ndarray,
        maxpt: np.ndarray,
        parent: np.ndarray,
        depth: np.ndarray,
        end: np.ndarray,
        pstart: np.ndarray,
        npoints: np.ndarray,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        fanout: int = DEFAULT_FANOUT,
        grid_points: Optional[GridRows] = None,
        grid_min: Optional[GridRows] = None,
        grid_max: Optional[GridRows] = None,
    ) -> None:
        self.codec = codec
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self._set_table(
            leaf_z, leaf_points, leaf_ids, minpt, maxpt, parent, depth, end,
            pstart, npoints, (grid_points, grid_min, grid_max),
        )

    def _set_table(
        self, leaf_z, leaf_points, leaf_ids, minpt, maxpt, parent, depth,
        end, pstart, npoints, grids,
    ) -> None:
        """Install the table columns and derive leaf flags, per-depth
        rows, each point's leaf row and the grid-kernel columns of the
        points, min and max corners that ``grids`` leaves ``None``."""
        self.leaf_z = leaf_z
        self.leaf_points = leaf_points
        self.leaf_ids = leaf_ids
        self.minpt = minpt
        self.maxpt = maxpt
        self.parent = parent
        self.depth = depth
        self.end = end
        self.pstart = pstart
        self.npoints = npoints
        # Internal nodes always have a child, which directly follows them.
        self.is_leaf = end == np.arange(1, end.shape[0] + 1)
        height = int(depth.max()) + 1 if depth.shape[0] else 0
        self.levels = [np.flatnonzero(depth == k) for k in range(1, height)]
        leaves = np.flatnonzero(self.is_leaf)
        self.point_node = np.repeat(leaves, npoints[leaves])
        dtype = self.grid_dtype
        self.grid_points, self.grid_min, self.grid_max = (
            GridRows.of(rows, dtype) if grid is None else grid
            for grid, rows in zip(grids, (leaf_points, minpt, maxpt))
        )

    @property
    def grid_dtype(self) -> type:
        """Column dtype of the grid-kernel layout for this codec."""
        return grid_dtype(self.codec.cells_per_dim - 1)

    def as_grid(self, points: Union[np.ndarray, GridRows]) -> GridRows:
        """Probe rows in the grid kernel's layout.

        :class:`GridRows` (another tree's stored columns) pass through.
        ``(n, d)`` points must hold integers in ``[0, 2^32)`` (a probe
        may lie beyond the codec's grid; its columns then widen) and
        raise :class:`ZOrderError` otherwise, never truncated.
        """
        if isinstance(points, GridRows):
            return points
        d = self.codec.dimensions
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, d)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ZOrderError(f"expected (n, {d}) probe rows; got shape {pts.shape}")
        if not is_grid(pts):
            raise ZOrderError("probe rows must hold integers in [0, 2^32)")
        top = int(pts.max()) if pts.size else 0
        return GridRows.of(pts, grid_dtype(max(top, self.codec.cells_per_dim - 1)))

    @classmethod
    def empty(
        cls,
        codec: ZGridCodec,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        fanout: int = DEFAULT_FANOUT,
    ) -> "ZBTree":
        """A tree with no points and no nodes."""
        d = codec.dimensions

        def rows():
            return np.empty(0, dtype=np.int64)

        def corners():
            return np.empty((0, d), dtype=np.float64)

        return cls(
            codec, codec.kernel.from_ints([]), corners(), rows(), corners(),
            corners(), rows(), rows(), rows(), rows(), rows(), leaf_capacity,
            fanout,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.leaf_ids.shape[0] == 0

    @property
    def size(self) -> int:
        """Number of points currently stored."""
        return int(self.leaf_ids.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of nodes (table rows)."""
        return int(self.parent.shape[0])

    def height(self) -> int:
        """Height of the tree (0 for empty, 1 for a single leaf)."""
        return len(self.levels) + 1 if self.num_nodes else 0

    def collect(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of all ``(zaddresses, points, ids)`` in Z-order, the
        Z-addresses as a native kernel batch."""
        return self.leaf_z.copy(), self.leaf_points.copy(), self.leaf_ids.copy()

    def points(self) -> np.ndarray:
        """All stored points in Z-order, shape ``(n, d)``."""
        return self.leaf_points.copy()

    def ids(self) -> np.ndarray:
        """Ids of all stored points in Z-order."""
        return self.leaf_ids.copy()

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
        n = self.num_nodes
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
        return self.depth + self.num_nodes - self.end

    def range_query(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> np.ndarray:
        """Ids of stored points inside the box ``[lower, upper]``.

        Region pruning: a subtree is searched only if its RZ-region box,
        and every ancestor's, intersects the query box.  Handy
        general-purpose access path for the substrate (and used by
        analysis tooling).
        """
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if self.is_empty:
            return np.empty(0, dtype=np.int64)
        meets = self.down(
            np.all(self.maxpt >= lower, axis=1) & np.all(self.minpt <= upper, axis=1)
        )
        pts = self.leaf_points
        inside = meets[self.point_node] & np.all(
            (lower <= pts) & (pts <= upper), axis=1
        )
        return np.sort(self.leaf_ids[inside])

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ZOrderError`.

        Invariants: points appear in non-decreasing Z-order, stored
        Z-addresses match stored points, the grid-kernel columns and
        integer row sums (dtypes included) match the stored points and
        corners, every point's Z-address lies inside its leaf's
        RZ-region, every child region inside its parent's, and node
        point counts add up.
        """
        for grid, rows in (
            (self.grid_points, self.leaf_points),
            (self.grid_min, self.minpt),
            (self.grid_max, self.maxpt),
        ):
            if not (
                grid.cols.dtype == self.grid_dtype
                and grid.sums.dtype == sum_dtype(self.grid_dtype)
                and np.array_equal(grid.cols.T, rows)
                and np.array_equal(grid.sums, rows.sum(axis=1))
            ):
                raise ZOrderError("grid columns disagree with stored rows")
        if self.is_empty:
            return
        kernel = self.codec.kernel
        n = self.size
        if not np.array_equal(kernel.argsort(self.leaf_z), np.arange(n)):
            raise ZOrderError("leaf z-addresses are not sorted")
        recomputed = self.codec.encode_grid_batch(self.leaf_points.astype(np.int64))
        if not np.array_equal(recomputed, self.leaf_z):
            raise ZOrderError("stored z-addresses disagree with stored points")
        # An RZ-region is the prefix-aligned interval of its corners: an
        # address lies inside iff it shares the corners' common prefix.
        minz = self.codec.encode_grid_batch(self.minpt.astype(np.int64))
        maxz = self.codec.encode_grid_batch(self.maxpt.astype(np.int64))
        prefix = kernel.common_prefix_lengths(minz, maxz)
        node = self.point_node
        if np.any(kernel.common_prefix_lengths(self.leaf_z, minz[node]) < prefix[node]):
            raise ZOrderError("leaf point outside leaf region")
        child = np.arange(1, self.num_nodes)
        up = self.parent[child]
        if np.any(
            (prefix[child] < prefix[up])
            | (kernel.common_prefix_lengths(minz[child], minz[up]) < prefix[up])
        ):
            raise ZOrderError("child region escapes parent region")
        below = np.bincount(up, weights=self.npoints[child], minlength=self.num_nodes)
        if np.any(self.npoints <= 0) or np.any(
            below[~self.is_leaf] != self.npoints[~self.is_leaf]
        ):
            raise ZOrderError("node point counts are inconsistent")

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
        self,
        points: Union[np.ndarray, GridRows],
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Which probes are dominated by some stored point?

        Returns a boolean array, entry ``i`` True iff ``points[i]`` is
        dominated by a stored point.  ``points`` are grid points or
        :class:`GridRows` (see :meth:`as_grid`).

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
        comes at or after ``u`` in the pop order (:meth:`pop_rank`); the
        flat pass computes that first leaf for all probes at once, then
        every charge in closed form.  The point and region tests
        therefore equal those of the walk run once per probe; batching
        shares only the node visits.
        """
        points = self.as_grid(points)
        n = len(points)
        if self.is_empty or n == 0:
            return np.zeros(n, dtype=bool)
        counter = counter if counter is not None else OpCounter()
        sizes = np.array([n])
        out, handed, tested = self._probe(points, sizes)
        self._charge_probe(counter, sizes, handed, tested, self.npoints[:, None])
        return out

    def _probe(
        self, points: GridRows, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The probe walk of :meth:`dominated_mask_tree` for consecutive
        groups of ``sizes`` probes, one walk per group.

        Returns the dominated flags and two ``(N, groups)`` counts per
        node: ``handed`` (the group's probes handed to the node by its
        parent; row 0 is zero) and ``tested`` (its probes the node's min
        corner dominates, i.e. those a leaf tests against its points).
        """
        n, count = len(points), self.num_nodes
        group = np.repeat(np.arange(sizes.shape[0]), sizes)
        rank = self.pop_rank()
        out = np.zeros(n, dtype=bool)
        handed = np.zeros((count, sizes.shape[0]), dtype=np.int64)
        tested = np.zeros_like(handed)
        step = rows_per_chunk(max(count, self.size))
        for start in range(0, n, step):
            probes = points[start : start + step]
            reach = np.zeros((count, len(probes)), dtype=bool)
            for row, dom in pairwise_dominance(
                self.grid_min, probes, rows_per_chunk(len(probes))
            ):
                reach[row : row + dom.shape[0]] = dom
            self.down(reach)
            hit = self._leaf_hits(probes, reach.any(axis=1) & self.is_leaf)
            hit &= reach
            decided = hit.any(axis=0)
            out[start : start + step] = decided
            # Leaves pop in reverse pre-order, so a probe's first
            # dominating leaf is its last one in pre-order.
            last = count - 1 - hit[::-1].argmax(axis=0)
            first = np.where(decided, rank[last], count)
            pending = rank[:, None] <= first[None, :]
            groups = group[start : start + step]
            _add_per_group(handed[1:], reach[self.parent[1:]] & pending[1:], groups)
            _add_per_group(tested, reach & pending, groups)
        return out, handed, tested

    def _charge_probe(
        self,
        counter: OpCounter,
        sizes: np.ndarray,
        handed: np.ndarray,
        tested: np.ndarray,
        npoints: np.ndarray,
    ) -> None:
        """Charge one probe walk per group (:meth:`_probe`'s counts) on
        the tree whose nodes hold ``npoints[:, j]`` points at group
        ``j``; a node holding none is absent (deleted) there."""
        present = npoints > 0
        counter.region_tests += int(sizes.sum()) + int((handed * present).sum())
        counter.nodes_visited += sizes.shape[0] + int(
            np.count_nonzero((handed > 0) & present)
        )
        counter.point_tests += int((tested * npoints)[self.is_leaf].sum())

    def _leaf_hits(self, probes: GridRows, leaves: np.ndarray) -> np.ndarray:
        """``(N, len(probes))`` flags: leaf row ``u`` holds a dominator.

        Only the points of the flagged ``leaves`` are tested.
        """
        hit = np.zeros((self.num_nodes, len(probes)), dtype=bool)
        sel = np.flatnonzero(leaves[self.point_node])
        if sel.size == 0:
            return hit
        owner = self.point_node[sel]
        width = rows_per_chunk(len(probes))
        for lo in range(0, sel.size, width):
            rows = owner[lo : lo + width]
            # probes x points, so the kernel streams the longer side
            _, dom = next(
                pairwise_dominance(
                    probes, self.grid_points[sel[lo : lo + width]], len(probes),
                    reverse=True,
                )
            )
            heads = _run_heads(rows)
            # OR over each leaf's run of points (bitwise on the bytes is
            # about twice as fast as the logical reduction)
            hit[rows[heads]] |= (
                np.bitwise_or.reduceat(dom.view(np.uint8), heads, axis=1).view(bool).T
            )
        return hit

    def remove_dominated_by_block(
        self,
        block: Union[np.ndarray, GridRows],
        counter: Optional[OpCounter] = None,
    ) -> int:
        """Batched ``UDominate``: delete every stored point dominated by
        *any* row of ``block`` (grid points or :class:`GridRows`, see
        :meth:`as_grid`).  Returns the removed count.

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
        max-corner test ANDed down the root path, so every charge
        follows from two kernel passes per row chunk, and one more pass
        over the points of the leaves some row reaches finds the
        deletions.  Nodes left without points drop out; regions are left
        stale.
        """
        block = self.as_grid(block)
        if self.is_empty or len(block) == 0:
            return 0
        counter = counter if counter is not None else OpCounter()
        sizes = np.array([len(block)])
        *counts, kill = self._udominate(block, sizes)
        self._charge_udominate(counter, sizes, counts, self.npoints[:, None])
        dead = kill == 0
        removed = int(np.count_nonzero(dead))
        if removed:
            self._keep_points(~dead)
        return removed

    def _udominate(
        self, block: GridRows, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``UDominate`` walk of :meth:`remove_dominated_by_block`
        for consecutive groups of ``sizes`` rows, one walk per group.

        Returns three ``(N, groups)`` arrays, ``rows_kept`` (the group's
        rows that reach each node's filtered set), ``covers`` (one of
        them dominates the node's min corner) and ``visited`` (the walk
        reaches the node: no strict ancestor stopped it, by keeping no
        row, being covered or being a leaf), and each stored point's
        *kill rank*: the first group whose walk deletes it (``groups``
        if none does).  A walk deletes the points of the subtrees it
        covers and the leaf points a row reaching the leaf dominates.
        """
        groups = sizes.shape[0]
        group = np.repeat(np.arange(groups), sizes)
        n = self.num_nodes
        step = rows_per_chunk(2 * n)
        rows_kept = np.zeros((n, groups), dtype=np.int64)
        covering = np.zeros_like(rows_kept)
        kill = np.full(self.size, groups, dtype=np.int64)
        for start in range(0, len(block), step):
            rows = block[start : start + step]
            owner = group[start : start + step]
            keep, dom_min = self._udominate_rows(rows)
            _add_per_group(rows_kept, keep, owner)
            _add_per_group(covering, dom_min & keep, owner)
            sel = np.flatnonzero(keep.any(axis=1)[self.point_node])
            width = rows_per_chunk(len(rows))
            for col in range(0, sel.size, width):
                points = sel[col : col + width]
                _, dom = next(
                    pairwise_dominance(rows, self.grid_points[points], len(rows))
                )
                # points by rows from here: the row-wise passes are faster
                dom = np.ascontiguousarray(dom.T)
                dom &= keep[self.point_node[points]]
                # rows run in group order, so a point's first dominating
                # row belongs to its first dominating group
                first = dom.argmax(axis=1)
                first = np.where(
                    dom[np.arange(first.shape[0]), first], owner[first], groups
                )
                kill[points] = np.minimum(kill[points], first)
        covers = covering > 0
        going = self.down(~((rows_kept == 0) | covers | self.is_leaf[:, None]))
        visited = np.empty_like(going)
        visited[0] = sizes > 0
        visited[1:] = going[self.parent[1:]]
        dropped = visited & covers
        if dropped.any():
            # a covered subtree goes whole, at the first walk that covers
            # a node on the point's root path
            drop = np.where(dropped.any(axis=1), dropped.argmax(axis=1), groups)
            for level in self.levels:
                drop[level] = np.minimum(drop[level], drop[self.parent[level]])
            np.minimum(kill, drop[self.point_node], out=kill)
        return rows_kept, covers, visited, kill

    def _charge_udominate(
        self,
        counter: OpCounter,
        sizes: np.ndarray,
        counts: Tuple[np.ndarray, np.ndarray, np.ndarray],
        npoints: np.ndarray,
    ) -> None:
        """Charge one ``UDominate`` walk per group with rows, from
        :meth:`_udominate`'s ``(rows_kept, covers, visited)``, on the
        tree whose nodes hold ``npoints[:, j]`` points at group ``j``
        (see :meth:`_charge_probe`)."""
        rows_kept, covers, visited = counts
        visited = visited & (npoints > 0)
        rows_in = np.empty_like(rows_kept)
        rows_in[0] = sizes
        rows_in[1:] = rows_kept[self.parent[1:]]
        scanned = visited & self.is_leaf[:, None] & ~covers
        counter.nodes_visited += int(np.count_nonzero(visited))
        counter.region_tests += int((rows_in + rows_kept)[visited].sum())
        counter.point_tests += int((npoints * rows_kept)[scanned].sum())

    def decide_blocks(
        self,
        blocks: GridRows,
        sizes: np.ndarray,
        probe: Tuple[np.ndarray, np.ndarray, np.ndarray],
        counter: OpCounter,
    ) -> Tuple[np.ndarray, int]:
        """Alg. 4's leaf step for consecutive blocks of ``sizes`` rows,
        charged exactly as deciding them one block at a time.

        ``probe`` is :meth:`_probe`'s result for the blocks against the
        tree as it stands, one group per block: the dominated flags of
        their rows and the ``(N, len(sizes))`` ``handed`` and ``tested``
        counts.  Block ``j`` in turn is probed against the tree; its
        undominated rows are accepted and delete the stored points they
        dominate (:meth:`remove_dominated_by_block`) before block
        ``j + 1`` is probed.  Once the tree is empty, no later block is
        decided.  Returns the accepted flags of the decided blocks' rows
        and the number of blocks decided; the tree is compacted once.

        Requires a non-empty tree whose regions hold their points (every
        built or compacted tree) and non-empty blocks whose union is
        dominance-free (a Z-merge source's leaves).  Then a walk deletes
        only points some accepted row dominates, so a row's dominators
        are never deleted (the deleter would dominate the row too):
        every probe's verdict, reach and first dominating leaf are those
        against the tree as it stands now, and one probe pass decides
        all blocks.  One ``UDominate`` pass then gives every stored
        point's kill rank.  What block ``j``'s walks see differs only in
        which points are left: those of kill rank ``>= j`` (its probe
        runs before its own deletions).  Corners stay stale and
        compaction keeps pre-order as a subsequence, so every per-node
        count and pop-order comparison carries over, and each walk's
        charges sum the per-group counts over the nodes still present.
        """
        probed, handed, tested = probe
        accepted = ~probed
        kept = np.add.reduceat(accepted, np.cumsum(sizes) - sizes, dtype=np.int64)
        *counts, kill = self._udominate(blocks[accepted], kept)
        decided = sizes.shape[0]
        if kill.max() < decided:
            # the block holding the last point's first dominator
            # empties the tree; later blocks are never looked at
            decided = int(kill.max()) + 1
        npoints = self._alive_counts(kill, decided)
        self._charge_probe(
            counter, sizes[:decided], handed[:, :decided], tested[:, :decided], npoints
        )
        self._charge_udominate(
            counter, kept[:decided], [c[:, :decided] for c in counts], npoints
        )
        alive = kill >= decided
        if not alive.all():
            self._keep_points(alive)
        return accepted[: int(sizes[:decided].sum())], decided

    def _alive_counts(self, kill: np.ndarray, groups: int) -> np.ndarray:
        """``(N, groups)`` points of each subtree whose kill rank is at
        least ``j``, i.e. still stored when group ``j`` is decided."""
        n = self.num_nodes
        per_leaf = np.bincount(
            self.point_node * (groups + 1) + np.minimum(kill, groups),
            minlength=n * (groups + 1),
        ).reshape(n, groups + 1)
        alive = np.cumsum(per_leaf[:, ::-1], axis=1)[:, :0:-1]
        # a subtree's rows are [u, end[u]), so prefix sums over rows
        before = np.zeros((n + 1, groups), dtype=np.int64)
        np.cumsum(alive, axis=0, out=before[1:])
        return before[self.end] - before[:-1]

    def _udominate_rows(self, rows: GridRows) -> Tuple[np.ndarray, np.ndarray]:
        """``(N, len(rows))`` flags for a chunk of UDominate rows.

        ``keep[u, i]``: row ``i`` is weakly below the max corner of ``u``
        and of every ancestor (it reaches ``u``'s filtered row set);
        ``dom_min[u, i]``: row ``i`` dominates the min corner of ``u``.
        """
        n = self.num_nodes
        _, below = next(
            pairwise_dominance(self.grid_max, rows, n, reverse=True, strict=False)
        )
        _, dom_min = next(pairwise_dominance(self.grid_min, rows, n, reverse=True))
        return self.down(below), dom_min

    def _keep_points(self, keep: np.ndarray) -> None:
        """Delete the points outside ``keep`` by compacting the table.

        A node survives iff it keeps a point, so pre-order survives
        as a subsequence: rows and point offsets renumber by prefix
        counts, and corners stay as they were (stale, hence safe).
        """
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        pstart = kept_before[self.pstart]
        npoints = kept_before[self.pstart + self.npoints] - pstart
        rows = npoints > 0
        rows_before = np.concatenate(([0], np.cumsum(rows)))
        parent = rows_before[self.parent[rows]]
        if parent.shape[0]:
            parent[0] = -1
        self._set_table(
            self.leaf_z[keep], self.leaf_points[keep], self.leaf_ids[keep],
            self.minpt[rows], self.maxpt[rows], parent, self.depth[rows],
            rows_before[self.end[rows]], pstart[rows], npoints[rows],
            (self.grid_points[keep], self.grid_min[rows], self.grid_max[rows]),
        )

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


def zbatch_of(
    codec: ZGridCodec,
    points: np.ndarray,
    zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None,
    checked: bool = False,
) -> np.ndarray:
    """Native Z-address batch of ``(n, d)`` grid ``points``: encoded
    (the encode checks the grid), or ``zaddresses`` coerced after a
    :meth:`~repro.zorder.encoding.ZGridCodec.check_grid` that
    ``checked`` (the points come from a tree's stored columns) skips.
    Off-grid points raise :class:`ZOrderError` either way."""
    if zaddresses is None:
        return codec.encode_grid_batch(points)
    if not checked:
        codec.check_grid(points)
    zbatch = codec.as_zbatch(zaddresses)
    if zbatch.shape[0] != points.shape[0]:
        raise ZOrderError("zaddresses must match points length")
    return zbatch


class TreeBlock(NamedTuple):
    """One tree's input rows for :func:`build_zbtrees`; the optional
    fields mean what :func:`build_zbtree`'s parameters of the same
    names do."""

    points: np.ndarray
    ids: Optional[Sequence[int]] = None
    zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None
    grid: Optional[GridRows] = None


def build_zbtree(
    codec: ZGridCodec,
    points: np.ndarray,
    ids: Optional[Sequence[int]] = None,
    zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    fanout: int = DEFAULT_FANOUT,
    grid: Optional[GridRows] = None,
) -> ZBTree:
    """Bulk-build a ZB-tree bottom-up from grid points: the one-block
    case of :func:`build_zbtrees`.

    Parameters
    ----------
    points:
        ``(n, d)`` array of grid coordinates: integers in
        ``[0, codec.cells_per_dim)``, else :class:`ZOrderError`.  May be
        empty.
    ids:
        Optional stable identifiers (default ``0..n-1``).
    zaddresses:
        Optional precomputed Z-addresses matching ``points`` (skips
        re-encoding).  Either a sequence of Python ints or a native
        kernel batch.  They need not be sorted; the build sorts.
    grid:
        Optional grid-kernel columns of ``points`` that trees of this
        codec already store (so checked); with ``zaddresses`` the build
        skips the grid check and reorders these columns instead of
        deriving new ones.  Z-merge and :func:`rebuild` pass them.
    """
    block = TreeBlock(points, ids, zaddresses, grid)
    return build_zbtrees(codec, (block,), leaf_capacity, fanout)[0]


def build_zbtrees(
    codec: ZGridCodec,
    blocks: Iterable[TreeBlock],
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    fanout: int = DEFAULT_FANOUT,
) -> List[ZBTree]:
    """Bulk-build one ZB-tree per block (a :class:`TreeBlock` or any
    ``(points, ids, zaddresses, grid)`` 4-tuple), in order; an empty
    block gives an empty tree.

    Each tree equals :func:`build_zbtree` of its block, column for
    column, but the per-call work is paid once for all blocks: one
    grid check of the rows with Z-addresses but no grid columns, one
    encode of the rows without Z-addresses, one stable Z-sort and then
    one stable sort by block (skipped for one block), one region-bounds
    pass and one decode for every node's corners, and one conversion
    of the corners (and of the points, unless every block brings its
    grid columns) to the grid kernel's layout.  The trees are slices of
    these arrays.

    A tree writes its pre-order table directly: level ``k`` (leaves are
    level 0) has one node per run of ``leaf_capacity * fanout**k``
    sorted points, and per-level subtree node counts place every node
    in pre-order (:func:`_table`).  The stable sorts keep equal
    Z-addresses (duplicate grid points) in input order.
    """
    if leaf_capacity < 2 or fanout < 2:
        raise ZOrderError("leaf_capacity and fanout must both be >= 2")
    d = codec.dimensions
    trees: List[Optional[ZBTree]] = []
    # the non-empty blocks: tree index, points, ids, Z-addresses, grid
    live, points, ids, zs, grids, sizes = [], [], [], [], [], []
    unchecked, bare = [], []  # rows to grid-check, rows to encode
    for pts, block_ids, zaddresses, grid in blocks:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2:
            raise ZOrderError(f"points must be 2-D; got shape {pts.shape}")
        n = pts.shape[0]
        if block_ids is None:
            block_ids = np.arange(n, dtype=np.int64)
        else:
            block_ids = np.asarray(block_ids, dtype=np.int64)
            if block_ids.shape != (n,):
                raise ZOrderError("ids must match points length")
        if n == 0:
            trees.append(ZBTree.empty(codec, leaf_capacity, fanout))
            continue
        if pts.shape[1] != d:
            raise ZOrderError(f"expected {d} grid columns; got {pts.shape[1]}")
        if zaddresses is None:
            bare.append(pts)
        elif grid is None:
            unchecked.append(pts)
        live.append(len(trees))
        trees.append(None)
        points.append(pts)
        ids.append(block_ids)
        zs.append(zaddresses)
        grids.append(grid)
        sizes.append(n)
    if not live:
        return trees

    kernel = codec.kernel
    if unchecked:
        codec.check_grid(_cat(unchecked))
    encoded = codec.encode_grid_batch(_cat(bare)) if bare else None
    taken = 0
    for k, n in enumerate(sizes):
        if zs[k] is None:
            zs[k] = encoded[taken : taken + n]
            taken += n
            continue
        zs[k] = codec.as_zbatch(zs[k])
        if zs[k].shape[0] != n:
            raise ZOrderError("zaddresses must match points length")
    zbatch = _cat(zs)
    order = kernel.argsort(zbatch)
    if len(live) > 1:
        owner = np.repeat(np.arange(len(live), dtype=np.int32), sizes)
        order = order[np.argsort(owner[order], kind="stable")]
    leaf_z = zbatch[order]
    leaf_points = _cat(points)[order]
    leaf_ids = _cat(ids)[order]
    dtype = grid_dtype(codec.cells_per_dim - 1)
    if None in grids:
        grid_points = GridRows.of(leaf_points, dtype)
    else:
        grid_points = (grids[0] if len(grids) == 1 else GridRows.concat(*grids))[order]

    # per tree: its table, its first point and node in the batch, and
    # the batch offsets of its nodes' first points
    tables, starts, nodes, firsts = [], [0], [0], []
    for n in sizes:
        table = _table(n, leaf_capacity, fanout)
        tables.append(table)
        firsts.append(table[3] + starts[-1] if firsts else table[3])
        starts.append(starts[-1] + n)
        nodes.append(nodes[-1] + table[0].shape[0])
    first = _cat(firsts)
    last = first + _cat([table[4] for table in tables]) - 1
    minz, maxz = kernel.region_bounds(leaf_z[first], leaf_z[last])
    decoded = codec.decode_batch(np.concatenate((minz, maxz)))
    corners = decoded.astype(np.float64)
    # every corner in the grid kernel's layout from one conversion of
    # the decoded integers, sliced per tree
    cols = np.ascontiguousarray(decoded.T, dtype=dtype)
    sums = row_sums(cols)
    total = nodes[-1]
    for k, (index, table) in enumerate(zip(live, tables)):
        span = slice(starts[k], starts[k + 1])
        rows = slice(nodes[k], nodes[k + 1])
        high = slice(total + nodes[k], total + nodes[k + 1])
        trees[index] = ZBTree(
            codec, leaf_z[span], leaf_points[span], leaf_ids[span],
            corners[rows], corners[high], *table, leaf_capacity, fanout,
            grid_points[span],
            GridRows(cols[:, rows], sums[rows]),
            GridRows(cols[:, high], sums[high]),
        )
    return trees


def _cat(arrays: List[np.ndarray]) -> np.ndarray:
    """The arrays concatenated along the first axis (one is returned as
    it is)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _table(
    n: int, leaf_capacity: int, fanout: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(parent, depth, end, pstart, npoints)`` pre-order columns
    of the tree over ``n > 0`` sorted points, by level arithmetic."""
    # Bottom-up, per level: the points each node spans and its subtree
    # node count (a node plus its children's subtrees).
    spans = [leaf_capacity]
    subtree = [np.ones(-(-n // leaf_capacity), dtype=np.int64)]
    while subtree[-1].shape[0] > 1:
        spans.append(spans[-1] * fanout)
        groups = np.arange(0, subtree[-1].shape[0], fanout)
        subtree.append(np.add.reduceat(subtree[-1], groups) + 1)
    height = len(spans)

    # Top-down: a child's row is its parent's plus one plus the subtree
    # sizes of its earlier siblings.
    count = int(subtree[-1][0])
    parent = np.empty(count, dtype=np.int64)
    depth = np.empty(count, dtype=np.int64)
    end = np.empty(count, dtype=np.int64)
    pstart = np.empty(count, dtype=np.int64)
    npoints = np.empty(count, dtype=np.int64)
    row = np.zeros(1, dtype=np.int64)
    parent_row = np.full(1, -1, dtype=np.int64)
    for level in range(height - 1, -1, -1):
        first = np.arange(0, n, spans[level])
        parent[row] = parent_row
        depth[row] = height - 1 - level
        end[row] = row + subtree[level]
        pstart[row] = first
        npoints[row] = np.minimum(first + spans[level], n) - first
        if level:
            sizes = subtree[level - 1]
            before = np.cumsum(sizes) - sizes
            group = np.arange(sizes.shape[0]) // fanout
            row, parent_row = (
                row[group] + 1 + before - before[group * fanout],
                row[group],
            )
    return parent, depth, end, pstart, npoints


def rebuild(tree: ZBTree, keep: Optional[np.ndarray] = None) -> ZBTree:
    """Rebuild a tree from its surviving points (rebalance after merges),
    or from the points a ``keep`` mask over its Z-order selects, reusing
    their stored Z-addresses and grid columns (nothing is re-encoded)."""
    rows = slice(None) if keep is None else keep
    return build_zbtree(
        tree.codec,
        tree.leaf_points[rows],
        ids=tree.leaf_ids[rows],
        zaddresses=tree.leaf_z[rows],
        leaf_capacity=tree.leaf_capacity,
        fanout=tree.fanout,
        grid=tree.grid_points[rows],
    )

"""Dominance tests between points.

The library uses the *minimisation* convention throughout: a point ``p``
dominates a point ``q`` when ``p[k] <= q[k]`` in every dimension ``k`` and
``p[j] < q[j]`` in at least one dimension ``j``.  This matches the paper's
hotel example where both distance-to-downtown and daily rate are minimised.

Who uses what:

* scalar tests over single points (``dominates``, ``compare``) and
  vectorised one-against-many tests (``dominates_block``,
  ``block_dominates``) serve the point-at-a-time and block algorithms
  (BNL/SFS windows);
* :func:`pairwise_dominance` is the one plain-dominance kernel behind
  every many-against-many test.  On grid points (:class:`GridRows`:
  narrow-int columns plus exact row sums) it is one sum compare and one
  ``<=`` pass per dimension.  The ZB-tree walks
  (:mod:`repro.zorder.zbtree`), Z-search (:mod:`repro.zorder.zsearch`),
  :func:`dominated_mask`, :func:`dominance_counts` and the ranking
  extensions all go through it;
* :func:`dominance_blocks` yields the float ``<=``-count and any-``<``
  facts.  Only the k-dominance counts (:mod:`repro.extensions.kdominant`)
  need them, plus the explicit float route of :func:`pairwise_dominance`
  for non-grid input (:func:`kernel_rows`), which only the analysis
  helpers reach with raw floats.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.zorder.zbtree import OpCounter

PointLike = Union[Sequence[float], np.ndarray]

#: pairs per kernel chunk.  A grid-kernel chunk holds two
#: one-byte-per-pair temporaries (the surviving-pair flags and one
#: comparison), so this keeps one chunk's working set near 0.5 MB; a
#: chunk compared in one broadcast keeps its ``d`` comparisons within
#: the same number of bytes.
PAIR_BUDGET = 1 << 18

#: dimensions per early-exit block of the grid kernel: after each block
#: it stops once no pair survives
EXIT_BLOCK = 16


def rows_per_chunk(width: int) -> int:
    """Rows of a kernel chunk against ``width`` columns within
    :data:`PAIR_BUDGET` (read per call, so tests can shrink it)."""
    return max(1, PAIR_BUDGET // max(1, width))


class DominanceRelation(enum.Enum):
    """Outcome of a three-way dominance comparison between two points."""

    DOMINATES = "dominates"
    DOMINATED = "dominated"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def dominates(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p`` dominates ``q`` (minimisation convention).

    ``p`` dominates ``q`` iff ``p <= q`` componentwise and ``p != q``.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p <= q) and np.any(p < q))


def strictly_dominates(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p < q`` in *every* dimension.

    Strict dominance is what Lemma 1 needs for region-level pruning: if the
    max corner of one RZ-region strictly dominates the min corner of
    another, every point of the second region is dominated.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p < q))


def dominates_or_equal(p: PointLike, q: PointLike) -> bool:
    """Return True when ``p <= q`` in every dimension (weak dominance)."""
    p = np.asarray(p)
    q = np.asarray(q)
    return bool(np.all(p <= q))


def compare(p: PointLike, q: PointLike) -> DominanceRelation:
    """Three-way dominance comparison between points ``p`` and ``q``."""
    p = np.asarray(p)
    q = np.asarray(q)
    le = bool(np.all(p <= q))
    ge = bool(np.all(p >= q))
    if le and ge:
        return DominanceRelation.EQUAL
    if le:
        return DominanceRelation.DOMINATES
    if ge:
        return DominanceRelation.DOMINATED
    return DominanceRelation.INCOMPARABLE


def dominates_block(p: PointLike, block: np.ndarray) -> np.ndarray:
    """Vectorised test of one point against a block of points.

    Returns a boolean array where entry ``i`` is True iff ``p`` dominates
    ``block[i]``.  ``block`` must be a 2-D ``(n, d)`` array.
    """
    p = np.asarray(p)
    le = np.all(p <= block, axis=1)
    lt = np.any(p < block, axis=1)
    return le & lt


def block_dominates(block: np.ndarray, p: PointLike) -> np.ndarray:
    """Vectorised test of a block of points against one point.

    Returns a boolean array where entry ``i`` is True iff ``block[i]``
    dominates ``p``.
    """
    p = np.asarray(p)
    le = np.all(block <= p, axis=1)
    lt = np.any(block < p, axis=1)
    return le & lt


def any_dominates(block: np.ndarray, p: PointLike) -> bool:
    """Return True when any point of ``block`` dominates ``p``."""
    if block.shape[0] == 0:
        return False
    return bool(block_dominates(block, p).any())


def dominance_blocks(
    a: np.ndarray,
    b: np.ndarray,
    chunk: int = 512,
    counter: Optional["OpCounter"] = None,
    reverse: bool = False,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Pairwise dominance facts of the rows of ``a`` over those of ``b``.

    Yields ``(start, le, lt)`` for each run of at most ``chunk`` rows of
    ``a`` beginning at row ``start``: ``le[i, j]`` counts the dimensions
    where ``a[start + i] <= b[j]``, and ``lt[i, j]`` says whether
    ``a[start + i] < b[j]`` on any dimension.  So ``a[start + i]``
    k-dominates ``b[j]`` iff ``le >= k`` and ``lt``, and dominates it
    iff ``le == d`` and ``lt``.  With ``reverse=True`` the facts are
    those of ``b[j]`` over ``a[start + i]`` (``>=`` and ``>``), in the
    same ``(rows of a) × (rows of b)`` layout.  ``counter.point_tests``
    grows by one per pair.

    The facts are built as 2-D arrays one dimension at a time, which
    keeps the temporaries at one byte per pair where broadcasting
    ``a[:, None, :] <= b[None, :, :]`` materialises ``d`` of them.  Both
    inputs are first copied column-major, so each comparison streams a
    contiguous run of ``b``'s values; it is fastest when ``b`` is the
    longer side.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a.shape[1]
    count_dtype = np.uint8 if d <= 255 else np.uint16
    cols_a = np.ascontiguousarray(a.T)
    cols_b = np.ascontiguousarray(b.T)
    less_equal, less = (
        (np.greater_equal, np.greater) if reverse else (np.less_equal, np.less)
    )
    for start in range(0, a.shape[0], chunk):
        rows = cols_a[:, start : start + chunk]
        shape = (rows.shape[1], b.shape[0])
        if counter is not None:
            counter.point_tests += shape[0] * shape[1]
        le = np.zeros(shape, dtype=count_dtype)
        lt = np.zeros(shape, dtype=bool)
        test = np.empty(shape, dtype=bool)
        for dim in range(d):
            col_a = rows[dim, :, None]
            col_b = cols_b[dim, None, :]
            less_equal(col_a, col_b, out=test)
            le += test.view(np.uint8)
            less(col_a, col_b, out=test)
            lt |= test
        yield start, le, lt


class GridRows:
    """Grid points in the grid kernel's layout, stored once per block.

    ``cols`` is the ``(d, n)`` column-major matrix of the coordinates as
    ``uint16`` (every value below ``2^16``) or ``uint32``; ``sums`` holds
    the ``(n,)`` exact integer row sums, ``uint32`` for ``uint16``
    columns and ``uint64`` for ``uint32`` ones (:func:`sum_dtype`; no
    sum overflows while ``d < 65537``), so the kernel's strictness test
    never compares floats.  Indexing selects
    rows like an array's first axis (a slice, mask or index array),
    ``len`` is the row count and ``np.asarray`` gives the ``(n, d)``
    float64 points back, so it stands in for a block of points.
    """

    __slots__ = ("cols", "sums")

    def __init__(self, cols: np.ndarray, sums: np.ndarray) -> None:
        self.cols = cols
        self.sums = sums

    @classmethod
    def of(cls, points: np.ndarray, dtype: type) -> "GridRows":
        """Columns and sums of ``(n, d)`` grid points the caller has
        checked (integral, ``0 <= x`` and within ``dtype``'s range)."""
        cols = np.ascontiguousarray(np.asarray(points).T, dtype=dtype)
        return cls(cols, row_sums(cols))

    @classmethod
    def concat(cls, *blocks: "GridRows") -> "GridRows":
        """The rows of ``blocks`` (one dtype) stacked in order."""
        return cls(
            np.concatenate([b.cols for b in blocks], axis=1),
            np.concatenate([b.sums for b in blocks]),
        )

    def __len__(self) -> int:
        return self.sums.shape[0]

    def __getitem__(self, index) -> "GridRows":
        if isinstance(index, slice):
            return GridRows(self.cols[:, index], self.sums[index])
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        # take gathers columns about twice as fast as fancy indexing
        return GridRows(self.cols.take(index, axis=1), self.sums.take(index))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.cols.T.astype(dtype or np.float64)


def grid_dtype(top: int) -> type:
    """Narrowest column dtype holding grid values up to ``top``."""
    return np.uint16 if top < 1 << 16 else np.uint32


def sum_dtype(dtype: type) -> type:
    """Row-sum dtype of :class:`GridRows` columns of ``dtype``: twice
    as wide, so ``d`` values below ``2^16`` (``2^32``) sum exactly for
    any ``d < 65537``."""
    return np.uint32 if np.dtype(dtype) == np.uint16 else np.uint64


def row_sums(cols: np.ndarray) -> np.ndarray:
    """The exact integer row sums of ``(d, n)`` grid columns."""
    return cols.sum(axis=0, dtype=sum_dtype(cols.dtype))


def is_grid(points: np.ndarray, limit: int = 1 << 32) -> bool:
    """Are all values integers in ``[0, limit)``?

    The default ``limit`` is the grid kernel's domain; a codec passes
    its ``cells_per_dim``.  This is the one place the grid condition
    is written.
    """
    pts = np.asarray(points)
    if pts.size == 0:
        return True
    if not (pts.min() >= 0 and pts.max() < limit):
        return False
    return pts.dtype.kind != "f" or bool(np.array_equal(pts, np.floor(pts)))


def kernel_rows(*blocks: np.ndarray) -> Tuple[Union[GridRows, np.ndarray], ...]:
    """The blocks as :func:`pairwise_dominance` inputs.

    All :class:`GridRows` of one dtype when every block holds grid
    values; otherwise all float64 arrays, which route the kernel to its
    float two-comparison path (raw floats, as the analysis helpers
    pass).  Never a silent truncation.
    """
    arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
    if not all(is_grid(a) for a in arrays):
        return tuple(arrays)
    top = max((int(a.max()) for a in arrays if a.size), default=0)
    dtype = grid_dtype(top)
    return tuple(GridRows.of(a, dtype) for a in arrays)


def pairwise_dominance(
    a: Union[GridRows, np.ndarray],
    b: Union[GridRows, np.ndarray],
    chunk: int = 512,
    reverse: bool = False,
    strict: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Plain dominance of the rows of ``a`` over those of ``b``.

    Yields ``(start, dom)`` for each run of at most ``chunk`` rows of
    ``a`` beginning at row ``start``: ``dom[i, j]`` is True iff
    ``a[start + i]`` dominates ``b[j]`` (``reverse=True``: iff ``b[j]``
    dominates ``a[start + i]``, in the same layout, so callers keep the
    longer side in ``b``).  ``strict=False`` drops the any-``<`` part:
    weak dominance, ``<=`` everywhere.

    :class:`GridRows` inputs run the grid kernel.  Given ``all(a <= b)``,
    ``any(a < b)`` holds iff ``sum(a) < sum(b)``, so the strict part is
    one compare of the exact row sums, and each dimension adds one
    in-place ``<=`` pass over the narrow columns, ANDed into the same
    bool matrix.  After every :data:`EXIT_BLOCK` dimensions the chunk
    stops once no pair survives.  A chunk whose ``d`` comparison
    matrices fit :data:`PAIR_BUDGET` bytes together is compared in one
    broadcast instead, since there the per-pass call overhead
    dominates.  Float arrays (:func:`kernel_rows` routes non-grid input
    there) reduce :func:`dominance_blocks`.
    """
    if not isinstance(a, GridRows):
        d = a.shape[1]
        for start, le, lt in dominance_blocks(a, b, chunk, reverse=reverse):
            full = le == d
            yield start, (full & lt) if strict else full
        return
    d = a.cols.shape[0]
    less_equal, less = (
        (np.greater_equal, np.greater) if reverse else (np.less_equal, np.less)
    )
    cols_b = b.cols[:, None, :]
    for start in range(0, len(a), chunk):
        cols = a.cols[:, start : start + chunk, None]
        shape = (cols.shape[1], len(b))
        if strict:
            dom = less(a.sums[start : start + chunk, None], b.sums[None, :])
        else:
            dom = np.ones(shape, dtype=bool)
        if d * shape[0] * shape[1] <= PAIR_BUDGET:
            # small enough for one broadcast over every dimension, which
            # saves the per-dimension call overhead
            dom &= less_equal(cols, cols_b).all(axis=0)
        else:
            test = np.empty(shape, dtype=bool)
            for dim in range(d):
                if dim and dim % EXIT_BLOCK == 0 and not dom.any():
                    break
                less_equal(cols[dim], cols_b[dim], out=test)
                dom &= test
        yield start, dom


def dominated_mask(
    points: np.ndarray, dominators: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """For each row of ``points``, is it dominated by any ``dominators`` row?

    Runs :func:`pairwise_dominance` over runs of at most ``chunk`` rows
    of ``points``, each against dominator runs sized to the kernel's
    pair budget; :func:`kernel_rows` picks the grid kernel or, for
    non-grid values, the float path.  This is the workhorse of
    set-against-set screening, e.g. the maintainer's re-check of rows a
    deleted skyline point shadowed.
    """
    points, dominators = kernel_rows(points, dominators)
    n = len(points)
    out = np.zeros(n, dtype=bool)
    if len(dominators) == 0 or n == 0:
        return out
    for start in range(0, n, chunk):
        part = points[start : start + chunk]
        hit = out[start : start + chunk]
        rows = rows_per_chunk(len(part))
        for _s, dom in pairwise_dominance(dominators, part, rows):
            hit |= dom.any(axis=0)
    return out


def dominance_counts(points: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Return, for each point, the number of points that dominate it.

    Quadratic work through :func:`pairwise_dominance`, chunked and routed
    like :func:`dominated_mask`.  Entry ``i`` is the count of indices
    ``j`` with ``points[j]`` dominating ``points[i]``.
    """
    (points,) = kernel_rows(points)
    n = len(points)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, chunk):
        part = points[start : start + chunk]
        total = counts[start : start + chunk]
        rows = rows_per_chunk(len(part))
        for _s, dom in pairwise_dominance(points, part, rows):
            total += dom.sum(axis=0)
    return counts

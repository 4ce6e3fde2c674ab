"""Dominance tests between points.

The library uses the *minimisation* convention throughout: a point ``p``
dominates a point ``q`` when ``p[k] <= q[k]`` in every dimension ``k`` and
``p[j] < q[j]`` in at least one dimension ``j``.  This matches the paper's
hotel example where both distance-to-downtown and daily rate are minimised.

Two families of helpers are provided:

* scalar tests over single points (``dominates``, ``compare``) used by the
  tree algorithms where points arrive one at a time, and
* vectorised tests over numpy blocks (``dominates_block``,
  ``block_dominates``) used by the block-oriented algorithms (BNL/SFS),
  and
* the one pairwise kernel, :func:`dominance_blocks`, behind every
  many-against-many test: :func:`dominated_mask`,
  :func:`dominance_counts`, the flat ZB-tree walks
  (:mod:`repro.zorder.zbtree`, :mod:`repro.zorder.zsearch`) and the
  extensions (k-dominance, dominance scores, representative top-k).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.zorder.zbtree import OpCounter

PointLike = Union[Sequence[float], np.ndarray]

#: pairs per kernel chunk.  A chunk holds three one-byte-per-pair
#: temporaries (the ``<=`` count, the any-``<`` flag and a scratch
#: comparison), so this keeps one chunk's working set near 1 MB.
PAIR_BUDGET = 1 << 18


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


def pairwise_dominance(
    a: np.ndarray, b: np.ndarray, chunk: int = 512, reverse: bool = False
) -> Iterator[Tuple[int, np.ndarray]]:
    """:func:`dominance_blocks` reduced to plain dominance.

    Yields ``(start, dom)`` with ``dom[i, j]`` True iff ``a[start + i]``
    dominates ``b[j]`` (``reverse=True``: iff ``b[j]`` dominates
    ``a[start + i]``).
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[1]
    for start, le, lt in dominance_blocks(a, b, chunk, reverse=reverse):
        lt &= le == d
        yield start, lt


def dominated_mask(
    points: np.ndarray, dominators: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """For each row of ``points``, is it dominated by any ``dominators`` row?

    Runs the pairwise kernel over runs of at most ``chunk`` rows of
    ``points``, each against dominator runs sized to the kernel's pair
    budget.  This is the workhorse of set-against-set screening, e.g.
    the maintainer's re-check of rows a deleted skyline point shadowed.
    """
    points = np.asarray(points, dtype=np.float64)
    dominators = np.asarray(dominators, dtype=np.float64)
    n = points.shape[0]
    out = np.zeros(n, dtype=bool)
    if dominators.shape[0] == 0 or n == 0:
        return out
    for start in range(0, n, chunk):
        part = points[start : start + chunk]
        hit = out[start : start + chunk]
        rows = rows_per_chunk(part.shape[0])
        for _s, dom in pairwise_dominance(dominators, part, rows):
            hit |= dom.any(axis=0)
    return out


def dominance_counts(points: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """Return, for each point, the number of points that dominate it.

    Quadratic work through the pairwise kernel, chunked like
    :func:`dominated_mask`.  Entry ``i`` is the count of indices ``j``
    with ``points[j]`` dominating ``points[i]``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, chunk):
        part = points[start : start + chunk]
        total = counts[start : start + chunk]
        rows = rows_per_chunk(part.shape[0])
        for _s, dom in pairwise_dominance(points, part, rows):
            total += dom.sum(axis=0)
    return counts

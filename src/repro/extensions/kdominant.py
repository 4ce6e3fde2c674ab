"""k-dominant skylines (Chan, Jagadish, Tan, Tung, Zhang — SIGMOD'06).

In high dimensions almost nothing dominates anything and the skyline
explodes (the paper's 225-D/512-D datasets have skyline = everything).
k-dominance relaxes the requirement: ``p`` k-dominates ``q`` when ``p``
is no worse than ``q`` on *at least k* dimensions and strictly better on
at least one of those.  The k-dominant skyline (points k-dominated by
nobody) shrinks monotonically as k decreases and equals the ordinary
skyline at ``k = d``.

Note the classic subtlety: k-dominance is not transitive, so a
window-eviction algorithm is unsound; we use the two-scan approach over
vectorised comparisons.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import dominance_blocks
from repro.zorder.zbtree import OpCounter


def k_dominates(p: np.ndarray, q: np.ndarray, k: int) -> bool:
    """Does ``p`` k-dominate ``q``?"""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d = p.shape[0]
    _validate_k(k, d)
    le = p <= q
    lt = p < q
    # Best case for p: count the dimensions where it is no worse; among
    # any qualifying k-subset there must be a strict win, which holds
    # iff some strict-win dimension is part of the <=-set (always true
    # since < implies <=) and the <=-count reaches k.
    return bool(le.sum() >= k and lt.any() and (le & lt).any())


def k_dominated_mask(
    points: np.ndarray,
    k: int,
    counter: Optional[OpCounter] = None,
    chunk: int = 512,
) -> np.ndarray:
    """Boolean mask: which rows are k-dominated by some other row."""
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    _validate_k(k, d)
    dominated = np.zeros(n, dtype=bool)
    # Chunks of dominators against every row; a row never k-dominates
    # itself (no strict dimension).
    for _start, le, lt in dominance_blocks(pts, pts, chunk, counter):
        dominated |= ((le >= k) & lt).any(axis=0)
    return dominated


def k_dominant_skyline(
    points: np.ndarray,
    k: int,
    ids: Optional[np.ndarray] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The k-dominant skyline of ``points``.

    Returns ``(points, ids)`` of the rows not k-dominated by any other
    row.  ``k = d`` reduces to the ordinary skyline.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    d = pts.shape[1] if pts.ndim == 2 else 1
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    if n == 0:
        return pts.reshape(0, d), ids
    _validate_k(k, d)
    dominated = k_dominated_mask(pts, k, counter)
    keep = ~dominated
    return pts[keep].copy(), ids[keep].copy()


def _validate_k(k: int, d: int) -> None:
    if not (1 <= k <= d):
        raise DatasetError(f"k must be in [1, {d}]; got {k}")

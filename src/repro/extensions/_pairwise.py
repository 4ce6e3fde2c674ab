"""The column-wise pairwise dominance kernel behind the extensions.

k-dominance, dominance scores and representative top-k all reduce to
two per-pair facts about rows ``a`` and ``b``: on how many dimensions
``a`` is no worse than ``b``, and whether it is strictly better on any.
Building those as 2-D ``(rows × len(b))`` arrays one dimension at a
time keeps the temporaries at one byte per pair, where broadcasting
``a[:, None, :] <= b[None, :, :]`` materialises ``d`` of them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.zorder.zbtree import OpCounter


def dominance_blocks(
    a: np.ndarray,
    b: np.ndarray,
    chunk: int = 512,
    counter: Optional[OpCounter] = None,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Pairwise dominance facts of the rows of ``a`` over those of ``b``.

    Yields ``(start, le, lt)`` for each run of at most ``chunk`` rows of
    ``a`` beginning at row ``start``: ``le[i, j]`` counts the dimensions
    where ``a[start + i] <= b[j]``, and ``lt[i, j]`` says whether
    ``a[start + i] < b[j]`` on any dimension.  So ``a[start + i]``
    k-dominates ``b[j]`` iff ``le >= k`` and ``lt``, and dominates it
    iff ``le == d`` and ``lt``.  ``counter.point_tests`` grows by one
    per pair.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a.shape[1]
    count_dtype = np.uint8 if d <= np.iinfo(np.uint8).max else np.uint16
    for start in range(0, a.shape[0], chunk):
        block = a[start : start + chunk]
        shape = (block.shape[0], b.shape[0])
        if counter is not None:
            counter.point_tests += shape[0] * shape[1]
        le = np.zeros(shape, dtype=count_dtype)
        lt = np.zeros(shape, dtype=bool)
        test = np.empty(shape, dtype=bool)
        for dim in range(d):
            col_a = block[:, dim, None]
            col_b = b[None, :, dim]
            np.less_equal(col_a, col_b, out=test)
            le += test
            np.less(col_a, col_b, out=test)
            lt |= test
        yield start, le, lt

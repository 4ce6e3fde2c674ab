"""Z-search exposed under the common local-algorithm signature ("ZS")."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ZOrderError
from repro.core.point import GridRows, grid_dtype
from repro.zorder.encoding import ZGridCodec
from repro.zorder.zbtree import DEFAULT_LEAF_CAPACITY, OpCounter, build_zbtree, zbatch_of
from repro.zorder.zsearch import accept, accept_groups, charge_one_leaf, zsearch


def zs_skyline(
    points: np.ndarray,
    ids: Optional[np.ndarray] = None,
    counter: Optional[OpCounter] = None,
    codec: Optional[ZGridCodec] = None,
    zaddresses: Optional[Union[Sequence[int], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Skyline via Z-search, in Z-order.

    ``points`` must hold integer grid coordinates (the pipeline quantises
    datasets once up front), else :class:`ZOrderError`.  A wide-enough
    identity codec is derived when none is supplied.  ``zaddresses``
    (ints or a native kernel batch) skips the encode; only meaningful
    together with the ``codec`` that produced them.

    The answer is the scan acceptance over the Z-sorted grid columns.
    A ZB-tree is built only when ``counter`` is given and the points
    span more than one leaf: only then do the walk's charges need the
    node table.  A one-leaf walk is charged in closed form, and a
    counter-less call builds no tree at any size.  Answers and charges
    equal :func:`~repro.zorder.zbtree.build_zbtree` plus
    :func:`~repro.zorder.zsearch.zsearch`.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    d = points.shape[1] if points.ndim == 2 else 1
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    if n == 0:
        return points.reshape(0, d), ids
    if points.ndim != 2:
        raise ZOrderError(f"points must be 2-D; got shape {points.shape}")
    if ids.shape != (n,):
        raise ZOrderError("ids must match points length")
    if codec is None:
        top = int(points.max())
        bits = max(1, top.bit_length())
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
    if counter is not None and n > DEFAULT_LEAF_CAPACITY:
        tree = build_zbtree(codec, points, ids=ids, zaddresses=zaddresses)
        return zsearch(tree, counter=counter)
    order = codec.kernel.argsort(zbatch_of(codec, points, zaddresses))
    rows, ids = points[order], ids[order]
    accepted = accept(GridRows.of(rows, grid_dtype(codec.cells_per_dim - 1)))
    if counter is not None:
        charge_one_leaf(accepted, counter)
    return rows[accepted], ids[accepted]


def zs_skyline_groups(
    points: np.ndarray,
    ids: np.ndarray,
    zaddresses: np.ndarray,
    sizes: np.ndarray,
    codec: ZGridCodec,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`zs_skyline` of many one-leaf groups in one pass.

    ``points``, ``ids`` and ``zaddresses`` (a native batch under
    ``codec``) hold the groups back to back, ``sizes[g]`` rows each,
    and no group may exceed one leaf (:data:`DEFAULT_LEAF_CAPACITY`
    rows).  Returns ``(points, ids, zaddresses, counts)``: each group's
    skyline in Z-order, the groups in input order, and ``counts[g]``
    rows for group ``g``.  Each group's rows, ids, carried addresses
    and charges equal :func:`zs_skyline` on that group alone: one
    ``check_grid``, one stable Z-sort then a stable sort by group
    (so equal addresses keep their input order), one
    :func:`~repro.zorder.zsearch.accept_groups` pass, and the one-leaf
    charges summed in closed form.  Nothing is encoded or decoded.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and int(sizes.max()) > DEFAULT_LEAF_CAPACITY:
        raise ZOrderError(
            f"groups must fit one leaf ({DEFAULT_LEAF_CAPACITY} rows)"
        )
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if points.shape[0] != int(sizes.sum()) or ids.shape != (points.shape[0],):
        raise ZOrderError("points, ids and sizes must agree")
    zbatch = zbatch_of(codec, points, zaddresses)
    groups = np.repeat(np.arange(sizes.shape[0]), sizes)
    order = codec.kernel.argsort(zbatch)
    order = order[np.argsort(groups[order], kind="stable")]
    rows = points[order]
    accepted = accept_groups(
        GridRows.of(rows, grid_dtype(codec.cells_per_dim - 1)), sizes
    )
    if counter is not None:
        charge_one_leaf(accepted, counter, sizes)
    keep = order[accepted]
    counts = np.bincount(groups[accepted], minlength=sizes.shape[0])
    return rows[accepted], ids[keep], zbatch[keep], counts

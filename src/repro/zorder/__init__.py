"""Z-order curve substrate: encoding, RZ-regions, ZB-tree, Z-search, Z-merge.

This package implements the machinery of Lee et al.'s Z-search algorithm
([5] in the paper) that the paper builds on, plus the paper's own Z-merge
(Algorithm 4):

* :mod:`repro.zorder.kernel` — the vectorized Z-kernel: a uint64 fast
  path (when ``dimensions * bits_per_dim <= 64``) and a packed-byte wide
  path for batch interleave/deinterleave/sort/region-bound operations;
* :mod:`repro.zorder.encoding` — quantisation of float points onto a
  ``2^bits``-per-dimension grid and bit-interleaved Z-addresses;
* :mod:`repro.zorder.rzregion` — RZ-regions (Definition 2/3) with the
  three-way region dominance test of Lemma 1;
* :mod:`repro.zorder.zbtree` — the balanced ZB-tree built bottom-up over
  Z-sorted points, stored as its pre-order node table;
* :mod:`repro.zorder.zsearch` — skyline computation over a ZB-tree;
* :mod:`repro.zorder.zmerge` — BFS merge of a candidate ZB-tree into an
  accumulated skyline ZB-tree with region-level pruning.

Semantics note: all z-order algorithms operate on *grid coordinates* — the
integer image of the data under :class:`~repro.zorder.encoding.ZGridCodec`.
The pipeline quantises the dataset once so that every algorithm (including
the BNL/SFS baselines) computes the skyline of the same, well-defined
point set; this mirrors the paper, where "each point is mapped to its
Z-address" before any computation.
"""

from repro.zorder.encoding import ZGridCodec, quantize_dataset
from repro.zorder.kernel import ZKernel
from repro.zorder.rzregion import RegionRelation, RZRegion
from repro.zorder.zbtree import ZBTree, build_zbtree
from repro.zorder.zmerge import zmerge, zmerge_all
from repro.zorder.zsearch import zsearch, zsearch_dataset

__all__ = [
    "RZRegion",
    "RegionRelation",
    "ZBTree",
    "ZGridCodec",
    "ZKernel",
    "build_zbtree",
    "quantize_dataset",
    "zmerge",
    "zmerge_all",
    "zsearch",
    "zsearch_dataset",
]

"""Z-address encoding: quantisation grid and bit interleaving.

A :class:`ZGridCodec` maps float points to integer grid coordinates and
interleaves the coordinate bits into a single Z-address.  At the API
boundary Z-addresses are arbitrary-precision Python ints, so any
dimensionality works (the paper's real datasets go up to 512 dimensions,
i.e. 8192-bit addresses at 16 bits/dimension); internally all batch
operations run on the vectorised :class:`~repro.zorder.kernel.ZKernel`,
which keeps addresses as a ``uint64`` array whenever
``dimensions * bits_per_dim <= 64`` (the *fast path*) and as a packed
big-endian byte matrix otherwise (the *wide path*).  Callers that can
consume native batches should use ``encode_grid_batch`` /
``decode_batch``; ``encode_grid`` / ``decode_many`` keep the legacy
Python-int contract.

Bit layout (most significant first): *level-major, dimension-minor*.  Level
0 holds the most significant bit of every dimension, dimension 0 first:

    z = b(0,0) b(0,1) ... b(0,d-1) b(1,0) ... b(B-1,d-1)

where ``b(l, k)`` is bit ``B-1-l`` of grid coordinate ``k``.

The fundamental property everything else relies on — and which the test
suite property-checks — is *monotonicity with respect to dominance*: if
``p`` weakly dominates ``q`` componentwise then ``z(p) <= z(q)``, so a scan
in increasing Z-address order never visits a dominator after a point it
dominates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import ZOrderError
from repro.core.point import is_grid
from repro.zorder.kernel import KernelStats, ZBatchLike, ZKernel

DEFAULT_BITS_PER_DIM = 16


class ZGridCodec:
    """Quantiser + Z-address codec for a fixed bounding box.

    Parameters
    ----------
    lows, highs:
        Per-dimension bounds of the data space.  Points outside the box are
        clipped onto it (needed because the rule is learned from a sample
        whose bounds may not cover the full data).
    bits_per_dim:
        Grid resolution; the grid has ``2**bits_per_dim`` cells per
        dimension.
    """

    def __init__(
        self,
        lows: Sequence[float],
        highs: Sequence[float],
        bits_per_dim: int = DEFAULT_BITS_PER_DIM,
    ) -> None:
        lo = np.asarray(lows, dtype=np.float64)
        hi = np.asarray(highs, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ZOrderError("lows and highs must be 1-D arrays of equal length")
        if lo.shape[0] == 0:
            raise ZOrderError("codec needs at least one dimension")
        if np.any(hi < lo):
            raise ZOrderError("highs must be >= lows in every dimension")
        if not (1 <= bits_per_dim <= 32):
            raise ZOrderError(
                f"bits_per_dim must be in [1, 32]; got {bits_per_dim}"
            )
        self._lo = lo
        span = hi - lo
        # Constant dimensions quantise everything to cell 0.
        span[span == 0.0] = 1.0
        self._span = span
        self.dimensions = int(lo.shape[0])
        self.bits_per_dim = int(bits_per_dim)
        self.cells_per_dim = 1 << self.bits_per_dim
        self.total_bits = self.dimensions * self.bits_per_dim
        self.max_zaddress = (1 << self.total_bits) - 1
        self._pad_bits = (-self.total_bits) % 8
        self.kernel = ZKernel(self.dimensions, self.bits_per_dim)
        self.fast_path = self.kernel.fast_path
        self.kernel_stats = KernelStats()

    @property
    def lows(self) -> np.ndarray:
        """Per-dimension lower bounds of the quantisation box."""
        return self._lo.copy()

    @property
    def spans(self) -> np.ndarray:
        """Per-dimension extents of the quantisation box."""
        return self._span.copy()

    @classmethod
    def for_dataset(
        cls, dataset: Dataset, bits_per_dim: int = DEFAULT_BITS_PER_DIM
    ) -> "ZGridCodec":
        """Build a codec covering the dataset's bounding box."""
        lo, hi = dataset.bounds()
        return cls(lo, hi, bits_per_dim=bits_per_dim)

    @classmethod
    def unit_cube(
        cls, dimensions: int, bits_per_dim: int = DEFAULT_BITS_PER_DIM
    ) -> "ZGridCodec":
        """Build a codec for the unit hypercube ``[0, 1]^d``."""
        return cls(
            np.zeros(dimensions), np.ones(dimensions), bits_per_dim=bits_per_dim
        )

    @classmethod
    def grid_identity(
        cls, dimensions: int, bits_per_dim: int = DEFAULT_BITS_PER_DIM
    ) -> "ZGridCodec":
        """Codec whose quantisation is the identity on integer grid points.

        Covers ``[0, 2**bits_per_dim]`` per dimension so integer values in
        ``[0, 2**bits_per_dim - 1]`` map to themselves.  Used after
        :func:`quantize_dataset` has snapped a dataset onto the grid.
        """
        hi = float(1 << bits_per_dim)
        return cls(
            np.zeros(dimensions),
            np.full(dimensions, hi),
            bits_per_dim=bits_per_dim,
        )

    # ------------------------------------------------------------------
    # Quantisation
    # ------------------------------------------------------------------
    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Map float points onto integer grid coordinates.

        Uses floor quantisation into half-open cells, which preserves weak
        dominance: ``p <= q`` componentwise implies ``grid(p) <= grid(q)``.

        Returns an ``(n, d)`` uint32 array (also accepts a single point of
        shape ``(d,)``, returning shape ``(d,)``).
        """
        pts = np.asarray(points, dtype=np.float64)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dimensions:
            raise ZOrderError(
                f"expected {self.dimensions}-dimensional points; "
                f"got shape {pts.shape}"
            )
        scaled = (pts - self._lo) / self._span * self.cells_per_dim
        grid = np.floor(scaled).astype(np.int64)
        np.clip(grid, 0, self.cells_per_dim - 1, out=grid)
        grid = grid.astype(np.uint32)
        return grid[0] if squeeze else grid

    def dequantize(self, grid: np.ndarray) -> np.ndarray:
        """Map grid coordinates back to the lower corner of their cells."""
        g = np.asarray(grid, dtype=np.float64)
        return self._lo + g / self.cells_per_dim * self._span

    # ------------------------------------------------------------------
    # Z-address encoding
    # ------------------------------------------------------------------
    def check_grid(self, grid: np.ndarray) -> np.ndarray:
        """``grid`` as a 2-D array, checked to hold this codec's grid
        coordinates: integers in ``[0, cells_per_dim)``.

        Raises :class:`ZOrderError` otherwise, so a float row is never
        truncated onto the grid (its Z-address would disagree with it).
        """
        g = np.atleast_2d(np.asarray(grid))
        if g.shape[1] != self.dimensions:
            raise ZOrderError(
                f"expected {self.dimensions} grid columns; got {g.shape[1]}"
            )
        if not is_grid(g, self.cells_per_dim):
            raise ZOrderError(
                "grid coordinates must be integers in "
                f"[0, {self.cells_per_dim}) for {self.bits_per_dim} bits "
                "per dimension"
            )
        return g

    def encode_grid_batch(self, grid: np.ndarray) -> np.ndarray:
        """Interleave grid coordinates into a *native* Z-address batch.

        ``grid`` is an ``(n, d)`` array of grid coordinates, integers or
        integral floats (:meth:`check_grid`); returns the kernel's
        native form — a ``(n,)`` uint64 array on the fast path, a
        ``(n, W)`` packed-byte matrix on the wide path.  This is the
        hot-path entry point: no Python ints are materialised.
        """
        g = self.check_grid(grid)
        name = "encode_fast" if self.fast_path else "encode_wide"
        self.kernel_stats.record(name, g.shape[0])
        return self.kernel.interleave(g)

    def encode_grid(self, grid: np.ndarray) -> List[int]:
        """Interleave grid coordinates into Z-addresses.

        ``grid`` is an ``(n, d)`` integer array; returns a list of ``n``
        Python ints (the legacy wire form; batch callers should prefer
        :meth:`encode_grid_batch`).
        """
        return self.kernel.to_int_list(self.encode_grid_batch(grid))

    def encode(self, points: np.ndarray) -> List[int]:
        """Quantise float points and return their Z-addresses."""
        return self.encode_grid(self.quantize(np.atleast_2d(points)))

    def encode_one(self, point: np.ndarray) -> int:
        """Z-address of a single float point."""
        return self.encode(np.atleast_2d(point))[0]

    def as_zbatch(self, zaddresses: ZBatchLike) -> np.ndarray:
        """Coerce Python ints or a native array into a native batch."""
        return self.kernel.as_batch(zaddresses)

    def _check_zbatch_range(self, zbatch: np.ndarray) -> None:
        """Reject batches whose addresses exceed ``total_bits``."""
        if zbatch.shape[0] == 0:
            return
        if self.fast_path:
            if self.total_bits < 64 and int(zbatch.max()) > self.max_zaddress:
                raise ZOrderError(
                    f"z-address out of range for {self.total_bits} bits"
                )
        elif self.kernel.pad_bits:
            # Padding bits occupy the top of byte 0 and must be zero.
            if int(zbatch[:, 0].max()) >> (8 - self.kernel.pad_bits):
                raise ZOrderError(
                    f"z-address out of range for {self.total_bits} bits"
                )

    def decode_batch(self, zbatch: np.ndarray) -> np.ndarray:
        """De-interleave a native Z-address batch to ``(n, d)`` uint32."""
        self._check_zbatch_range(zbatch)
        name = "decode_fast" if self.fast_path else "decode_wide"
        self.kernel_stats.record(name, zbatch.shape[0])
        return self.kernel.deinterleave(zbatch)

    def decode_to_grid(self, zaddress: int) -> np.ndarray:
        """De-interleave a Z-address back to grid coordinates ``(d,)``."""
        if not (0 <= zaddress <= self.max_zaddress):
            raise ZOrderError(
                f"z-address {zaddress} out of range for {self.total_bits} bits"
            )
        return self.decode_batch(self.kernel.from_ints([zaddress]))[0]

    def decode_many(self, zaddresses: ZBatchLike) -> np.ndarray:
        """Decode Z-addresses into an ``(n, d)`` grid array.

        Accepts either a native batch or any sequence of Python ints;
        both routes run the vectorised kernel de-interleave.
        """
        return self.decode_batch(self.kernel.as_batch(zaddresses))

    # ------------------------------------------------------------------
    # Prefix arithmetic (used by RZ-regions)
    # ------------------------------------------------------------------
    def common_prefix_length(self, alpha: int, beta: int) -> int:
        """Length in bits of the common prefix of two Z-addresses."""
        diff = alpha ^ beta
        return self.total_bits - diff.bit_length()

    def region_bounds(self, alpha: int, beta: int) -> Tuple[int, int]:
        """Min/max Z-address of the RZ-region covering ``[alpha, beta]``.

        Following Definition 2: keep the common prefix, fill the suffix
        with zeros (min point) or ones (max point).
        """
        if alpha > beta:
            alpha, beta = beta, alpha
        prefix_len = self.common_prefix_length(alpha, beta)
        suffix_len = self.total_bits - prefix_len
        if suffix_len == 0:
            return alpha, alpha
        mask = (1 << suffix_len) - 1
        minz = alpha & ~mask
        maxz = minz | mask
        return minz, maxz

    def __repr__(self) -> str:
        return (
            f"ZGridCodec(d={self.dimensions}, bits={self.bits_per_dim}, "
            f"total_bits={self.total_bits})"
        )


def quantize_dataset(
    dataset: Dataset,
    bits_per_dim: int = DEFAULT_BITS_PER_DIM,
    codec: Optional[ZGridCodec] = None,
) -> Tuple[Dataset, ZGridCodec]:
    """Snap a dataset onto the Z-grid so all algorithms agree exactly.

    Returns ``(snapped_dataset, codec)`` where the snapped dataset holds
    the *integer grid coordinates* as float64 values (exact up to 2**53).
    The pipeline quantises once up front — mirroring the paper, where
    every point is mapped to its Z-address before any skyline work — so
    block-based baselines (BNL/SFS) and z-order algorithms all compute the
    skyline of the same point set.
    """
    if codec is None:
        codec = ZGridCodec.for_dataset(dataset, bits_per_dim=bits_per_dim)
    grid = codec.quantize(dataset.points)
    snapped = Dataset(
        grid.astype(np.float64), ids=dataset.ids, name=f"{dataset.name}[grid]"
    )
    identity = ZGridCodec.grid_identity(
        dataset.dimensions, bits_per_dim=codec.bits_per_dim
    )
    return snapped, identity

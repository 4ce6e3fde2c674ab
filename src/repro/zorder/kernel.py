"""Vectorized Z-address kernel: the bit-twiddling engine under the codec.

Every phase of the pipeline funnels through Z-order arithmetic — mapper
encoding, ZB-tree bulk load, Z-search, Z-merge — so this module keeps
that arithmetic out of the Python interpreter.  A :class:`ZKernel` is
bound to a ``(dimensions, bits_per_dim)`` shape and operates on whole
*batches* of Z-addresses in one of two native forms:

* **fast path** (``total_bits <= 64``): a ``(n,)`` ``uint64`` array.
  Interleave, de-interleave, comparison, sorting, common-prefix and
  RZ-region-bound computation are all single numpy passes.
* **wide path** (``total_bits > 64``): a ``(n, W)`` ``uint8`` matrix of
  big-endian packed bytes (``W = ceil(total_bits / 8)``).  Rows compare
  lexicographically exactly like the big integers they encode, so
  sorting, prefix and region arithmetic stay vectorised; arbitrary
  dimensionality (the paper's 512-d datasets need 8192-bit addresses)
  costs no per-row Python work in the hot paths.

Python ``int`` Z-addresses only materialise at API boundaries
(:meth:`ZKernel.to_int_list` / :meth:`ZKernel.from_ints`) — for pivot
fitting and serialisation, and backwards-compatible codec calls — never
in tree storage or inside the per-batch hot loops.

Both forms share axis-0 indexing semantics (``batch[mask]``,
``np.concatenate([...], axis=0)``), which is what lets
:class:`~repro.mapreduce.types.Block` carry a batch through shuffles and
checkpoints without caring which path produced it.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ZOrderError

#: accepted inputs for batch conversion helpers
ZBatchLike = Union[np.ndarray, Sequence[int]]

_U64_SMEAR_SHIFTS = (1, 2, 4, 8, 16, 32)


def _popcount_u64(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values).astype(np.int64)
    as_bytes = np.ascontiguousarray(values).view(np.uint8)
    return (
        np.unpackbits(as_bytes.reshape(values.shape[0], 8), axis=1)
        .sum(axis=1)
        .astype(np.int64)
    )


def _smear_u64(values: np.ndarray) -> np.ndarray:
    """Propagate each element's most significant set bit downwards,
    yielding the all-ones suffix mask ``2**bit_length(v) - 1``."""
    mask = values.copy()
    for shift in _U64_SMEAR_SHIFTS:
        mask |= mask >> np.uint64(shift)
    return mask


class ZKernel:
    """Batch Z-address arithmetic for a fixed ``(d, bits_per_dim)``."""

    __slots__ = (
        "dimensions",
        "bits_per_dim",
        "total_bits",
        "fast_path",
        "width",
        "pad_bits",
        "_decode_weights",
    )

    def __init__(self, dimensions: int, bits_per_dim: int) -> None:
        if not (1 <= bits_per_dim <= 32):
            # Same bound the codec enforces: decoded grid coordinates
            # are uint32, so a dimension never holds more than 32 bits.
            raise ZOrderError(
                f"bits_per_dim must be in [1, 32]; got {bits_per_dim}"
            )
        self.dimensions = int(dimensions)
        self.bits_per_dim = int(bits_per_dim)
        self.total_bits = self.dimensions * self.bits_per_dim
        self.fast_path = self.total_bits <= 64
        #: packed row width in bytes (8 on the fast path so rows view
        #: directly as big-endian uint64)
        self.width = 8 if self.fast_path else (self.total_bits + 7) // 8
        self.pad_bits = self.width * 8 - self.total_bits
        self._decode_weights = (
            np.int64(1) << np.arange(bits_per_dim - 1, -1, -1, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def interleave(self, grid: np.ndarray) -> np.ndarray:
        """``(n, d)`` grid coordinates -> native Z-address batch.

        One vectorised pass: build the level-major bit matrix, pack it
        to big-endian bytes, and (fast path) view the 8-byte rows as
        ``uint64``.  No per-row Python work on either path.
        """
        g64 = np.asarray(grid).astype(np.uint64)
        n = g64.shape[0]
        b = self.bits_per_dim
        d = self.dimensions
        # bits[i, l, k] = bit (b-1-l) of g[i, k]  -> level-major layout.
        shifts = np.arange(b - 1, -1, -1, dtype=np.uint64)
        bits = (
            (g64[:, None, :] >> shifts[None, :, None]) & np.uint64(1)
        ).astype(np.uint8)
        flat = bits.reshape(n, b * d)
        if self.pad_bits:
            pad = np.zeros((n, self.pad_bits), dtype=np.uint8)
            flat = np.concatenate([pad, flat], axis=1)
        packed = np.packbits(flat, axis=1)
        if self.fast_path:
            return (
                np.ascontiguousarray(packed)
                .view(">u8")
                .ravel()
                .astype(np.uint64)
            )
        return packed

    def deinterleave(self, zbatch: np.ndarray) -> np.ndarray:
        """Native Z-address batch -> ``(n, d)`` uint32 grid coordinates.

        The inverse of :meth:`interleave`: unpack the byte rows to the
        level-major bit matrix and collapse each dimension's bit column
        with one ``matmul`` of the ``(b,)`` level weights and the
        ``(n, b, d)`` bits (a few times faster than ``tensordot``, whose
        reshapes dominate at tree-build sizes).
        """
        matrix = self.to_bytes_matrix(zbatch)
        n = matrix.shape[0]
        if n == 0:
            return np.empty((0, self.dimensions), dtype=np.uint32)
        bits = np.unpackbits(matrix, axis=1)[:, self.pad_bits:]
        bits = bits.reshape(n, self.bits_per_dim, self.dimensions)
        return np.matmul(self._decode_weights, bits).astype(np.uint32)

    def to_bytes_matrix(self, zbatch: np.ndarray) -> np.ndarray:
        """Native batch -> ``(n, W)`` big-endian byte matrix (a view or
        cheap copy; wide batches pass through unchanged)."""
        if self.fast_path:
            return (
                np.ascontiguousarray(zbatch.astype(">u8"))
                .view(np.uint8)
                .reshape(-1, 8)
            )
        return zbatch

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def argsort(self, zbatch: np.ndarray) -> np.ndarray:
        """Stable ascending sort permutation of a batch.

        Stability matters: bulk loads must place equal Z-addresses
        (duplicate grid points) in input order, exactly like the former
        ``sorted(range(n), key=...)`` Python path.
        """
        if self.fast_path:
            return np.argsort(zbatch, kind="stable")
        width = zbatch.shape[1]
        # lexsort's last key is primary, so feed bytes least- to
        # most-significant; lexsort is stable.
        return np.lexsort(tuple(zbatch[:, j] for j in reversed(range(width))))

    def search_keys(self, zbatch: np.ndarray) -> np.ndarray:
        """1-D keys that ``np.searchsorted`` orders like the addresses.

        The fast path's ``uint64`` batch is its own key.  A wide row
        becomes one fixed-width raw-bytes (``V``) item, which numpy
        compares bytewise, i.e. big-endian; unlike an ``S`` string it
        keeps trailing zero bytes.
        """
        if self.fast_path:
            return zbatch
        return np.ascontiguousarray(zbatch).view(f"V{self.width}").ravel()

    # ------------------------------------------------------------------
    # prefix / region arithmetic
    # ------------------------------------------------------------------
    def region_bounds(
        self, alpha: np.ndarray, beta: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised Definition 2: per-pair RZ-region min/max addresses.

        Keeps each pair's common bit prefix and fills the suffix with
        zeros (min) or ones (max).  Inputs need not be ordered; the XOR
        is symmetric.
        """
        if self.fast_path:
            suffix = _smear_u64(alpha ^ beta)
            minz = alpha & ~suffix
            return minz, minz | suffix
        diff_bits = np.unpackbits(alpha ^ beta, axis=1)
        n, total = diff_bits.shape
        differs = diff_bits.any(axis=1)
        first = np.argmax(diff_bits, axis=1)
        columns = np.arange(total)
        suffix_bits = (columns[None, :] >= first[:, None]) & differs[:, None]
        suffix = np.packbits(suffix_bits, axis=1)
        minz = alpha & ~suffix
        return minz, minz | suffix

    def common_prefix_lengths(
        self, alpha: np.ndarray, beta: np.ndarray
    ) -> np.ndarray:
        """Per-pair common-prefix length in bits (int64 array)."""
        if self.fast_path:
            suffix = _smear_u64(alpha ^ beta)
            return self.total_bits - _popcount_u64(suffix)
        diff_bits = np.unpackbits(alpha ^ beta, axis=1)
        differs = diff_bits.any(axis=1)
        first = np.argmax(diff_bits, axis=1)
        return np.where(
            differs, first - self.pad_bits, self.total_bits
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # boundary conversions (python ints only materialise here)
    # ------------------------------------------------------------------
    def to_int_list(self, zbatch: np.ndarray) -> List[int]:
        """Native batch -> list of Python ints (the legacy wire form)."""
        if self.fast_path:
            return zbatch.tolist()
        # one bytes object per row, converted in C
        rows = np.ascontiguousarray(zbatch).view(f"V{zbatch.shape[1]}")
        return list(map(int.from_bytes, rows.ravel().tolist(), repeat("big")))

    def from_ints(self, zaddresses: Sequence[int]) -> np.ndarray:
        """List of Python ints -> native batch (validates range)."""
        if self.fast_path:
            try:
                return np.asarray(zaddresses, dtype=np.uint64)
            except (OverflowError, ValueError) as exc:
                raise ZOrderError(
                    f"z-address out of range for {self.total_bits} bits"
                ) from exc
        try:
            payload = b"".join(
                map(int.to_bytes, map(int, zaddresses), repeat(self.width), repeat("big"))
            )
        except (OverflowError, ValueError) as exc:
            raise ZOrderError(
                f"z-address out of range for {self.total_bits} bits"
            ) from exc
        return (
            np.frombuffer(payload, dtype=np.uint8)
            .reshape(len(zaddresses), self.width)
            .copy()
        )

    def as_batch(self, zaddresses: ZBatchLike) -> np.ndarray:
        """Accept either form — a native batch passes through, anything
        else (lists, tuples, object arrays of ints) converts."""
        if isinstance(zaddresses, np.ndarray):
            if self.fast_path:
                if zaddresses.ndim == 1 and zaddresses.dtype == np.uint64:
                    return zaddresses
            elif (
                zaddresses.ndim == 2
                and zaddresses.dtype == np.uint8
                and zaddresses.shape[1] == self.width
            ):
                return zaddresses
            if zaddresses.ndim == 1:
                return self.from_ints(zaddresses.tolist())
            raise ZOrderError(
                f"cannot interpret array of shape {zaddresses.shape} / "
                f"dtype {zaddresses.dtype} as a z-address batch for "
                f"{self.total_bits}-bit addresses"
            )
        return self.from_ints(list(zaddresses))

    def is_native(self, zaddresses: object) -> bool:
        """Is this already a native batch for this kernel shape?"""
        if not isinstance(zaddresses, np.ndarray):
            return False
        if self.fast_path:
            return zaddresses.ndim == 1 and zaddresses.dtype == np.uint64
        return (
            zaddresses.ndim == 2
            and zaddresses.dtype == np.uint8
            and zaddresses.shape[1] == self.width
        )

    def __repr__(self) -> str:
        path = "fast" if self.fast_path else "wide"
        return (
            f"ZKernel(d={self.dimensions}, bits={self.bits_per_dim}, "
            f"total_bits={self.total_bits}, path={path})"
        )


__all__ = ["ZKernel", "ZBatchLike"]

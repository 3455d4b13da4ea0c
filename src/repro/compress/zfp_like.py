"""Lossy fixed-precision zfp-like coder.

ZFP (Lindstrom 2014) partitions the field into 4×4×4 cells and encodes each
cell with a block-floating-point representation, a decorrelating transform,
and bit-plane coding.  This implementation follows the same structure:

1. pad the block to a multiple of 4 along each axis and split into 4×4×4 cells;
2. per cell, align all values to the cell's largest exponent
   (block-floating-point) giving signed integers;
3. apply a separable smoothing/decorrelation transform (the zfp lifting
   transform approximated by a fixed integer filter);
4. keep the top :data:`_PRECISION` bit planes — a constant, as the coder
   needs no tuning — and store every zigzag-mapped coefficient with its
   minimal byte length in the container the fpzip-like coder shares
   (:func:`~repro.compress.bitplane.pack_codes`): smooth cells need very few
   bytes.

Steps 1–3 and the zigzag map are one encoder, :meth:`ZfpLikeCompressor._codes`,
run over a stack: ``compress`` calls it on a stack of one block and
``compressed_size_batch`` on the whole batch.  The coder is lossy;
:meth:`~ZfpLikeCompressor.decompress` reconstructs the block within
:meth:`~ZfpLikeCompressor.error_bound`.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.compress.base import CompressionResult, Compressor
from repro.compress.bitplane import (
    pack_codes,
    row_code_bytes,
    unpack_codes,
    zigzag_decode,
    zigzag_encode,
)

_MAGIC = b"ZFPL"
_HEADER = struct.Struct("<4sBBHIII")  # magic, 8, precision, pad, nx, ny, nz
_CELL = 4
#: Bit planes kept per cell (the payload header records it).
_PRECISION = 16
#: Largest quantised magnitude the lifting can take: a coefficient sums 64 of
#: them, and ``64 * 2**57`` is ``2**63``.
_LIFT_LIMIT = 2.0**57


def _cells(stack: np.ndarray) -> np.ndarray:
    """Pad a ``(n, nx, ny, nz)`` stack to multiples of 4 along each spatial
    axis (edge values) and split it into ``(n * ncells, 4, 4, 4)`` cells,
    block by block, each block's cells in C order of their position."""
    pads = [(0, 0)] + [(0, (-s) % _CELL) for s in stack.shape[1:]]
    if any(p[1] for p in pads):
        stack = np.pad(stack, pads, mode="edge")
    nb, nx, ny, nz = stack.shape
    cells = stack.reshape(nb, nx // _CELL, _CELL, ny // _CELL, _CELL, nz // _CELL, _CELL)
    cells = cells.transpose(0, 1, 3, 5, 2, 4, 6)
    return cells.reshape(-1, _CELL, _CELL, _CELL)


def _from_cells(cells: np.ndarray, padded_shape: Tuple[int, int, int]) -> np.ndarray:
    nx, ny, nz = padded_shape
    grid = cells.reshape(nx // _CELL, ny // _CELL, nz // _CELL, _CELL, _CELL, _CELL)
    grid = grid.transpose(0, 3, 1, 4, 2, 5)
    return grid.reshape(nx, ny, nz)


class ZfpLikeCompressor(Compressor):
    """Fixed-precision transform coder (zfp-like), :data:`_PRECISION` bit planes."""

    name = "zfp"

    # -- forward / inverse cell transform -------------------------------------

    @staticmethod
    def _forward_transform(cells: np.ndarray) -> np.ndarray:
        """Separable decorrelating transform applied along each cell axis."""
        out = cells.astype(np.int64)
        for axis in (1, 2, 3):
            out = ZfpLikeCompressor._lift(out, axis)
        return out

    @staticmethod
    def _inverse_transform(cells: np.ndarray) -> np.ndarray:
        out = cells.astype(np.int64)
        for axis in (3, 2, 1):
            out = ZfpLikeCompressor._unlift(out, axis)
        return out

    @staticmethod
    def _lift(arr: np.ndarray, axis: int) -> np.ndarray:
        """Integer Haar-style lifting along ``axis`` (length 4 → 2 levels)."""
        a = np.moveaxis(arr, axis, -1).copy()
        x0, x1, x2, x3 = (a[..., i].copy() for i in range(4))
        # Level 1: pairwise sums/differences.
        s0, d0 = x0 + x1, x0 - x1
        s1, d1 = x2 + x3, x2 - x3
        # Level 2 on the sums.
        ss, ds = s0 + s1, s0 - s1
        a[..., 0], a[..., 1], a[..., 2], a[..., 3] = ss, ds, d0, d1
        return np.moveaxis(a, -1, axis)

    @staticmethod
    def _unlift(arr: np.ndarray, axis: int) -> np.ndarray:
        a = np.moveaxis(arr, axis, -1).copy()
        ss, ds, d0, d1 = (a[..., i].copy() for i in range(4))
        s0 = (ss + ds) // 2
        s1 = (ss - ds) // 2
        x0 = (s0 + d0) // 2
        x1 = (s0 - d0) // 2
        x2 = (s1 + d1) // 2
        x3 = (s1 - d1) // 2
        a[..., 0], a[..., 1], a[..., 2], a[..., 3] = x0, x1, x2, x3
        return np.moveaxis(a, -1, axis)

    @staticmethod
    def _codes(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The coder's one encoder: a prepared ``(n, nx, ny, nz)`` stack →
        per-cell exponents ``(n, ncells)`` (int32) and zigzag-mapped transform
        coefficients ``(n, ncells * 64)`` (uint64), block by block."""
        n = stack.shape[0]
        ncells = int(np.prod([-(-s // _CELL) for s in stack.shape[1:]]))
        cells = _cells(stack.astype(np.float64))

        # Block-floating-point: common exponent per cell (clipped to the int8
        # range it is stored in, so compress and decompress use the same scale).
        maxabs = np.abs(cells).reshape(-1, _CELL**3).max(axis=1)
        exponents = np.zeros(len(cells), dtype=np.int32)
        nonzero = maxabs > 0
        exponents[nonzero] = np.ceil(np.log2(maxabs[nonzero])).astype(np.int32)
        exponents = np.clip(exponents, -127, 127)
        scale = np.ldexp(1.0, (_PRECISION - 2) - exponents)  # leave headroom
        quantised = np.rint(cells * scale[:, None, None, None])
        # Only float64 cells from 2**170 (about 1.5e51) reach the limit: their
        # exponent is clipped to 127, so their quantised values keep growing.
        if np.abs(quantised).max(initial=0.0) >= _LIFT_LIMIT:
            raise ValueError("block values exceed the coder's int64 range")
        ints = quantised.astype(np.int64)

        # Smooth cells concentrate their energy in a handful of coefficients,
        # so their AC coefficients need 0–1 bytes and the cell compresses
        # well; noisy cells keep 2–3 bytes per coefficient — this is where
        # the coder's content sensitivity (its use as a relevance score)
        # comes from.
        coeffs = ZfpLikeCompressor._forward_transform(ints)
        codes = zigzag_encode(coeffs.reshape(n, ncells * _CELL**3), 64)
        return exponents.reshape(n, ncells), codes

    # -- public API --------------------------------------------------------------

    def compress(self, block: np.ndarray) -> CompressionResult:
        """Encode ``block`` with fixed-precision bit-plane truncation.

        Payload: header, the container's size table, one int8 exponent per
        cell, then the container's nibble stream and body.
        """
        prepared = self._prepare(block)
        exponents, codes = self._codes(prepared[None])
        sizes, nibbles, body = pack_codes(codes, 8)
        header = _HEADER.pack(_MAGIC, 8, _PRECISION, 0, *prepared.shape)
        payload = header + sizes + exponents.astype(np.int8).tobytes() + nibbles + body
        # Like the other coders, the recorded original size is that of the
        # *prepared* (float32/float64) block — the buffer actually encoded —
        # so ratios are comparable across compressors for any input dtype.
        return CompressionResult(
            payload=payload,
            original_nbytes=int(prepared.nbytes),
            shape=tuple(prepared.shape),
            dtype=str(np.asarray(block).dtype),
        )

    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Encoded sizes of a stacked batch, without materialising payloads:
        :meth:`_codes` over the whole batch, then the fixed part of the
        payload plus each block's code byte lengths."""
        exponents, codes = self._codes(self._prepare_batch(batch))
        fixed = _HEADER.size + 32 + exponents.shape[1] + (codes.shape[1] + 1) // 2
        return np.add(row_code_bytes(codes, 8), fixed, dtype=np.int64)

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Reconstruct the block (lossy, within :meth:`error_bound`)."""
        payload = result.payload
        magic, _, precision, _, nx, ny, nz = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise ValueError("not a zfp-like payload")
        padded_shape = tuple(s + ((-s) % _CELL) for s in (nx, ny, nz))
        ncells = int(np.prod(padded_shape)) // _CELL**3
        offset = _HEADER.size + 32
        exponents = np.frombuffer(payload, dtype=np.int8, count=ncells, offset=offset)
        codes, _ = unpack_codes(payload, offset + ncells, _HEADER.size, ncells * _CELL**3, 8)
        coeffs = zigzag_decode(codes, 64).reshape(ncells, _CELL, _CELL, _CELL)
        ints = self._inverse_transform(coeffs)
        scale = np.ldexp(1.0, (precision - 2) - exponents.astype(np.int32))
        with np.errstate(divide="ignore", invalid="ignore"):
            cells = ints.astype(np.float64) / scale[:, None, None, None]
        padded = _from_cells(cells, padded_shape)
        out = padded[:nx, :ny, :nz]
        dtype = np.dtype(result.dtype)
        if dtype.kind == "f":
            # Rounding to the kept bit planes can carry a value within half a
            # step of the dtype's largest one past it: saturate, not overflow.
            limit = np.finfo(dtype).max
            out = np.clip(out, -limit, limit)
        return out.astype(dtype)

    def error_bound(self, block: np.ndarray) -> float:
        """Worst-case absolute reconstruction error for ``block``.

        The block-floating-point quantisation step for a cell with stored
        (clipped) exponent ``e`` is ``2**(e - (precision - 2))``; the
        separable transform can amplify rounding by at most a small constant,
        folded in here.  The clip matters below ``2**-127``: a subnormal
        float32 cell is quantised on the coarser step of exponent −127.
        """
        arr = self._prepare(block).astype(np.float64)
        maxabs = float(np.abs(arr).max())
        if maxabs == 0.0:
            return 0.0
        exponent = int(np.clip(np.ceil(np.log2(maxabs)), -127, 127))
        return 8.0 * 2.0 ** (exponent - (_PRECISION - 2))

"""Lossless fpzip-like floating-point coder.

Pipeline (mirroring Lindstrom & Isenburg's FPZIP at a coarse granularity):

1. map floats to order-preserving unsigned integers;
2. 3-D Lorenzo prediction → residuals;
3. zigzag-map residuals to unsigned codes (small magnitude → small code);
4. entropy-light encoding: store each code's byte length (packed nibbles) and
   its significant little-endian bytes, grouped by length so the whole codec
   stays vectorised (:func:`~repro.compress.bitplane.pack_codes`, the
   container the zfp-like coder shares).

Steps 1–3 are one kernel, :func:`residual_codes`, which ``compress`` runs.
It works inside two scratch buffers of the input's shape: the ordered-uint
map writes the first, three flat shifted subtractions ping-pong between them
(exact for the reason given in
:func:`~repro.compress.predictors.lorenzo_residuals`) and the zigzag map
rewrites the residuals where they lie, its sign words in the first buffer,
free by then.  ``compressed_size_batch`` runs steps 1–2 of the same kernel
over row chunks that stay in cache (:data:`_CHUNK_BYTES`) and needs step 4
only as a sum: a payload is header + group-size table + one nibble per code +
every code's significant bytes — a constant plus the block's total byte
length.  :func:`~repro.compress.bitplane.row_zigzag_bytes` sums that per row
straight from the residuals, without forming the zigzag codes, in two more
reused buffers; no pass over a chunk allocates an array of its size.

Smooth blocks produce mostly zero-length codes and compress by an order of
magnitude; turbulent blocks keep most of their bytes.  The format is fully
self-contained and :meth:`decompress` reconstructs the input bit-exactly.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.compress.base import CompressionResult, Compressor
from repro.compress.bitplane import (
    float_to_ordered_uint,
    ordered_uint_to_float,
    pack_codes,
    row_zigzag_bytes,
    unpack_codes,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.predictors import lorenzo_reconstruct, lorenzo_residuals

_MAGIC = b"FPZL"
_HEADER = struct.Struct("<4sBBHIII")  # magic, dtype code, reserved, pad, nx, ny, nz


def _code_dtype(code: int) -> np.dtype:
    if code == 4:
        return np.dtype(np.float32)
    if code == 8:
        return np.dtype(np.float64)
    raise ValueError(f"unsupported dtype code {code}")


#: Payload bytes per row chunk of ``compressed_size_batch``: the two scratch
#: buffers and the byte-length buffers stay in L2, yet ~25 ufunc dispatches
#: per chunk amortise.  A measured constant, not a knob — median per
#: ``blue_waters_64`` snapshot (2 048 blocks, 1.84 M float32; 4 snapshots, one
#: pinned CPU, interleaved): 32 KB → 19.3 ms, 64 KB → 13.4, 128 KB → 10.5,
#: 256 KB → 9.3, 512 KB → 8.7, 1 MB → 10.0, unchunked → 11.1.  Against 256 KB,
#: 512 KB read 4.4–6.0 % faster per snapshot in four interleaved runs but won
#: only 68–91 % of the pairs: no clear 5 %, so 256 KB stays.
_CHUNK_BYTES = 256 * 1024


def residual_codes(
    values: np.ndarray, scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Steps 1–3 of the coder: floats ``(..., sx, sy, sz)`` → zigzag codes.

    ``values`` (C-contiguous float32/float64) is only read.  ``scratch`` is an
    optional pair of C-contiguous unsigned arrays of its shape and width,
    allocated when omitted; both are overwritten, the second holds the codes.
    """
    width = values.dtype.itemsize
    if scratch is None:
        scratch = tuple(np.empty(values.shape, f"u{width}") for _ in range(2))
    a, b = scratch
    residuals = _residuals(values, a, b)
    # ``a`` is free once the residuals are in ``b``: it takes the sign words.
    return zigzag_encode(residuals.view(f"i{width}"), 8 * width, out=b, signs=a)


def _residuals(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Steps 1–2: the ordered-uint map into ``a``, then Lorenzo residuals
    ping-ponging ``a → b → a → b``; returns ``b``, and ``a`` is free."""
    return lorenzo_residuals(float_to_ordered_uint(values, out=a), scratch=(a, b))


class FpzipLikeCompressor(Compressor):
    """Lossless Lorenzo-predictive coder (fpzip-like)."""

    name = "fpzip"

    def compress(self, block: np.ndarray) -> CompressionResult:
        """Encode ``block`` losslessly; see the module docstring for the format."""
        arr = self._prepare(block)
        sizes, nibbles, body = pack_codes(residual_codes(arr), arr.dtype.itemsize)
        header = _HEADER.pack(
            _MAGIC, arr.dtype.itemsize, 0, 0, arr.shape[0], arr.shape[1], arr.shape[2]
        )
        return CompressionResult(
            payload=header + sizes + nibbles + body,
            original_nbytes=int(arr.nbytes),
            shape=tuple(arr.shape),
            dtype=str(arr.dtype),
        )

    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Encoded sizes of a stacked batch, without materialising payloads.

        Runs steps 1–2 of :func:`residual_codes` — the very code
        :meth:`compress` runs — over cache-sized row chunks and sums each
        block's zigzag code byte lengths from the residuals
        (:func:`~repro.compress.bitplane.row_zigzag_bytes`), so the sizes
        equal ``compress(batch[i]).compressed_nbytes`` wherever the chunk
        boundaries fall.  The scratch buffers are local to the call (one
        compressor is shared by threads and pickled into workers).  This is
        the scoring hot path of the FPZIP metric.
        """
        arr = self._prepare_batch(batch)
        nblocks = arr.shape[0]
        max_bytes = arr.dtype.itemsize
        count = int(np.prod(arr.shape[1:]))
        fixed = _HEADER.size + 4 * max_bytes + (count + 1) // 2
        sizes = np.full(nblocks, fixed, dtype=np.int64)
        rows = max(1, min(nblocks, _CHUNK_BYTES // max(1, count * max_bytes)))
        a = np.empty((rows, count), dtype=f"u{max_bytes}")
        b = np.empty_like(a)
        lengths = np.empty((rows, count), dtype=np.uint8)
        mask = np.empty((rows, count), dtype=bool)
        signed = f"i{max_bytes}"
        for lo in range(0, nblocks, rows):
            chunk = arr[lo : lo + rows]
            n = chunk.shape[0]
            an, bn = a[:n].reshape(chunk.shape), b[:n].reshape(chunk.shape)
            residuals = _residuals(chunk, an, bn).view(signed).reshape(n, count)
            sizes[lo : lo + n] += row_zigzag_bytes(
                residuals, a[:n].view(signed), (lengths[:n], mask[:n])
            )
        return sizes

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Bit-exact reconstruction of the original block."""
        payload = result.payload
        magic, dcode, _, _, nx, ny, nz = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise ValueError("not an fpzip-like payload")
        dtype = _code_dtype(dcode)
        max_bytes = dtype.itemsize
        codes, _ = unpack_codes(
            payload, _HEADER.size + 4 * max_bytes, _HEADER.size, nx * ny * nz, max_bytes
        )
        residuals = zigzag_decode(codes, 8 * max_bytes).view(codes.dtype)
        ordered = lorenzo_reconstruct(residuals.reshape(nx, ny, nz))
        return ordered_uint_to_float(ordered, dtype).reshape(nx, ny, nz)

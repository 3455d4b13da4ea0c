"""Lossless fpzip-like floating-point coder, as the size it encodes to.

Pipeline (mirroring Lindstrom & Isenburg's FPZIP at a coarse granularity):

1. map floats to order-preserving unsigned integers;
2. 3-D Lorenzo prediction → residuals;
3. zigzag-map residuals to unsigned codes (small magnitude → small code);
4. entropy-light encoding: store each code's byte length (packed nibbles) and
   its significant little-endian bytes, grouped by length.

A payload is header + group-size table + one nibble per code + every code's
significant bytes: a constant plus the block's total code byte length.
``compressed_size_batch`` runs steps 1–2 over row chunks that stay in cache
(:data:`_CHUNK_BYTES`), inside two scratch buffers of the chunk's shape: the
ordered-uint map writes the first, three flat shifted subtractions ping-pong
between them (exact for the reason given in
:func:`~repro.compress.predictors.lorenzo_residuals`).  It needs steps 3–4
only as a sum, which :func:`~repro.compress.bitplane.row_zigzag_bytes` takes
per row straight from the residuals, without forming the zigzag codes, in two
more reused buffers; no pass over a chunk allocates an array of its size.
The encoder that writes the payload and the decoder that reconstructs the
block bit-exactly are the oracle of ``tests/test_compress.py``.

Smooth blocks produce mostly zero-length codes and compress by an order of
magnitude; turbulent blocks keep most of their bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import Compressor
from repro.compress.bitplane import float_to_ordered_uint, row_zigzag_bytes
from repro.compress.predictors import lorenzo_residuals

#: The payload's header: magic, dtype code, reserved, pad, nx, ny, nz.
_HEADER = struct.Struct("<4sBBHIII")

#: Payload bytes per row chunk of ``compressed_size_batch``: the two scratch
#: buffers and the byte-length buffers stay in L2, yet ~25 ufunc dispatches
#: per chunk amortise.  A measured constant, not a knob — median per
#: ``blue_waters_64`` snapshot (2 048 blocks, 1.84 M float32; 4 snapshots, one
#: pinned CPU, interleaved): 32 KB → 19.3 ms, 64 KB → 13.4, 128 KB → 10.5,
#: 256 KB → 9.3, 512 KB → 8.7, 1 MB → 10.0, unchunked → 11.1.  Against 256 KB,
#: 512 KB read 4.4–6.0 % faster per snapshot in four interleaved runs but won
#: only 68–91 % of the pairs: no clear 5 %, so 256 KB stays.
_CHUNK_BYTES = 256 * 1024


def _residuals(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Steps 1–2: the ordered-uint map into ``a``, then Lorenzo residuals
    ping-ponging ``a → b → a → b``; returns ``b``, and ``a`` is free."""
    return lorenzo_residuals(float_to_ordered_uint(values, out=a), scratch=(a, b))


class FpzipLikeCompressor(Compressor):
    """Lossless Lorenzo-predictive coder (fpzip-like)."""

    name = "fpzip"

    def compressed_size_batch(self, batch: np.ndarray) -> np.ndarray:
        """Encoded sizes of a stacked batch, without materialising payloads.

        Runs steps 1–2 over cache-sized row chunks and sums each block's
        zigzag code byte lengths from the residuals
        (:func:`~repro.compress.bitplane.row_zigzag_bytes`), so the sizes
        equal the encoded payloads' lengths wherever the chunk boundaries
        fall.  The scratch buffers are local to the call (one compressor is
        shared by threads and pickled into workers).  This is the scoring hot
        path of the FPZIP metric.
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

"""Floating-point coders as block-relevance scorers, reduced to their sizes.

The paper evaluates floating-point compressors (FPZIP, LZ with binary
masks, ...) as generic block-scoring metrics: the intuition is that the
compressed size of a block correlates with its information content, and
compressors need no tuning (no histogram range/bin count).  The original C libraries are not
available here, so this package implements pure-NumPy coders with the same
*structure* and, crucially, the same content sensitivity:

* :class:`FpzipLikeCompressor` — lossless: monotone float→int mapping,
  3-D Lorenzo prediction, zigzag residuals, byte-length-grouped encoding.
* :class:`LzLikeCompressor` — byte-plane splitting masks (à la Bautista-Gomez
  & Cappello 2013) followed by a from-scratch LZ77 coder.

The scoring metric (:class:`~repro.metrics.compression.CompressionRatioMetric`)
divides a block's encoded size by its original size, so a coder here is one
method, :meth:`Compressor.compressed_size_batch`: the payload sizes of a
stack, computed without building a payload.  The encoders that write those
payloads and the decoders that read them back live in
``tests/test_compress.py``, where they are the oracle the sizes are tested
against (every size is the length of a payload that decodes to its block).
"""

from repro.compress.base import Compressor
from repro.compress.fpzip_like import FpzipLikeCompressor
from repro.compress.lz_like import LzLikeCompressor

__all__ = [
    "Compressor",
    "FpzipLikeCompressor",
    "LzLikeCompressor",
]

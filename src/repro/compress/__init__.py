"""Floating-point compressors used as block-relevance scorers.

The paper evaluates compression algorithms (FPZIP, ZFP, LZ-with-binary-masks)
as generic block-scoring metrics: the intuition is that the compressed size of
a block correlates with its information content, and compressors need no
tuning (no histogram range/bin count).  The original C libraries are not
available here, so this package implements pure-NumPy coders with the same
*structure* and, crucially, the same content sensitivity:

* :class:`FpzipLikeCompressor` — lossless: monotone float→int mapping,
  3-D Lorenzo prediction, zigzag residuals, byte-length-grouped encoding.
* :class:`ZfpLikeCompressor` — lossy fixed-precision: 4×4×4 cells,
  block-floating-point + separable lifting transform, bit-plane truncation.
* :class:`LzLikeCompressor` — byte-plane splitting masks (à la Bautista-Gomez
  & Cappello 2013) followed by a from-scratch LZ77 coder.

All compressors share the :class:`Compressor` interface.  The scoring metric
(:class:`~repro.metrics.compression.CompressionRatioMetric`) consumes
``compress`` per block and ``compressed_size_batch`` per stack, dividing the
encoded size by the original one.
"""

from repro.compress.base import Compressor
from repro.compress.fpzip_like import FpzipLikeCompressor
from repro.compress.zfp_like import ZfpLikeCompressor
from repro.compress.lz_like import LzLikeCompressor

__all__ = [
    "Compressor",
    "FpzipLikeCompressor",
    "ZfpLikeCompressor",
    "LzLikeCompressor",
]

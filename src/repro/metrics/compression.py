"""Compressor-based scoring metrics (FPZIP / LZ).

The intuition (Section IV-B-e): the compressed size of a block correlates with
its information content, and compressors need no tuning (no histogram range or
bin count).  The score is the *inverse compression ratio* — compressed size
divided by original size — so that hard-to-compress (information-rich) blocks
get high scores and smooth, compressible blocks get low scores.  Only the size
enters the score, so a block and a stack alike are scored through the coder's
``compressed_size_batch``; no payload is ever built.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compress.base import Compressor
from repro.compress.fpzip_like import FpzipLikeCompressor
from repro.compress.lz_like import LzLikeCompressor
from repro.metrics.base import MetricCost, ScoreMetric

#: Calibrated per-point costs (Blue Waters seconds) for each compressor-based
#: scorer; FPZIP from Table I, LZ assumed on the same order.
_COMPRESSOR_COSTS = {
    "fpzip": MetricCost(per_point=3.08e-7),
    "lz": MetricCost(per_point=3.5e-7),
}
#: Coders whose ``compressed_size_batch`` still spends its time in Python
#: (measured: the pool wins ≈1.8x on LZ, and loses 3–5x on FPZIP's
#: cache-chunked kernel); the scorers are one class, so ``gil_bound`` is set
#: per instance.
_GIL_BOUND_COMPRESSORS = frozenset({"lz"})


class CompressionRatioMetric(ScoreMetric):
    """Score = compressed size / original size (inverse compression ratio).

    ``compressor`` is any :class:`~repro.compress.base.Compressor`; it
    defaults to the fpzip-like coder, the variant whose results the paper
    plots.
    """

    def __init__(self, compressor: Optional[Compressor] = None) -> None:
        self.compressor = compressor or FpzipLikeCompressor()
        self.name = self.compressor.name.upper()
        self.cost = _COMPRESSOR_COSTS.get(
            self.compressor.name, MetricCost(per_point=3.0e-7)
        )
        self.gil_bound = self.compressor.name in _GIL_BOUND_COMPRESSORS

    def score_block(self, data: np.ndarray) -> float:
        """The block's score: :meth:`score_batch` of a stack of one."""
        return float(self.score_batch(self._prepare(data)[None])[0])

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        """Inverse compression ratios of a stacked batch in one coder pass.

        A block's score is a function of the block alone (its size through
        ``compressed_size_batch``, over its own nbytes), so the scores are
        bitwise those of :meth:`score_block` on each row.
        """
        arr = self._prepare_batch(batch)
        if arr.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        sizes = self.compressor.compressed_size_batch(arr)
        # The denominator is the size of the block the compressor actually
        # encodes, i.e. after its dtype policy promotes anything but
        # float32/float64 (e.g. float16) to float64.  Blocks of one stacked
        # batch share shape and dtype, hence one per-block size.
        itemsize = arr.dtype.itemsize if arr.dtype in (np.float32, np.float64) else 8
        original_nbytes = int(arr[0].size) * itemsize
        if original_nbytes == 0:
            return np.zeros(arr.shape[0], dtype=np.float64)
        return sizes.astype(np.float64) / float(original_nbytes)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def fpzip(cls) -> "CompressionRatioMetric":
        """FPZIP-based scorer (the variant reported in the paper's figures)."""
        return cls(FpzipLikeCompressor())

    @classmethod
    def lz(cls) -> "CompressionRatioMetric":
        """LZ/binary-mask-based scorer (paper: "results similar to FPZIP")."""
        return cls(LzLikeCompressor())

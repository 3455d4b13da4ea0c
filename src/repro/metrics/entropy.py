"""Information-theoretic metric: histogram entropy (ITL).

The histogram entropy of a block is ``E = -sum p_i log2 p_i`` over the bins of
a histogram built with the *same range and bin count on every process* —
otherwise scores are not comparable across blocks.  The paper uses the known
physical range of the reflectivity ([-60, 80] dBZ) and found 256 bins to be a
reasonable default among 32/256/1024.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cm1.reflectivity import DBZ_MAX, DBZ_MIN
from repro.metrics.base import MetricCost, ScoreMetric
from repro.utils.histogram import (
    fixed_range_histogram,
    fixed_range_histogram_batch,
    shannon_entropy,
)


class HistogramEntropyMetric(ScoreMetric):
    """ITL-style Shannon entropy of a fixed-range histogram of the block.

    Parameters
    ----------
    bins:
        Number of histogram bins (the paper tried 32, 256, and 1,024 and used
        256).
    value_range:
        Common value range used by all processes; defaults to the physical
        reflectivity range [-60, 80] dBZ.
    """

    name = "ITL"
    # Table I: 13.30 s on 64 cores -> ~4.6e-7 s per point.
    cost = MetricCost(per_point=4.63e-7)

    def __init__(
        self,
        bins: int = 256,
        value_range: Tuple[float, float] = (DBZ_MIN, DBZ_MAX),
    ) -> None:
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        lo, hi = value_range
        if not hi > lo:
            raise ValueError(f"invalid value_range: {value_range}")
        self.bins = int(bins)
        self.value_range = (float(lo), float(hi))

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        counts = fixed_range_histogram(arr, self.bins, self.value_range)
        return shannon_entropy(counts)

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        counts = fixed_range_histogram_batch(
            arr.reshape(arr.shape[0], -1), self.bins, self.value_range
        )
        # The histograms are the expensive part and are fully vectorised; the
        # per-row entropy reuses the scalar helper so the scores are bitwise
        # identical to the per-block path.
        return np.array([shannon_entropy(row) for row in counts], dtype=np.float64)

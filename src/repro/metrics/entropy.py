"""Information-theoretic metrics: histogram entropy (ITL) and local entropy.

The histogram entropy of a block is ``E = -sum p_i log2 p_i`` over the bins of
a histogram built with the *same range and bin count on every process* —
otherwise scores are not comparable across blocks.  The paper uses the known
physical range of the reflectivity ([-60, 80] dBZ) and found 256 bins to be a
reasonable default among 32/256/1024.

The local entropy variant (entropy of a neighbourhood around each point,
averaged over the block) is also provided; the paper evaluated it and found it
too slow relative to the rest of the pipeline, which the calibrated cost
reflects.
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


class LocalEntropyMetric(ScoreMetric):
    """Mean local (neighbourhood) entropy over the block.

    For every point, the entropy of the histogram of its cubic neighbourhood
    is computed; the block score is the mean.  Accurate but expensive — the
    paper discarded it for in situ use, and its calibrated cost (an order of
    magnitude above TRILIN) encodes that conclusion.
    """

    name = "LOCAL_ENTROPY"
    cost = MetricCost(per_point=5.0e-6)
    gil_bound = True

    def __init__(
        self,
        bins: int = 32,
        value_range: Tuple[float, float] = (DBZ_MIN, DBZ_MAX),
        radius: int = 1,
        stride: int = 2,
    ) -> None:
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        lo, hi = value_range
        if not hi > lo:
            raise ValueError(f"invalid value_range: {value_range}")
        self.bins = int(bins)
        self.value_range = (float(lo), float(hi))
        self.radius = int(radius)
        self.stride = int(stride)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        r = self.radius
        entropies = []
        for i in range(r, arr.shape[0] - r, self.stride):
            for j in range(r, arr.shape[1] - r, self.stride):
                for k in range(r, arr.shape[2] - r, self.stride):
                    neigh = arr[i - r : i + r + 1, j - r : j + r + 1, k - r : k + r + 1]
                    counts = fixed_range_histogram(neigh, self.bins, self.value_range)
                    entropies.append(shannon_entropy(counts))
        if not entropies:
            counts = fixed_range_histogram(arr, self.bins, self.value_range)
            return shannon_entropy(counts)
        return float(np.mean(entropies))

"""TRILIN: trilinear-interpolation error metric.

The metric measures the mean square error between the original block and the
block rebuilt by trilinear interpolation of its 8 corner values — i.e. exactly
the error the visualization pipeline will commit if this block is reduced.
Blocks that interpolate well (low score) lose little by being reduced, which
is why the paper's atmospheric scientists gravitated towards TRILIN (and VAR)
after seeing the scoremaps.
"""

from __future__ import annotations

import numpy as np

from repro.grid.reduction import reduction_error, reduction_error_batch
from repro.metrics.base import MetricCost, ScoreMetric


class TrilinearErrorMetric(ScoreMetric):
    """Score = MSE between the block and its corner-interpolated reconstruction."""

    name = "TRILIN"
    # Table I: 14.30 s on 64 cores -> ~5.0e-7 s per point.
    cost = MetricCost(per_point=4.98e-7)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return reduction_error(arr)

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        return reduction_error_batch(arr)

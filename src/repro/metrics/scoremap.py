"""Scoremaps: visualising how a metric scores the blocks of a domain (Fig. 4).

A scoremap is a 2-D image of the horizontal domain where every pixel of a
block's footprint takes the block's score — the greyscale colormaps the paper
shows to scientists so they can pick a metric whose high-score regions match
what they care about (the vortex region, in their case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.grid.block import Block
from repro.grid.decomposition import CartesianDecomposition
from repro.metrics.base import ScoreMetric


@dataclass
class ScoreMap:
    """Per-block scores mapped onto the horizontal plane.

    Attributes
    ----------
    metric_name:
        Name of the metric that produced the scores.
    image:
        2-D array (nx, ny): each block footprint filled with its score.
    block_scores:
        Mapping block id -> score.
    """

    metric_name: str
    image: np.ndarray
    block_scores: Dict[int, float]

    def normalised(self) -> np.ndarray:
        """Image rescaled to [0, 1] (constant images map to zeros)."""
        img = np.asarray(self.image, dtype=np.float64)
        lo, hi = float(img.min()), float(img.max())
        if hi <= lo:
            return np.zeros_like(img)
        return (img - lo) / (hi - lo)

    def high_score_fraction(self, quantile: float = 0.9) -> float:
        """Fraction of the horizontal area whose score exceeds the given quantile."""
        if not (0.0 < quantile < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        img = self.normalised()
        threshold = float(np.quantile(img, quantile))
        return float(np.mean(img > threshold))


def compute_scoremap(
    metric: ScoreMetric,
    decomposition: CartesianDecomposition,
    field: np.ndarray,
    level: Optional[int] = None,
) -> ScoreMap:
    """Score every block of ``field`` and build the scoremap image.

    Parameters
    ----------
    metric:
        Scoring metric to apply.
    decomposition:
        Domain decomposition defining the blocks.
    field:
        Full-domain 3-D array.
    level:
        Unused placeholder for API symmetry with colormap rendering (the score
        of a block is computed from its full 3-D content, not a single level).

    Returns
    -------
    ScoreMap
    """
    field = np.asarray(field)
    if tuple(field.shape) != tuple(decomposition.global_shape):
        raise ValueError(
            f"field shape {field.shape} does not match decomposition "
            f"{decomposition.global_shape}"
        )
    nx, ny, _ = decomposition.global_shape
    image = np.zeros((nx, ny), dtype=np.float64)
    block_scores: Dict[int, float] = {}
    for rank in range(decomposition.nranks):
        for block in decomposition.extract_blocks(rank, field):
            score = metric.score_block(block.data)
            block_scores[block.block_id] = score
            sl = block.extent.slices
            image[sl[0], sl[1]] = score
    return ScoreMap(metric_name=metric.name, image=image, block_scores=block_scores)

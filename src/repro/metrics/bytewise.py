"""LEA: the lightweight (bytewise) entropy analyzer.

LEA avoids the histogram-tuning problem of the classical entropy metric by
treating each float as an array of bytes: it computes, independently for each
byte position, the entropy of that byte over the whole block (a byte takes 256
values, so the probability of value ``i`` is just its frequency), and returns
the **sum** of the per-byte entropies.  No range or bin count needs to be
known in advance, and the computation is a handful of vectorised bincounts —
which is why LEA sits near the bottom of Table I's cost column.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import MetricCost, ScoreMetric
from repro.utils.histogram import shannon_entropy


def bytewise_entropies(data: np.ndarray) -> np.ndarray:
    """Per-byte-position entropies of a floating-point array.

    Returns an array of length 4 (float32) or 8 (float64): entry ``b`` is the
    Shannon entropy of the ``b``-th byte of every value in ``data``.
    """
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    flat = np.ascontiguousarray(arr).reshape(-1)
    itemsize = flat.dtype.itemsize
    as_bytes = flat.view(np.uint8).reshape(flat.size, itemsize)
    entropies = np.empty(itemsize, dtype=np.float64)
    for b in range(itemsize):
        counts = np.bincount(as_bytes[:, b], minlength=256)
        entropies[b] = shannon_entropy(counts)
    return entropies


class BytewiseEntropyMetric(ScoreMetric):
    """LEA score: sum of the per-byte-position entropies of the block."""

    name = "LEA"
    # Table I: 2.03 s on 64 cores -> ~7.1e-8 s per point.
    cost = MetricCost(per_point=7.1e-8)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(bytewise_entropies(arr).sum())

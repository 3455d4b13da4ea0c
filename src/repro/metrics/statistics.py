"""Statistical metrics: RANGE and VAR.

* ``RANGE`` scores a block by ``max - min``: blocks spanning a wide range of
  values are assumed interesting.  Its known blind spot (noted in the paper)
  is a block with high variation inside a small range.
* ``VAR`` scores a block by the variance of its values, which fixes that
  blind spot and is the cheapest metric of the whole family (Table I).  A
  batch is scored by :func:`row_variance` in cache-sized row chunks, bitwise
  ``np.var(flat, axis=1)``.
* ``PythonVarianceMetric`` is a deliberately pure-Python scalar scorer — the
  stand-in for the user-supplied metrics the paper expects domain scientists
  to plug in, used by the engine benchmarks to measure GIL-bound scoring.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import MetricCost, ScoreMetric

#: Row-chunk size of :func:`row_variance` (the count and coder kernels' too):
#: a chunk and its deviations stay in L2 across the five passes over them.
_CHUNK_BYTES = 256 * 1024


def row_variance(flat: np.ndarray) -> np.ndarray:
    """Per-row variance of a floating ``(nrows, count)`` array, in its dtype.

    Bitwise ``np.var(flat, axis=1)`` — NumPy's own sum, divide-by-``intp``,
    subtract, square, sum, divide — over row chunks of :data:`_CHUNK_BYTES`
    with reused buffers.  ``flat`` is only read.
    """
    nrows, count = flat.shape
    out = np.empty(nrows, dtype=flat.dtype)
    rows = max(1, min(nrows, _CHUNK_BYTES // max(1, count * flat.itemsize)))
    scratch = np.empty((rows, count), dtype=flat.dtype)
    means = np.empty((rows, 1), dtype=flat.dtype)
    n = np.intp(count)
    for lo in range(0, nrows, rows):
        chunk, var = flat[lo : lo + rows], out[lo : lo + rows]
        mean = np.add.reduce(chunk, axis=1, keepdims=True, out=means[: len(chunk)])
        np.true_divide(mean, n, out=mean, casting="unsafe")
        # Means broadcast by a copy, then a flat subtract: no ufunc call per row.
        deviation = scratch[: len(chunk)]
        np.copyto(deviation, mean)
        np.subtract(chunk, deviation, out=deviation)
        np.square(deviation, out=deviation)
        np.add.reduce(deviation, axis=1, out=var)
        np.true_divide(var, n, out=var, casting="unsafe")
    return out


class RangeMetric(ScoreMetric):
    """Score = max(block) - min(block)."""

    name = "RANGE"
    # Calibrated from Table I: 7.03 s for 64 cores' share of 16,000 55x55x38 blocks.
    cost = MetricCost(per_point=2.45e-7)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(arr.max() - arr.min())

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        flat = arr.reshape(arr.shape[0], -1)
        return (flat.max(axis=1) - flat.min(axis=1)).astype(np.float64)


class VarianceMetric(ScoreMetric):
    """Score = variance of the block values."""

    name = "VAR"
    # Table I: 1.41 s on 64 cores -> ~4.9e-8 s per point.
    cost = MetricCost(per_point=4.9e-8)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(np.var(arr))

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        return row_variance(arr.reshape(arr.shape[0], -1)).astype(np.float64)


class PythonVarianceMetric(ScoreMetric):
    """Pure-Python scalar variance (the GIL-bound reference scorer).

    Scores a block with Welford's online variance over a Python loop,
    holding the GIL for the whole call — exactly what a user-supplied
    scalar metric written without NumPy looks like.  Nothing inside one
    interpreter can speed such a metric up (the loop never releases the
    GIL); worker processes can, so it declares ``gil_bound`` and the batched
    scoring step scores it over the shared process pool, which is what the
    GIL-bound gate of ``benchmarks/test_process_scaling.py`` measures.
    Every point is read, in ``ravel`` order, so all backends agree bitwise.

    Registered as ``"PYVAR"`` so serve/CLI request payloads can select it —
    not as a scoring recommendation, but as the reference workload for the
    process execution paths.
    """

    name = "PYVAR"
    cost = MetricCost(per_point=4.9e-8)
    gil_bound = True

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        count = 0
        mean = 0.0
        m2 = 0.0
        for value in arr.ravel().tolist():
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        return m2 / count if count else 0.0

"""Metric interface and cost description.

A score is a function of one block that every process computes alike: the
sort gathers every rank's scores and orders them globally, so nothing about
a block's neighbours, its rank or its batch may enter it.  The contract is
two methods and one declaration: :meth:`ScoreMetric.score_block`,
:meth:`ScoreMetric.score_batch` (by default the loop over ``score_block``)
and :attr:`ScoreMetric.gil_bound`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.utils.validation import ensure_3d, ensure_float_array


@dataclass(frozen=True)
class MetricCost:
    """Analytic cost of evaluating a metric.

    The cost is modelled as ``seconds = per_point * npoints + per_block`` per
    block, per core, in Blue Waters seconds.  The per-point coefficients are
    calibrated from the paper's Table I (see
    :mod:`repro.perfmodel.calibration`).
    """

    per_point: float
    per_block: float = 0.0

    def seconds(self, npoints: int) -> float:
        """Modelled seconds to score one block of ``npoints`` values."""
        if npoints < 0:
            raise ValueError(f"npoints must be >= 0, got {npoints}")
        return self.per_point * npoints + self.per_block


class ScoreMetric(abc.ABC):
    """A block-relevance scoring function.

    Higher scores mean "more relevant / keep this block"; the reduction step
    removes the blocks with the *lowest* scores.
    """

    #: Registry name (uppercase, as the paper labels them: RANGE, VAR, ...).
    name: str = "METRIC"
    #: Modelled evaluation cost (Blue Waters seconds); see :class:`MetricCost`.
    cost: MetricCost = MetricCost(per_point=5.0e-8)
    #: Whether scoring holds the GIL for most of its time (a Python loop over
    #: values or chunks), so that worker processes beat one interpreter.  The
    #: batched scoring step maps such a metric's :meth:`score_batch` over the
    #: shared process pool when :func:`repro.utils.procpool.pool_pays`; the
    #: metric is then pickled into every task, so declare it only on a
    #: module-level class.  Set from measurement (README, "Where the process
    #: pool is taken"): LZ has a batched kernel and still pays.
    gil_bound: bool = False

    @abc.abstractmethod
    def score_block(self, data: np.ndarray) -> float:
        """Score one 3-D block of values."""

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        """Score a stacked ``(nblocks, sx, sy, sz)`` batch of blocks.

        The default is the row loop over :meth:`score_block`.  Array-friendly
        metrics override it with one pass over the batch written to share the
        exact arithmetic of their :meth:`score_block`, so the result is
        bitwise identical to scoring the blocks one at a time whatever the
        engine, the pool's chunking or the rows stacked together.
        """
        arr = self._prepare_batch(batch)
        return np.array([self.score_block(row) for row in arr], dtype=np.float64)

    def score_blocks(self, blocks: Iterable[np.ndarray]) -> List[float]:
        """Score a sequence of blocks: the loop over :meth:`score_block`."""
        return [self.score_block(b) for b in blocks]

    # -- shared validation ---------------------------------------------------

    @staticmethod
    def _prepare(data: np.ndarray) -> np.ndarray:
        """Validate a block and return it as a float ndarray."""
        return ensure_float_array(ensure_3d(data, "block"), "block")

    @staticmethod
    def _prepare_batch(batch: np.ndarray) -> np.ndarray:
        """Validate a stacked batch and return it as a float ndarray.

        Applies the same dtype policy as :meth:`_prepare` (floating dtypes
        preserved, everything else promoted to float64) so batched scores
        match the per-block path exactly.
        """
        arr = np.asarray(batch)
        if arr.ndim != 4:
            raise ValueError(
                f"batch must be 4-D (nblocks, sx, sy, sz), got shape {arr.shape}"
            )
        return ensure_float_array(arr, "batch")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"

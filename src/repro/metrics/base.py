"""Metric interface and cost description."""

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
    #: Whether :meth:`score_batch` is a true vectorised implementation, i.e.
    #: stacking blocks into a batch buys real work sharing (False means it
    #: falls back to a per-block loop, so engines skip the stacking copies).
    #: All built-in metrics except LOCAL_ENTROPY provide one — including the
    #: coder-based FPZIP/ZFP/LZ/LEA scorers, whose batched paths compute
    #: encoded sizes for the whole batch in one pass.
    supports_batch: bool = False
    #: Whether scoring holds the GIL for most of its time (a Python loop over
    #: values or chunks), so that worker processes beat one interpreter.  The
    #: batched scoring step maps such a metric's kernel over the shared process
    #: pool when :func:`repro.utils.procpool.pool_pays`; the metric is then
    #: pickled into every task, so declare it only on a module-level class.
    #: Set from measurement (README, "Where the process pool is taken"), not
    #: from ``supports_batch``: LZ and ZFP have a batched path and still pay.
    gil_bound: bool = False

    @abc.abstractmethod
    def score_block(self, data: np.ndarray) -> float:
        """Score one 3-D block of values."""

    def score_blocks(self, blocks: Iterable[np.ndarray]) -> List[float]:
        """Score a sequence of blocks (override for vectorised variants)."""
        return [self.score_block(b) for b in blocks]

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        """Score a stacked ``(nblocks, sx, sy, sz)`` batch of blocks.

        Array-friendly metrics override this with a single vectorised pass
        over the batch; the default delegates to :meth:`score_blocks` (so a
        user metric that overrides only ``score_blocks`` behaves identically
        under both execution engines).  Either way the result is bitwise
        identical to scoring the blocks one at a time (the vectorised
        overrides are written to share the exact arithmetic of their scalar
        counterparts), so the engines can be swapped without perturbing
        reduction decisions.
        """
        arr = self._prepare_batch(batch)
        return np.array(
            self.score_blocks([arr[i] for i in range(arr.shape[0])]),
            dtype=np.float64,
        )

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

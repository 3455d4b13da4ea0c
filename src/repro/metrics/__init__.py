"""Block-relevance scoring metrics.

Section IV-B of the paper introduces a family of fast, generic procedures that
score a block of data by its variability, using statistics, information
theory, linear algebra, and floating-point compressors.  The representative
subset the paper reports on is reproduced here under the same names:

========  =====================================================
``RANGE``  max - min of the block                     (:class:`RangeMetric`)
``VAR``    variance of the block                      (:class:`VarianceMetric`)
``ITL``    histogram (Shannon) entropy                (:class:`HistogramEntropyMetric`)
``LEA``    lightweight bytewise entropy analyzer      (:class:`BytewiseEntropyMetric`)
``FPZIP``  floating-point compression ratio           (:class:`CompressionRatioMetric`)
``TRILIN`` trilinear interpolation error              (:class:`TrilinearErrorMetric`)
========  =====================================================

plus the variants the paper mentions but does not plot (ZFP- and LZ-based
scorers, local entropy).  All metrics return
"higher = more relevant" scores and expose three equivalent scoring paths:
``score_block`` (one block), ``score_blocks`` (a sequence), and
``score_batch`` (a stacked ``(nblocks, sx, sy, sz)`` array).  The
array-friendly metrics (RANGE, VAR, STD, ITL, TRILIN) implement
``score_batch`` as a single vectorised pass producing bitwise-identical
scores; the coder-based metrics fall back to the per-block loop.  :class:`MetricRegistry` provides name-based
construction, and :mod:`repro.metrics.comparison` / :mod:`repro.metrics.scoremap`
implement the rank-agreement and scoremap analyses of Figures 3 and 4.
"""

from repro.metrics.base import ScoreMetric, MetricCost
from repro.metrics.statistics import (
    PythonVarianceMetric,
    RangeMetric,
    StdDevMetric,
    VarianceMetric,
)
from repro.metrics.entropy import HistogramEntropyMetric, LocalEntropyMetric
from repro.metrics.bytewise import BytewiseEntropyMetric
from repro.metrics.interpolation import TrilinearErrorMetric
from repro.metrics.compression import CompressionRatioMetric
from repro.metrics.registry import MetricRegistry, default_registry, create_metric
from repro.metrics.scoremap import ScoreMap, compute_scoremap
from repro.metrics.comparison import (
    MetricComparison,
    rank_blocks,
    compare_metrics,
    spearman_rank_correlation,
)

__all__ = [
    "ScoreMetric",
    "MetricCost",
    "RangeMetric",
    "PythonVarianceMetric",
    "VarianceMetric",
    "StdDevMetric",
    "HistogramEntropyMetric",
    "LocalEntropyMetric",
    "BytewiseEntropyMetric",
    "TrilinearErrorMetric",
    "CompressionRatioMetric",
    "MetricRegistry",
    "default_registry",
    "create_metric",
    "ScoreMap",
    "compute_scoremap",
    "MetricComparison",
    "rank_blocks",
    "compare_metrics",
    "spearman_rank_correlation",
]

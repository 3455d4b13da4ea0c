"""Block-relevance scoring metrics.

Section IV-B of the paper introduces a family of fast, generic procedures that
score a block of data by its variability, using statistics, information
theory, linear algebra, and floating-point compressors.  The representative
subset the paper reports on is reproduced here under the same names:

==========  ========================================  ===============================
``RANGE``   max - min of the block                    ``statistics.RangeMetric``
``VAR``     variance of the block                     ``statistics.VarianceMetric``
``ITL``     histogram (Shannon) entropy               ``entropy.HistogramEntropyMetric``
``LEA``     lightweight bytewise entropy analyzer     ``bytewise.BytewiseEntropyMetric``
``FPZIP``   floating-point compression ratio          ``compression.CompressionRatioMetric``
``TRILIN``  trilinear interpolation error             ``interpolation.TrilinearErrorMetric``
==========  ========================================  ===============================

plus ``LZ``, the LZ-based scorer the paper mentions but does not plot, and
``PYVAR``, a pure-Python stand-in for a user's scalar metric.  All metrics
return "higher = more relevant" scores, and a score is a function of one
block that every process computes alike (the sort orders all ranks' scores
globally).  A metric is two methods and one
declaration (:class:`ScoreMetric`): ``score_block`` (one block),
``score_batch`` (a stacked ``(nblocks, sx, sy, sz)`` array, by default the
loop over ``score_block``) and ``gil_bound``.  RANGE, VAR, ITL, TRILIN and
the coder-based FPZIP/LZ override ``score_batch`` with one pass over the
batch that gives bitwise the scores of the loop (the coder metrics score one
block as a stack of one, through the coder's size kernel); LEA and PYVAR keep
the loop.  :data:`METRICS` is the name → factory table and
:func:`create_metric` builds a metric by name.
Figures 3 and 4 (rank agreement, scoremaps) score with these metrics in
:mod:`repro.experiments.metric_maps`.
"""

from repro.metrics.base import ScoreMetric, MetricCost
from repro.metrics.registry import METRICS, create_metric

__all__ = [
    "METRICS",
    "ScoreMetric",
    "MetricCost",
    "create_metric",
]

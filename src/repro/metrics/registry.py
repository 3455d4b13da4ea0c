"""The metric table: the paper's metric names and what builds each.

The pipeline configuration refers to metrics by the paper's names ("VAR",
"LEA", ...); :data:`METRICS` maps those names to metric factories.  A domain
scientist's own scorer — the paper's extension point — is one more row.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.metrics.base import ScoreMetric
from repro.metrics.bytewise import BytewiseEntropyMetric
from repro.metrics.compression import CompressionRatioMetric
from repro.metrics.entropy import HistogramEntropyMetric, LocalEntropyMetric
from repro.metrics.interpolation import TrilinearErrorMetric
from repro.metrics.statistics import (
    PythonVarianceMetric,
    RangeMetric,
    StdDevMetric,
    VarianceMetric,
)

#: Metric factories by the paper's (upper-case) names; adding a metric is
#: adding a row.
METRICS: Dict[str, Callable[[], ScoreMetric]] = {
    "RANGE": RangeMetric,
    "VAR": VarianceMetric,
    "STD": StdDevMetric,
    "ITL": HistogramEntropyMetric,
    "LOCAL_ENTROPY": LocalEntropyMetric,
    "LEA": BytewiseEntropyMetric,
    "TRILIN": TrilinearErrorMetric,
    "FPZIP": CompressionRatioMetric.fpzip,
    "ZFP": CompressionRatioMetric.zfp,
    "LZ": CompressionRatioMetric.lz,
    # The deliberately GIL-bound pure-Python scorer: listed so request
    # payloads (serve mode, CLI) can select the shape of a user-supplied
    # scalar metric — it is what the process execution tier exists to speed
    # up, and what its throughput gate drives.
    "PYVAR": PythonVarianceMetric,
}

#: The six representative metrics plotted in the paper's figures.
PAPER_METRICS = ("LEA", "FPZIP", "ITL", "RANGE", "VAR", "TRILIN")


def create_metric(name: str) -> ScoreMetric:
    """Instantiate the metric named ``name`` (case-insensitive); ``KeyError``
    naming the available ones when unknown."""
    factory = METRICS.get(name.strip().upper())
    if factory is None:
        raise KeyError(
            f"unknown metric {name!r}; available: {', '.join(sorted(METRICS))}"
        )
    return factory()

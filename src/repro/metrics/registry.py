"""Name-based metric registry.

The pipeline configuration refers to metrics by the paper's names ("VAR",
"LEA", ...); the registry maps those names to constructed metric objects and
lets users plug in their own domain-specific scorers, which is how the paper
expects domain scientists to extend the system.
"""

from __future__ import annotations

from typing import Callable, Dict, List

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

MetricFactory = Callable[[], ScoreMetric]


class MetricRegistry:
    """Registry of metric factories keyed by (case-insensitive) name."""

    def __init__(self) -> None:
        self._factories: Dict[str, MetricFactory] = {}

    def register(self, name: str, factory: MetricFactory, overwrite: bool = False) -> None:
        """Register ``factory`` under ``name``.

        Raises ``ValueError`` if the name is taken and ``overwrite`` is False.
        """
        key = name.strip().upper()
        if not key:
            raise ValueError("metric name must not be empty")
        if key in self._factories and not overwrite:
            raise ValueError(f"metric {key!r} is already registered")
        self._factories[key] = factory

    def create(self, name: str) -> ScoreMetric:
        """Instantiate the metric registered under ``name``."""
        key = name.strip().upper()
        factory = self._factories.get(key)
        if factory is None:
            raise KeyError(
                f"unknown metric {name!r}; available: {', '.join(self.names())}"
            )
        return factory()

    def names(self) -> List[str]:
        """Sorted list of registered metric names."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.strip().upper() in self._factories


def _build_default_registry() -> MetricRegistry:
    registry = MetricRegistry()
    registry.register("RANGE", RangeMetric)
    registry.register("VAR", VarianceMetric)
    registry.register("STD", StdDevMetric)
    registry.register("ITL", HistogramEntropyMetric)
    registry.register("LOCAL_ENTROPY", LocalEntropyMetric)
    registry.register("LEA", BytewiseEntropyMetric)
    registry.register("TRILIN", TrilinearErrorMetric)
    registry.register("FPZIP", CompressionRatioMetric.fpzip)
    registry.register("ZFP", CompressionRatioMetric.zfp)
    registry.register("LZ", CompressionRatioMetric.lz)
    # The deliberately GIL-bound pure-Python scorer: registered so request
    # payloads (serve mode, CLI) can select the shape of a user-supplied
    # scalar metric — it is what the process execution tier exists to speed
    # up, and what its throughput gate drives.
    registry.register("PYVAR", PythonVarianceMetric)
    return registry


_DEFAULT = _build_default_registry()

#: The six representative metrics plotted in the paper's figures.
PAPER_METRICS = ("LEA", "FPZIP", "ITL", "RANGE", "VAR", "TRILIN")


def default_registry() -> MetricRegistry:
    """The registry pre-populated with the paper's metrics."""
    return _DEFAULT


def create_metric(name: str) -> ScoreMetric:
    """Shorthand for ``default_registry().create(name)``."""
    return _DEFAULT.create(name)

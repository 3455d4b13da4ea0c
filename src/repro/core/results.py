"""What a pipeline run hands its caller.

The engine condenses every iteration into one :class:`IterationResult` — the
iteration's :class:`~repro.core.step.StepReport` per step, from which measured
and modelled times, moved bytes and per-rank triangle counts are read — and
:meth:`~repro.core.pipeline.InSituPipeline.process_iteration` returns it
without keeping it.  :class:`PipelineRunResult` is the list one
:meth:`~repro.core.pipeline.InSituPipeline.run` call collected, with the
run's configuration summary: what every summary (``repro run``, the serve
mode's ``summary`` event, the figure reproductions) is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.step import StepReport


@dataclass
class IterationResult:
    """Outcome of one pipeline iteration: what ran, and each step's report.

    The reports are the record; every other quantity is read off them.  All
    times are in seconds; ``modelled_*`` are platform-model seconds,
    ``measured_*`` are Python wall-clock.
    """

    iteration: int
    percent_reduced: float
    nblocks: int
    #: Full per-step reports (times, payload bytes, counters, per-rank
    #: series) keyed by step name, in execution order.
    step_reports: Dict[str, StepReport] = field(default_factory=dict)

    @property
    def modelled_steps(self) -> Dict[str, float]:
        """Per-step modelled seconds (slowest rank), in execution order."""
        return {name: r.modelled_max for name, r in self.step_reports.items()}

    @property
    def nreduced(self) -> int:
        """Blocks the reduction step reduced."""
        reduction = self.step_reports.get("reduction")
        return int(reduction.counters.get("nreduced", 0.0)) if reduction else 0

    @property
    def moved_bytes(self) -> float:
        """Bytes moved by the redistribution step."""
        redistribution = self.step_reports.get("redistribution")
        return float(redistribution.payload_bytes) if redistribution else 0.0

    @property
    def triangles_per_rank(self) -> List[int]:
        """Per-rank triangle counts after redistribution (rendering load)."""
        rendering = self.step_reports.get("rendering")
        if rendering is None:
            return []
        return [int(t) for t in rendering.per_rank_counters.get("triangles", [])]

    @property
    def modelled_total(self) -> float:
        """Full-pipeline modelled seconds for the iteration."""
        return float(sum(self.modelled_steps.values()))

    @property
    def modelled_rendering(self) -> float:
        """Modelled rendering seconds (the quantity plotted in Figs. 5–10)."""
        return float(self.modelled_steps.get("rendering", 0.0))

    @property
    def load_imbalance(self) -> float:
        """max/mean of the per-rank triangle counts (1.0 = perfectly balanced)."""
        triangles = self.triangles_per_rank
        if not triangles:
            return 1.0
        arr = np.asarray(triangles, dtype=np.float64)
        mean = arr.mean()
        if mean <= 0:
            return 1.0
        return float(arr.max() / mean)


@dataclass
class PipelineRunResult:
    """Outcome of one :meth:`~repro.core.pipeline.InSituPipeline.run` call."""

    config_summary: Dict[str, object]
    iterations: List[IterationResult] = field(default_factory=list)

    @property
    def niterations(self) -> int:
        """Number of completed iterations."""
        return len(self.iterations)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary summary (used by the experiment drivers)."""
        rendering = [r.modelled_rendering for r in self.iterations]
        totals = [r.modelled_total for r in self.iterations]
        return {
            "config": dict(self.config_summary),
            "iterations": self.niterations,
            "rendering_mean": float(np.mean(rendering)) if rendering else 0.0,
            "rendering_min": float(np.min(rendering)) if rendering else 0.0,
            "rendering_max": float(np.max(rendering)) if rendering else 0.0,
            "total_mean": float(np.mean(totals)) if totals else 0.0,
            "percent_final": self.iterations[-1].percent_reduced if self.iterations else 0.0,
        }

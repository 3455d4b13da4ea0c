"""Figures 6 & 7 — rendering time as a function of the reduction percentage.

Figure 6 plots the per-iteration rendering time at a handful of fixed
percentages; Figure 7 plots the average/min/max rendering time against the
percentage of reduced blocks.  The paper's key observation — reproduced and
asserted by the benchmarks — is that the improvement is *not* proportional to
the percentage: since the high-score blocks are clustered on a few processes
(and many blocks are transparent), a majority of blocks must be reduced before
the slowest process gets any relief.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario


@dataclass
class ReductionSweepResult:
    """Rendering time per percentage (Figure 7) and per iteration (Figure 6)."""

    ncores: int
    percentages: List[float]
    #: ``series[p][i]`` = rendering seconds at percentage ``p``, iteration ``i``.
    series: Dict[float, List[float]] = field(default_factory=dict)

    def mean(self, percent: float) -> float:
        """Mean rendering seconds at one percentage."""
        return float(np.mean(self.series[percent]))

    def minimum(self, percent: float) -> float:
        """Minimum rendering seconds at one percentage."""
        return float(np.min(self.series[percent]))

    def maximum(self, percent: float) -> float:
        """Maximum rendering seconds at one percentage."""
        return float(np.max(self.series[percent]))

    def means(self) -> List[float]:
        """Mean rendering seconds for every percentage, in sweep order."""
        return [self.mean(p) for p in self.percentages]


def run_reduction_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 90, 94, 98, 100),
    niterations: int = 10,
    metric: str = "VAR",
    redistribution: str = "none",
) -> ReductionSweepResult:
    """Run the pipeline at each fixed percentage (Figures 6, 7 and 9)."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=max(niterations, 1))
    iteration_blocks = scenario.iteration_blocks(niterations)
    result = ReductionSweepResult(
        ncores=scenario.nranks, percentages=[float(p) for p in percentages]
    )
    for percent in result.percentages:
        pipeline = scenario.build_pipeline(metric=metric, redistribution=redistribution)
        times = []
        for blocks in iteration_blocks:
            iteration_result, _ = pipeline.process_iteration(
                blocks, percent_override=percent
            )
            times.append(iteration_result.modelled_rendering)
        result.series[percent] = times
    return result


def format_fig7(result: ReductionSweepResult) -> str:
    """Text rendering of the Figure 7 curve."""
    lines = [
        f"Figure 7 — rendering time vs percentage of reduced blocks ({result.ncores} cores)",
        f"{'% reduced':>10} {'mean s':>9} {'min s':>9} {'max s':>9}",
    ]
    for p in result.percentages:
        lines.append(
            f"{p:>10.0f} {result.mean(p):>9.1f} {result.minimum(p):>9.1f} {result.maximum(p):>9.1f}"
        )
    return "\n".join(lines)


def format_fig6(result: ReductionSweepResult) -> str:
    """Text rendering of the Figure 6 per-iteration series."""
    lines = [f"Figure 6 — per-iteration rendering time ({result.ncores} cores)"]
    header = "iter  " + "  ".join(f"{p:>6.0f}%" for p in result.percentages)
    lines.append(header)
    niter = len(next(iter(result.series.values()))) if result.series else 0
    for i in range(niter):
        row = f"{i:>4}  " + "  ".join(
            f"{result.series[p][i]:>7.1f}" for p in result.percentages
        )
        lines.append(row)
    return "\n".join(lines)

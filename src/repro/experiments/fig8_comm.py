"""Figure 8 — redistribution communication time vs reduction percentage.

The data exchanged by the redistribution step shrinks as more blocks are
reduced (a reduced block is 8 values instead of tens of thousands), so the
communication time decreases with the percentage — while staying one to two
orders of magnitude below the rendering time, which is the paper's
justification for treating it as negligible (~1.2 s on 64 cores, ~0.6 s on
400 at 0 percent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario


@dataclass
class CommSweepResult:
    """Communication seconds per strategy and percentage."""

    ncores: int
    percentages: List[float]
    #: ``series[strategy][p]`` = list of per-iteration communication seconds.
    series: Dict[str, Dict[float, List[float]]] = field(default_factory=dict)

    def mean(self, strategy: str, percent: float) -> float:
        """Mean communication seconds of one strategy at one percentage."""
        return float(np.mean(self.series[strategy][percent]))

    def means(self, strategy: str) -> List[float]:
        """Mean communication seconds across the sweep for one strategy."""
        return [self.mean(strategy, p) for p in self.percentages]


def run_comm_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 100),
    niterations: int = 10,
    metric: str = "LEA",
    strategies: Sequence[str] = ("round_robin", "shuffle"),
) -> CommSweepResult:
    """Reproduce Figure 8 (the paper uses the LEA metric for this experiment)."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=max(niterations, 1))
    iteration_blocks = scenario.iteration_blocks(niterations)
    result = CommSweepResult(
        ncores=scenario.nranks, percentages=[float(p) for p in percentages]
    )
    for strategy in strategies:
        result.series[strategy] = {}
        for percent in result.percentages:
            pipeline = scenario.build_pipeline(metric=metric, redistribution=strategy)
            times = []
            for blocks in iteration_blocks:
                iteration_result, _ = pipeline.process_iteration(
                    blocks, percent_override=percent
                )
                times.append(iteration_result.modelled_steps["redistribution"])
            result.series[strategy][percent] = times
    return result


def format_fig8(result: CommSweepResult) -> str:
    """Text rendering of the Figure 8 curves."""
    lines = [
        f"Figure 8 — redistribution time vs percentage of reduced blocks ({result.ncores} cores)",
        f"{'% reduced':>10} " + " ".join(f"{s:>14}" for s in result.series),
    ]
    for p in result.percentages:
        row = f"{p:>10.0f} " + " ".join(
            f"{result.mean(s, p):>14.3f}" for s in result.series
        )
        lines.append(row)
    return "\n".join(lines)

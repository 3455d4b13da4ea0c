"""Figure 9 — combined effect of reduction percentage and load redistribution.

The rendering time is swept over the reduction percentage with redistribution
disabled, random, and round-robin.  The reproduction checks the paper's two
observations: redistribution improves (and stabilises) the rendering time at
every percentage, and the round-robin and random policies perform equivalently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario
from repro.experiments.fig6_7_reduction import ReductionSweepResult, run_reduction_sweep


@dataclass
class CombinedSweepResult:
    """One reduction sweep per redistribution strategy."""

    ncores: int
    sweeps: Dict[str, ReductionSweepResult] = field(default_factory=dict)

    def mean(self, strategy: str, percent: float) -> float:
        """Mean rendering seconds of one strategy at one percentage."""
        return self.sweeps[strategy].mean(percent)

    def strategies(self) -> List[str]:
        """Strategies present in the sweep."""
        return list(self.sweeps)


def run_combined_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 90, 98, 100),
    niterations: int = 10,
    metric: str = "VAR",
    strategies: Sequence[str] = ("none", "round_robin", "shuffle"),
) -> CombinedSweepResult:
    """Reproduce Figure 9."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=max(niterations, 1))
    result = CombinedSweepResult(ncores=scenario.nranks)
    for strategy in strategies:
        result.sweeps[strategy] = run_reduction_sweep(
            scenario,
            percentages=percentages,
            niterations=niterations,
            metric=metric,
            redistribution=strategy,
        )
    return result


def format_fig9(result: CombinedSweepResult) -> str:
    """Text rendering of the Figure 9 curves."""
    strategies = result.strategies()
    first = result.sweeps[strategies[0]]
    lines = [
        f"Figure 9 — rendering time vs percentage, with/without redistribution ({result.ncores} cores)",
        f"{'% reduced':>10} " + " ".join(f"{s:>14}" for s in strategies),
    ]
    for p in first.percentages:
        lines.append(
            f"{p:>10.0f} " + " ".join(f"{result.mean(s, p):>14.1f}" for s in strategies)
        )
    return "\n".join(lines)

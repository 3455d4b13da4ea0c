"""Figure 10 — dynamic adaptation without load redistribution.

The pipeline runs for 30 iterations with Algorithm 1 enabled and a fixed
target run time (120/60/20 s on 64 cores, 30/15/7 s on 400 cores in the
paper).  The reproduction records the per-iteration run time and reduction
percentage and checks convergence: after the first few iterations the run
time stays near the target (within the variability of the rendering task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import AdaptationConfig
from repro.scenarios import ExperimentScenario

#: Target run times per core count used by the paper for Figure 10.
PAPER_FIG10_TARGETS: Dict[int, Sequence[float]] = {
    64: (120.0, 60.0, 20.0),
    400: (30.0, 15.0, 7.0),
}


@dataclass
class AdaptationTrace:
    """Per-iteration behaviour of one adaptive run."""

    target_seconds: float
    times: List[float] = field(default_factory=list)
    percents: List[float] = field(default_factory=list)

    def settling_error(self, warmup: int = 5) -> float:
        """Mean relative |time - target| after the warm-up iterations."""
        if len(self.times) <= warmup:
            return float("nan")
        tail = np.asarray(self.times[warmup:], dtype=np.float64)
        return float(np.mean(np.abs(tail - self.target_seconds)) / self.target_seconds)

    def converged(self, warmup: int = 5, tolerance: float = 0.5) -> bool:
        """Whether the post-warm-up run times stay within ``tolerance`` of the target."""
        err = self.settling_error(warmup)
        return bool(np.isfinite(err) and err <= tolerance)


@dataclass
class Fig10Result:
    """Traces for every target of one core count."""

    ncores: int
    redistribution: str
    traces: Dict[float, AdaptationTrace] = field(default_factory=dict)


def run_adaptation(
    scenario: Optional[ExperimentScenario] = None,
    targets: Optional[Sequence[float]] = None,
    niterations: int = 30,
    metric: str = "VAR",
    redistribution: str = "none",
) -> Fig10Result:
    """Reproduce Figure 10 (or Figure 11 when ``redistribution`` is enabled)."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=10)
    if targets is None:
        targets = PAPER_FIG10_TARGETS.get(scenario.nranks, (60.0, 20.0))
    # The paper replays 30 iterations; cycle over the available snapshots.
    snapshots = scenario.dataset.select(min(niterations, len(scenario.dataset)))
    result = Fig10Result(ncores=scenario.nranks, redistribution=redistribution)
    for target in targets:
        pipeline = scenario.build_pipeline(
            metric=metric,
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=float(target)),
        )
        trace = AdaptationTrace(target_seconds=float(target))
        for i in range(niterations):
            snapshot_index = snapshots[i % len(snapshots)]
            blocks = scenario.blocks_for(snapshot_index)
            iteration_result, _ = pipeline.process_iteration(blocks)
            trace.times.append(iteration_result.modelled_total)
            trace.percents.append(iteration_result.percent_reduced)
        result.traces[float(target)] = trace
    return result


def format_fig10(result: Fig10Result, label: str = "Figure 10") -> str:
    """Text rendering of the adaptation traces."""
    lines = [
        f"{label} — adaptive runs ({result.ncores} cores, redistribution={result.redistribution})"
    ]
    for target, trace in result.traces.items():
        lines.append(
            f"  target {target:>6.1f} s: settling error {trace.settling_error():.2f}, "
            f"final percent {trace.percents[-1]:.1f}"
        )
        lines.append(
            "    times: " + " ".join(f"{t:6.1f}" for t in trace.times)
        )
        lines.append(
            "    perc : " + " ".join(f"{p:6.1f}" for p in trace.percents)
        )
    return "\n".join(lines)

"""Figure 5 — rendering time under the different load-redistribution policies.

No block is reduced; the pipeline runs with (a) no redistribution, (b) random
shuffling, and (c) round-robin distribution driven by each of the six metrics.
The paper's findings, which the reproduction checks: redistribution speeds the
rendering up by several times (4× on 64 cores, 5× on 400 in the paper), and
the choice of metric — or using random shuffling instead — makes little
difference to the balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario
from repro.metrics.registry import PAPER_METRICS


@dataclass
class Fig5Row:
    """Mean/min/max rendering seconds of one configuration."""

    label: str
    mean_seconds: float
    min_seconds: float
    max_seconds: float
    mean_comm_seconds: float


@dataclass
class Fig5Result:
    """All configurations of one core count."""

    ncores: int
    rows: List[Fig5Row]

    def row(self, label: str) -> Fig5Row:
        """Row with the given label (NONE, SHUFFLE, or a metric name)."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r}")

    def speedup(self, label: str) -> float:
        """Speedup of configuration ``label`` relative to NONE."""
        baseline = self.row("NONE").mean_seconds
        other = self.row(label).mean_seconds
        if other <= 0:
            return float("inf")
        return baseline / other


def run_fig5(
    scenario: Optional[ExperimentScenario] = None,
    niterations: int = 10,
    metrics: Sequence[str] = PAPER_METRICS,
    fast_metric_only: bool = False,
) -> Fig5Result:
    """Reproduce Figure 5 for one scenario.

    Parameters
    ----------
    niterations:
        Number of equally spaced iterations to process per configuration
        (the paper uses 10).
    fast_metric_only:
        When True only the VAR-driven round-robin is run in addition to NONE
        and SHUFFLE (used by the small benchmark scale to bound run time).
    """
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=max(niterations, 1))
    iteration_blocks = scenario.iteration_blocks(niterations)
    rows: List[Fig5Row] = []

    def run_config(label: str, metric: str, redistribution: str) -> Fig5Row:
        pipeline = scenario.build_pipeline(metric=metric, redistribution=redistribution)
        render_times = []
        comm_times = []
        for blocks in iteration_blocks:
            result, _ = pipeline.process_iteration(blocks, percent_override=0.0)
            render_times.append(result.modelled_rendering)
            comm_times.append(result.modelled_steps["redistribution"])
        return Fig5Row(
            label=label,
            mean_seconds=float(np.mean(render_times)),
            min_seconds=float(np.min(render_times)),
            max_seconds=float(np.max(render_times)),
            mean_comm_seconds=float(np.mean(comm_times)),
        )

    rows.append(run_config("NONE", "VAR", "none"))
    rows.append(run_config("SHUFFLE", "VAR", "shuffle"))
    selected = ("VAR",) if fast_metric_only else tuple(metrics)
    for name in selected:
        rows.append(run_config(name, name, "round_robin"))
    return Fig5Result(ncores=scenario.nranks, rows=rows)


def format_fig5(result: Fig5Result) -> str:
    """Text rendering of the Figure 5 bars."""
    lines = [
        f"Figure 5 — rendering time per redistribution policy ({result.ncores} cores, p=0)",
        f"{'policy':<10} {'mean s':>9} {'min s':>9} {'max s':>9} {'speedup':>9} {'comm s':>8}",
    ]
    for row in result.rows:
        speedup = result.speedup(row.label)
        lines.append(
            f"{row.label:<10} {row.mean_seconds:>9.1f} {row.min_seconds:>9.1f} "
            f"{row.max_seconds:>9.1f} {speedup:>9.2f} {row.mean_comm_seconds:>8.2f}"
        )
    return "\n".join(lines)

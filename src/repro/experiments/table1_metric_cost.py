"""Table I — computation time required for different metrics.

The paper scores 16,000 blocks of 55×55×38 floats and reports the elapsed
seconds per metric on 64 and 400 cores.  The reproduction reports, for each of
the six representative metrics:

* the **measured** wall-clock seconds to score this repository's laptop-scale
  blocks (a sanity check that the relative ordering of metric costs —
  VAR < LEA < RANGE < FPZIP < ITL < TRILIN — is preserved by the
  implementations);
* the **modelled** seconds for the paper's exact workload (16,000 blocks of
  55×55×38 values spread over 64 / 400 cores) using the per-point
  coefficients calibrated from Table I, next to the paper's published value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.scenarios import ExperimentScenario, create_scenario_config
from repro.metrics.registry import PAPER_METRICS, create_metric
from repro.perfmodel.calibration import (
    PAPER_BLOCK_SHAPE,
    PAPER_NBLOCKS,
    TABLE1_SECONDS,
    paper_points_per_core,
)
from repro.utils.timer import Timer


@dataclass
class Table1Row:
    """One row of the reproduced Table I."""

    metric: str
    measured_seconds: float
    measured_blocks: int
    modelled_seconds_64: float
    modelled_seconds_400: float
    paper_seconds_64: float
    paper_seconds_400: float


def run_table1(
    scenario: Optional[ExperimentScenario] = None,
    metrics: Sequence[str] = PAPER_METRICS,
    max_blocks: int = 128,
) -> List[Table1Row]:
    """Reproduce Table I.

    Parameters
    ----------
    scenario:
        Scenario providing the blocks to score; a 64-core scenario is built
        when omitted.
    metrics:
        Metric names to evaluate (default: the paper's six).
    max_blocks:
        Number of laptop-scale blocks actually scored for the measured column
        (keeps the pure-Python compressor metrics affordable).
    """
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=1)
    )
    blocks = scenario.all_blocks(0)[: max(1, int(max_blocks))]
    points_per_core = {n: paper_points_per_core(n) for n in (64, 400)}
    # One untimed block per metric, then the best of three interleaved passes:
    # a single cold pass charges first-call warm-up to whichever metric runs
    # first, and back-to-back passes share whatever else the box is doing.
    scorers = [create_metric(name) for name in metrics]
    for metric in scorers:
        metric.score_block(blocks[0].data)
    best = [float("inf")] * len(scorers)
    for _ in range(3):
        for index, metric in enumerate(scorers):
            with Timer() as timer:
                for block in blocks:
                    metric.score_block(block.data)
            best[index] = min(best[index], timer.elapsed)
    rows: List[Table1Row] = []
    for metric, measured in zip(scorers, best):
        cost64 = scenario.platform.metric_costs.get(metric.name, metric.cost)
        rows.append(
            Table1Row(
                metric=metric.name,
                measured_seconds=measured,
                measured_blocks=len(blocks),
                modelled_seconds_64=cost64.per_point * points_per_core[64],
                modelled_seconds_400=cost64.per_point * points_per_core[400],
                paper_seconds_64=TABLE1_SECONDS.get(metric.name, {}).get(64, float("nan")),
                paper_seconds_400=TABLE1_SECONDS.get(metric.name, {}).get(400, float("nan")),
            )
        )
    return rows


def format_table(rows: Sequence[Table1Row]) -> str:
    """Render the reproduced Table I as text."""
    lines = [
        "Table I — metric scoring cost (modelled for the paper's 16,000 x 55x55x38 blocks)",
        f"{'Metric':<8} {'measured s (laptop blocks)':>28} {'64-core model/paper':>22} {'400-core model/paper':>22}",
    ]
    for row in rows:
        lines.append(
            f"{row.metric:<8} {row.measured_seconds:>20.3f} ({row.measured_blocks:>4}) "
            f"{row.modelled_seconds_64:>10.2f} / {row.paper_seconds_64:<8.2f} "
            f"{row.modelled_seconds_400:>10.2f} / {row.paper_seconds_400:<8.2f}"
        )
    return "\n".join(lines)

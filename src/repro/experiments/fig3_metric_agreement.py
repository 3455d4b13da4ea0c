"""Figure 3 — pairwise comparison of the block orderings produced by the metrics.

For every pair of the six representative metrics, every block is placed at
(rank under metric A, rank under metric B).  The reproduction reports, per
pair, the Spearman rank correlation, the fraction of blocks whose two ranks
agree within 10%, and the size of the "quiet prefix" — the set of minimum-
score blocks that every metric orders identically (by block id), which is the
diagonal lower-left segment visible in the paper's scatter plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario
from repro.metrics.comparison import (
    MetricComparison,
    compare_metrics,
    score_blocks_with_metrics,
)
from repro.metrics.registry import PAPER_METRICS, create_metric


@dataclass
class Fig3Result:
    """Outcome of the Figure 3 reproduction."""

    comparisons: List[MetricComparison]
    quiet_prefix_size: Dict[str, int]
    nblocks: int

    def pair(self, metric_a: str, metric_b: str) -> MetricComparison:
        """Return the comparison of one (unordered) metric pair."""
        wanted = {metric_a.upper(), metric_b.upper()}
        for comp in self.comparisons:
            if {comp.metric_a, comp.metric_b} == wanted:
                return comp
        raise KeyError(f"no comparison for pair {metric_a!r}, {metric_b!r}")


def _quiet_prefix(scores: Dict[int, float]) -> int:
    """Number of blocks sharing the metric's minimum score."""
    values = np.asarray(list(scores.values()), dtype=np.float64)
    if values.size == 0:
        return 0
    return int(np.sum(np.isclose(values, values.min())))


def run_fig3(
    scenario: Optional[ExperimentScenario] = None,
    metrics: Sequence[str] = PAPER_METRICS,
    snapshot_index: int = 0,
    max_blocks: Optional[int] = 512,
) -> Fig3Result:
    """Reproduce the Figure 3 pairwise rank-agreement analysis."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=1)
    blocks = scenario.all_blocks(snapshot_index)
    if max_blocks is not None and len(blocks) > max_blocks:
        stride = int(np.ceil(len(blocks) / max_blocks))
        blocks = blocks[::stride]
    metric_objs = [create_metric(name) for name in metrics]
    per_metric_scores = score_blocks_with_metrics(metric_objs, blocks)
    comparisons = compare_metrics(per_metric_scores)
    quiet = {name: _quiet_prefix(scores) for name, scores in per_metric_scores.items()}
    return Fig3Result(
        comparisons=comparisons, quiet_prefix_size=quiet, nblocks=len(blocks)
    )


def format_fig3(result: Fig3Result) -> str:
    """Text rendering of the 15 pairwise comparisons."""
    lines = [
        f"Figure 3 — metric rank agreement over {result.nblocks} blocks",
        f"{'pair':<18} {'spearman':>9} {'close ranks (10%)':>18}",
    ]
    for comp in result.comparisons:
        lines.append(
            f"{comp.metric_a}/{comp.metric_b:<12} {comp.spearman:>9.3f} "
            f"{comp.agreement_fraction(0.1):>18.2f}"
        )
    return "\n".join(lines)

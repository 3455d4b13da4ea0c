"""Figure 4 — scoremaps of the domain for each metric.

The paper shows greyscale maps of the per-block scores next to the original
reflectivity colormap, so scientists can pick the metric whose high-score
region matches the feature they care about (the vortex region at the centre
of the storm).  The reproduction computes the same scoremaps and reports, per
metric, how strongly the high-score blocks overlap the storm's region of
interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scenarios import ExperimentScenario
from repro.metrics.registry import PAPER_METRICS, create_metric
from repro.metrics.scoremap import ScoreMap, compute_scoremap
from repro.viz.slice_render import extract_slice


@dataclass
class Fig4Result:
    """Scoremaps plus their overlap with the storm region."""

    scoremaps: Dict[str, ScoreMap]
    original_slice: np.ndarray
    #: Fraction of each metric's top-decile-score area lying inside the storm
    #: region (dBZ > 20 anywhere in the column).
    storm_overlap: Dict[str, float]


def run_fig4(
    scenario: Optional[ExperimentScenario] = None,
    metrics: Sequence[str] = PAPER_METRICS,
    snapshot_index: int = 0,
) -> Fig4Result:
    """Reproduce the Figure 4 scoremaps."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=1)
    field = np.asarray(
        scenario.dataset.snapshot(snapshot_index).get_field(scenario.config.field_name),
        dtype=np.float64,
    )
    decomposition = scenario.decomposition
    storm_columns = field.max(axis=2) > 20.0  # horizontal footprint of the storm
    scoremaps: Dict[str, ScoreMap] = {}
    overlap: Dict[str, float] = {}
    for name in metrics:
        metric = create_metric(name)
        smap = compute_scoremap(metric, decomposition, field)
        scoremaps[metric.name] = smap
        norm = smap.normalised()
        threshold = np.quantile(norm, 0.9)
        high = norm > threshold
        overlap[metric.name] = float(
            np.sum(high & storm_columns) / max(np.sum(high), 1)
        )
    return Fig4Result(
        scoremaps=scoremaps,
        original_slice=extract_slice(field),
        storm_overlap=overlap,
    )


def format_fig4(result: Fig4Result) -> str:
    """Text rendering of the scoremap/storm overlap summary."""
    lines = [
        "Figure 4 — scoremaps: overlap of each metric's top-decile blocks with the storm",
        f"{'metric':<10} {'storm overlap':>14}",
    ]
    for name, value in result.storm_overlap.items():
        lines.append(f"{name:<10} {value:>14.2f}")
    return "\n".join(lines)

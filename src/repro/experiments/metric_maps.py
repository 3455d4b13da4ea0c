"""Figures 3 and 4 — how the metrics rank a snapshot's blocks, and what each keeps.

The paper's Fig. 3 places every block at (rank under metric A, rank under
metric B) for each pair of its six metrics; its Fig. 4 paints each block's
score over the block's horizontal footprint (a *scoremap*) beside the storm, so
scientists can pick the metric whose high scores cover what they care about.
Both read one array here: :func:`score_snapshot` scores the arrival of a
scenario's first snapshot once per metric with the scoring step's own call,
``map_shape_groups(arrival.groups, metric.score_batch, np.float64,
pool_pays(metric.gil_bound))``, so a block scores here exactly as the
pipeline's sort sees it.

From those ``(metrics, blocks)`` scores :class:`MetricMaps` derives

* Fig. 3: each metric's ranks (ascending score, ties by block id — the
  pipeline's sort order), the Spearman correlation of every pair, and each
  metric's quiet prefix: the blocks sharing its minimum score, which every
  metric orders by id — the diagonal lower-left segment of the scatter plots;
* Fig. 4: one image per metric, each pixel holding the score of the block
  whose footprint covers it (where blocks stack in a column, the last in
  arrival order shows), and the share of each metric's top-decile area that
  lies inside the storm (dBZ > 20 somewhere in the column).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.grid.batch import DecomposedField
from repro.grid.fanout import map_shape_groups
from repro.metrics.registry import PAPER_METRICS, create_metric
from repro.scenarios import ExperimentScenario
from repro.utils.procpool import pool_pays

#: Reflectivity (dBZ) above which a column belongs to the storm.
STORM_DBZ = 20.0


@dataclass(frozen=True)
class MetricMaps:
    """One snapshot's blocks scored by several metrics.

    ``scores[m, row]`` is metric ``names[m]``'s score of the arrival's row
    ``row``; ``column_max`` is the ``(nx, ny)`` maximum of the field over each
    vertical column.
    """

    names: Tuple[str, ...]
    scores: np.ndarray
    arrival: DecomposedField
    column_max: np.ndarray

    @cached_property
    def ranks(self) -> np.ndarray:
        """``ranks[m, row]``: the row's place in ascending (score, block id)
        order under metric ``m``; rank 0 is the least relevant block."""
        ranks = np.empty(self.scores.shape, dtype=np.int64)
        places = np.arange(self.scores.shape[1])
        for out, scores in zip(ranks, self.scores):
            out[np.lexsort((self.arrival.ids, scores))] = places
        return ranks

    @cached_property
    def spearman(self) -> Dict[Tuple[str, str], float]:
        """Spearman rank correlation of every metric pair, keyed in ``names``
        order (15 pairs for 6 metrics).  Centred ranks are multiples of 1/2,
        so every sum here is exact and the result is independent of row order."""
        centred = self.ranks.astype(np.float64)
        centred -= centred.mean(axis=1, keepdims=True)
        products = centred @ centred.T
        return {
            (self.names[a], self.names[b]): float(
                products[a, b] / np.sqrt(products[a, a] * products[b, b])
            )
            for a, b in combinations(range(len(self.names)), 2)
        }

    @cached_property
    def quiet_prefix(self) -> Dict[str, int]:
        """Number of blocks sharing each metric's minimum score (``np.isclose``)."""
        return {
            name: int(np.isclose(scores, scores.min()).sum())
            for name, scores in zip(self.names, self.scores)
        }

    @cached_property
    def images(self) -> np.ndarray:
        """``(metrics, nx, ny)`` scoremaps: each pixel the score of the block
        whose footprint covers it, the last such block in arrival order.

        That block is the top one of the column, so a pixel shows one layer of
        its footprint's blocks: 1 of 8 on ``blue_waters_64``, whose blocks
        stack 8 deep (``blocks_per_subdomain`` (2, 2, 8)).  The storm-overlap
        and contrast readings judge that layer only."""
        shown = np.empty(self.column_max.shape, dtype=np.int64)
        starts = self.arrival.starts[:, :2].tolist()
        stops = self.arrival.stops[:, :2].tolist()
        for row, ((x0, y0), (x1, y1)) in enumerate(zip(starts, stops)):
            shown[x0:x1, y0:y1] = row
        return self.scores[:, shown]

    @cached_property
    def normalised(self) -> np.ndarray:
        """:attr:`images` rescaled to [0, 1] per metric (a constant image to zeros)."""
        images = self.images
        lo = images.min(axis=(1, 2), keepdims=True)
        span = images.max(axis=(1, 2), keepdims=True) - lo
        return np.divide(images - lo, span, out=np.zeros_like(images), where=span > 0)

    @cached_property
    def top_decile(self) -> np.ndarray:
        """``(metrics, nx, ny)`` booleans: the pixels above the 0.9 quantile of
        each metric's normalised image."""
        norm = self.normalised
        return norm > np.quantile(norm, 0.9, axis=(1, 2), keepdims=True)

    @cached_property
    def storm_overlap(self) -> Dict[str, float]:
        """Share of each metric's top-decile area lying inside the storm."""
        storm = self.column_max > STORM_DBZ
        return {
            name: float(np.sum(high & storm) / max(np.sum(high), 1))
            for name, high in zip(self.names, self.top_decile)
        }


def score_snapshot(
    scenario: ExperimentScenario, metrics: Sequence[str] = PAPER_METRICS
) -> MetricMaps:
    """Score every block of the scenario's first snapshot with each metric,
    as the pipeline does."""
    arrival = scenario.blocks_for(0)
    scorers = [create_metric(name) for name in metrics]
    scores = np.stack([
        map_shape_groups(arrival.groups, m.score_batch, np.float64, pool_pays(m.gil_bound))
        for m in scorers
    ])
    return MetricMaps(
        tuple(m.name for m in scorers), scores, arrival, arrival.field().max(axis=2)
    )


def format_metric_maps(maps: MetricMaps) -> str:
    """Text rendering of Fig. 3's pair correlations and each metric's quiet
    prefix and Fig. 4 storm overlap."""
    lines = [
        f"Figure 3 — metric rank agreement over {maps.scores.shape[1]} blocks",
        f"{'pair':<18} {'spearman':>9}",
    ]
    lines += [f"{a + '/' + b:<18} {rho:>9.3f}" for (a, b), rho in maps.spearman.items()]
    lines += [
        "",
        "Figures 3 and 4 — per metric: minimum-score blocks, and the share of the",
        "top-decile scoremap area inside the storm",
        f"{'metric':<10} {'quiet blocks':>13} {'storm overlap':>14}",
    ]
    lines += [
        f"{name:<10} {maps.quiet_prefix[name]:>13} {maps.storm_overlap[name]:>14.2f}"
        for name in maps.names
    ]
    return "\n".join(lines)

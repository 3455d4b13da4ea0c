"""Platform model: network + rendering + scoring costs for one configuration.

A :class:`PlatformModel` bundles everything the pipeline needs to convert work
counts into "Blue Waters seconds" for a given core count, and provides the two
configurations the paper evaluates (64 and 400 cores) as ready-made presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.metrics.base import MetricCost, ScoreMetric
from repro.perfmodel.calibration import TABLE1_SECONDS, metric_cost_from_table1
from repro.perfmodel.render_model import RenderCostModel
from repro.simmpi.costmodel import NetworkCostModel


@dataclass
class PlatformModel:
    """Cost model of one platform configuration.

    Attributes
    ----------
    name:
        Human-readable configuration name (e.g. ``"blue-waters-64"``).
    ncores:
        Number of cores (virtual ranks) of the configuration.
    network:
        Communication cost model.
    render:
        Rendering cost model (possibly re-calibrated by the experiment
        drivers against the paper's baselines).
    metric_costs:
        Optional per-metric cost overrides; metrics not listed fall back to
        their class-level calibrated cost.
    seconds_per_reduced_block:
        Modelled cost of reducing one block to its 8 corner values (a strided
        copy of 8 values); the reduction step prices its work through
        :meth:`reduction_seconds` exactly like scoring and rendering price
        theirs through the platform.
    """

    name: str
    ncores: int
    network: NetworkCostModel = field(default_factory=NetworkCostModel.blue_waters)
    render: RenderCostModel = field(default_factory=RenderCostModel)
    metric_costs: Mapping[str, MetricCost] = field(default_factory=dict)
    seconds_per_reduced_block: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.ncores < 1:
            raise ValueError(f"ncores must be >= 1, got {self.ncores}")
        if self.seconds_per_reduced_block < 0:
            raise ValueError(
                f"seconds_per_reduced_block must be >= 0, "
                f"got {self.seconds_per_reduced_block}"
            )

    # -- scoring cost ----------------------------------------------------------

    def metric_cost(self, metric: ScoreMetric) -> MetricCost:
        """Cost description for ``metric`` on this platform."""
        override = self.metric_costs.get(metric.name)
        return override if override is not None else metric.cost

    def scoring_seconds(self, metric: ScoreMetric, npoints_per_rank: int, nblocks_per_rank: int) -> float:
        """Modelled seconds for one rank to score its blocks with ``metric``."""
        if npoints_per_rank < 0 or nblocks_per_rank < 0:
            raise ValueError("work counts must be >= 0")
        cost = self.metric_cost(metric)
        return cost.per_point * npoints_per_rank + cost.per_block * nblocks_per_rank

    # -- reduction cost --------------------------------------------------------

    def reduction_seconds(
        self, nreduced_per_rank: int, points_copied: Optional[int] = None
    ) -> float:
        """Modelled seconds for one rank to reduce its selected blocks.

        Without ``points_copied`` every reduced block is priced as one corner
        gather (the pre-ladder behavior).  With it, cost scales with the
        actual payload points retained, in corner-block units of 8 points —
        a level-1 strided downsample copies more than a corner block and is
        priced accordingly.  When every reduced block is a corner block the
        two forms are bitwise identical
        (``points_copied == 8 * nreduced_per_rank``).
        """
        if nreduced_per_rank < 0:
            raise ValueError("work counts must be >= 0")
        if points_copied is None:
            return self.seconds_per_reduced_block * nreduced_per_rank
        if points_copied < 0:
            raise ValueError("work counts must be >= 0")
        return self.seconds_per_reduced_block * (points_copied / 8.0)

    # -- presets -----------------------------------------------------------------

    @classmethod
    def blue_waters(cls, ncores: int) -> "PlatformModel":
        """Blue Waters-like configuration with Table I metric costs.

        ``ncores`` is typically 64 or 400, matching the paper's runs; other
        values reuse the 64-core per-point coefficients (they are scale-free).
        """
        reference = ncores if ncores in (64, 400) else 64
        costs = {
            name: metric_cost_from_table1(name, reference) for name in TABLE1_SECONDS
        }
        return cls(
            name=f"blue-waters-{ncores}",
            ncores=ncores,
            network=NetworkCostModel.blue_waters(),
            render=RenderCostModel(),
            metric_costs=costs,
        )

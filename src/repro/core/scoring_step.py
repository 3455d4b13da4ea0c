"""Step 1: scoring blocks of data.

Every rank scores its own blocks with the configured metric.  The step is
embarrassingly parallel; its modelled cost per rank is the metric's calibrated
per-point cost times the rank's point count, and the step ends at the global
sort (a collective), so the slowest rank determines the step's contribution to
the iteration time.

One reference class and one batched class implement the contract, each with
``execute(context)`` as its one method, and both leave the pairs in
``context.pair_arrays`` as the per-rank ``(n_r, 2)`` float64 ``(id, score)``
wire arrays the sort gathers.  :class:`ScoringStep` (the ``serial`` oracle)
scores every block of ``context.columns.to_ranks()`` with
``metric.score_block``, clones it to attach its score, and writes the columns
back from the scored blocks.  :class:`VectorizedScoringStep` (every other
backend name) makes one :func:`~repro.grid.fanout.map_shape_groups` pass of
``metric.score_batch`` over the payload groups of ``context.columns``, all
ranks at once, and writes a ``scores`` column.  The pass runs inline, or
over the shared process pool — row chunks pickled into its tasks — for a
metric that declares ``gil_bound`` whenever
:func:`~repro.utils.procpool.pool_pays`; this step is the one reader of that
rule.  A score is a function of one block, so both classes, and every
chunking, give bitwise-identical scores, and neither the backend nor the pool
can perturb a downstream decision.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.step import IterationContext, StepReport, share_elapsed
from repro.grid.batch import BlockColumns
from repro.grid.block import Block
from repro.grid.fanout import map_shape_groups
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel
from repro.utils.procpool import pool_pays
from repro.utils.timer import Timer


class ScoringStep:
    """Scores per-rank block lists with a metric (per-block path)."""

    name = "scoring"

    def __init__(self, metric: ScoreMetric, platform: PlatformModel) -> None:
        self.metric = metric
        self.platform = platform

    def execute(self, context: IterationContext) -> StepReport:
        """Score every rank's blocks, one ``metric.score_block`` call per block:
        the pair arrays and the blocks with their scores attached go into
        ``context``; the report counts the blocks and the points scored."""
        pair_arrays: List[np.ndarray] = []
        scored_blocks: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        total_points = 0
        for blocks in context.columns.to_ranks():
            with Timer() as timer:
                scored = [
                    block.with_score(float(self.metric.score_block(block.data)))
                    for block in blocks
                ]
                pairs = [(block.block_id, block.score) for block in scored]
                pair_arrays.append(np.array(pairs, dtype=np.float64).reshape(-1, 2))
            npoints = sum(int(block.data.size) for block in blocks)
            total_points += npoints
            scored_blocks.append(scored)
            measured.append(timer.elapsed)
            modelled.append(
                self.platform.scoring_seconds(self.metric, npoints, len(blocks))
            )
        context.pair_arrays = pair_arrays
        context.columns = BlockColumns(scored_blocks)
        return StepReport(
            self.name,
            measured_per_rank=measured,
            modelled_per_rank=modelled,
            counters={
                "nblocks": float(len(context.columns)),
                "npoints": float(total_points),
            },
        )


class VectorizedScoringStep(ScoringStep):
    """Scores all ranks' blocks as stacked structure-of-arrays batches.

    One :func:`~repro.grid.fanout.map_shape_groups` pass over the payload
    groups of the columnar state (:class:`~repro.grid.batch.BlockColumns`) —
    one ``metric.score_batch`` call per stacked shape/dtype group, a handful
    for a typical decomposition — writes the ``scores`` column, and the pairs
    leave as the ``(n_r, 2)`` arrays the sort gathers.  Being the first batched
    step, its span carries the one payload stack of the iteration.

    A metric declaring ``gil_bound`` has the same pass fanned out over the
    shared process pool whenever :func:`~repro.utils.procpool.pool_pays`.
    The metric is then pickled into every task with its chunk of rows (the
    built-in metrics are plain objects; a user metric that declares it must
    be a module-level class).  Measured wall-clock is attributed to ranks in
    proportion to their point counts; the modelled per-rank seconds are
    computed exactly as in the serial step.
    """

    def execute(self, context: IterationContext) -> StepReport:
        """Write the context's ``scores`` column in one cross-rank pass, and
        the pair arrays for the sort."""
        metric, columns = self.metric, context.columns
        with Timer() as timer:
            scores = map_shape_groups(
                columns.groups, metric.score_batch, np.float64,
                pool_pays(metric.gil_bound),
            )
            columns.set_scores(scores)
        context.pair_arrays = columns.pair_arrays()
        rank_points = columns.per_rank_sum(columns.npoints)
        return StepReport(
            self.name,
            measured_per_rank=share_elapsed(timer.elapsed, rank_points),
            modelled_per_rank=[
                self.platform.scoring_seconds(metric, npoints, nblocks)
                for npoints, nblocks in zip(rank_points, columns.rank_sizes())
            ],
            counters={
                "nblocks": float(len(columns)),
                "npoints": float(sum(rank_points)),
            },
        )

"""Step 1: scoring blocks of data.

Every rank scores its own blocks with the configured metric.  The step is
embarrassingly parallel; its modelled cost per rank is the metric's calibrated
per-point cost times the rank's point count, and the step ends at the global
sort (a collective), so the slowest rank determines the step's contribution to
the iteration time.

One reference class and one batched class implement the contract:

* :class:`ScoringStep` (``serial``, the oracle) — routes every rank's blocks
  through ``metric.score_blocks`` (a per-block loop by default, but user
  metrics that override it take effect here);
* :class:`VectorizedScoringStep` (``vectorized``, the default) — scores all
  ranks' blocks in one cross-rank pass through
  :func:`~repro.grid.fanout.map_shape_groups`: one ``metric.score_batch`` call
  per stacked shape group.  Built with ``processes=True`` (the ``process``
  backend) the same pass is chunked over the shared process pool with payloads
  crossing zero-copy through shared memory — the choice for GIL-bound or
  Python-heavy scorers (``PYVAR``, ``LZ``, scalar user metrics), which no
  in-process batching can speed up.

Both produce bitwise-identical scores, so the execution engine can pick any
backend without perturbing any downstream decision.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.step import (
    IterationContext,
    StepReport,
    flatten_ranks,
    share_elapsed,
    step_info,
)
from repro.grid.block import Block
from repro.grid.fanout import map_shape_groups
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel
from repro.utils.timer import Timer

ScorePair = Tuple[int, float]


class ScoringStep:
    """Scores per-rank block lists with a metric (per-block path)."""

    name = "scoring"

    def __init__(self, metric: ScoreMetric, platform: PlatformModel) -> None:
        self.metric = metric
        self.platform = platform

    # -- scoring backend ---------------------------------------------------------

    def _score_rank(self, blocks: Sequence[Block]) -> List[float]:
        """Scores of one rank's blocks, in block order."""
        return [float(s) for s in self.metric.score_blocks([b.data for b in blocks])]

    # -- step execution ----------------------------------------------------------

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[List[List[ScorePair]], List[List[Block]], Dict[str, object]]:
        """Score every rank's blocks.

        Returns
        -------
        (per_rank_pairs, per_rank_blocks, info)
            ``per_rank_pairs[r]`` is the list of ``(block_id, score)`` pairs of
            rank ``r``; ``per_rank_blocks`` is the input with scores attached
            to the blocks; ``info`` holds measured and modelled per-rank
            seconds and the total number of points scored (``npoints``).
        """
        per_rank_pairs: List[List[ScorePair]] = []
        scored_blocks: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        total_points = 0
        for blocks in per_rank_blocks:
            with Timer() as timer:
                scores = self._score_rank(blocks)
                pairs = [
                    (block.block_id, score) for block, score in zip(blocks, scores)
                ]
                scored = [
                    block.with_score(score) for block, score in zip(blocks, scores)
                ]
            npoints = sum(int(block.data.size) for block in blocks)
            total_points += npoints
            per_rank_pairs.append(pairs)
            scored_blocks.append(scored)
            measured.append(timer.elapsed)
            modelled.append(
                self.platform.scoring_seconds(self.metric, npoints, len(blocks))
            )
        info = step_info(measured, modelled, npoints=total_points)
        return per_rank_pairs, scored_blocks, info

    def execute(self, context: IterationContext) -> StepReport:
        """Run the step over the context's blocks (PipelineStep contract)."""
        pairs, scored, info = self.run(context.per_rank_blocks)
        context.per_rank_pairs = pairs
        context.per_rank_blocks = scored
        nblocks = sum(len(p) for p in pairs)
        return StepReport.per_rank(
            self.name, info, {"nblocks": nblocks, "npoints": info["npoints"]}
        )


def _score_rows(metric: ScoreMetric, stacked: np.ndarray) -> np.ndarray:
    """Row-wise kernel of a metric without ``score_batch``: one ``score_block``
    call per row.  This loop is the GIL-bound work the process pool exists for."""
    return np.array([metric.score_block(row) for row in stacked], dtype=np.float64)


class VectorizedScoringStep(ScoringStep):
    """Scores all ranks' blocks as stacked structure-of-arrays batches.

    Because scoring is embarrassingly parallel, the step batches *across*
    ranks: every block of the iteration goes through one
    :func:`~repro.grid.fanout.map_shape_groups` pass — grouped by payload
    shape/dtype (a handful of groups for a typical decomposition), each group
    stacked into one ``(nblocks, sx, sy, sz)`` array and scored with
    ``metric.score_batch``, scores scattered back to block order — so the
    output is indistinguishable from :class:`ScoringStep`'s.

    ``processes=True`` fans the same pass out over the shared process pool.
    The metric is then pickled into every task (the built-in metrics are plain
    dataclasses; user metrics must be module-level classes), and a metric
    without ``score_batch`` is scored row by row inside the workers.

    A metric that overrides ``score_blocks`` without a ``score_batch`` may
    apply cross-block logic (e.g. normalisation over one rank's list), which
    neither the cross-rank pass nor chunking preserves; it is routed through
    the per-rank reference step.

    Measured wall-clock is attributed to ranks proportionally to their point
    counts (the single pass does every rank's work at once); the modelled
    per-rank seconds are computed exactly as in the serial step.
    """

    def __init__(
        self, metric: ScoreMetric, platform: PlatformModel, processes: bool = False
    ) -> None:
        super().__init__(metric, platform)
        self.processes = bool(processes)

    def _score_rank(self, blocks: Sequence[Block]) -> List[float]:
        if self.metric.supports_batch:
            kernel = self.metric.score_batch
        elif self.processes:
            kernel = partial(_score_rows, self.metric)
        else:
            # Stacking buys nothing when scoring loops per block in this
            # process anyway; skip the payload copies.
            return super()._score_rank(blocks)
        return map_shape_groups(blocks, kernel, np.float64, self.processes).tolist()

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[List[List[ScorePair]], List[List[Block]], Dict[str, object]]:
        """Score every rank's blocks in one cross-rank pass."""
        metric = self.metric
        if not metric.supports_batch and (
            type(metric).score_blocks is not ScoreMetric.score_blocks
        ):
            return ScoringStep(metric, self.platform).run(per_rank_blocks)
        all_blocks, rank_slices = flatten_ranks(per_rank_blocks)
        with Timer() as timer:
            scores = self._score_rank(all_blocks)
            scored_all = [
                block.with_score(score) for block, score in zip(all_blocks, scores)
            ]
        rank_points = [
            sum(int(block.data.size) for block in blocks)
            for blocks in per_rank_blocks
        ]
        per_rank_pairs = [
            [(block.block_id, score) for block, score in zip(blocks, scores[lo:hi])]
            for (lo, hi), blocks in zip(rank_slices, per_rank_blocks)
        ]
        modelled = [
            self.platform.scoring_seconds(metric, npoints, len(blocks))
            for blocks, npoints in zip(per_rank_blocks, rank_points)
        ]
        info = step_info(
            share_elapsed(timer.elapsed, rank_points),
            modelled,
            npoints=sum(rank_points),
        )
        return per_rank_pairs, [scored_all[lo:hi] for lo, hi in rank_slices], info

"""Step 3: reducing the lowest-scored blocks down the quality ladder.

Given the globally sorted ``<id, score>`` list (identical on every rank) and
the percentage ``p``, the ``p``% blocks with the lowest scores are reduced —
by default all the way to 2×2×2 corner blocks, or, when the pipeline's
``quality_ladder`` has several rungs, spread over the reduction ladder by
score quantile (:func:`ladder_counts`): the very lowest scores get
the most aggressive level, better-scored selected blocks keep a level-1
strided downsample.  Every rank takes the same decision locally, then reduces
only the blocks it owns.

One reference class and one batched class implement the contract, each with
``execute(context)`` as its one method, and both read the selection off the
prefix of the sorted wire array (``context.sorted_array``):
:class:`ReductionStep` (``serial``, the oracle) tests every block of
``context.columns.to_ranks()`` against the ladder decision, reduces one
:func:`~repro.grid.reduction.reduce_block` call at a time and writes the
columns back from its lists; :class:`VectorizedReductionStep` (every other
backend) gathers each (payload group, deeper target level) of
``context.columns`` at once, leaving the rows a group keeps in their stack.
The gather reads a few values per block, so shipping payloads to a pool would
cost far more than it: there is no fanned-out form.  Both produce
bitwise-identical reduced payloads and modelled seconds (priced through
:attr:`~repro.perfmodel.platform.PlatformModel.seconds_per_reduced_block`);
measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.step import IterationContext, StepReport, share_elapsed
from repro.grid.batch import BlockColumns
from repro.grid.block import Block
from repro.grid.reduction import reduce_block
from repro.perfmodel.platform import PlatformModel
from repro.utils.timer import Timer

#: The default quality ladder: every selected block goes to the corner rung,
#: which is bit-for-bit the pre-ladder binary behavior.
DEFAULT_QUALITY_LADDER: Tuple[Tuple[int, float], ...] = ((2, 1.0),)

QualityLadder = Tuple[Tuple[int, float], ...]


def validate_quality_ladder(ladder: Sequence[Sequence[float]]) -> QualityLadder:
    """Normalise and validate a quality ladder; returns the canonical tuple.

    A ladder is an ordered sequence of ``(level, fraction)`` rungs: levels
    must be 1 or 2 (level 0 would mean "select a block and leave it full"),
    appear at most once, fractions must be positive and sum to 1.
    """
    rungs = []
    seen = set()
    for rung in ladder:
        if len(rung) != 2:
            raise ValueError(
                f"each quality_ladder rung must be (level, fraction), got {rung!r}"
            )
        level, fraction = int(rung[0]), float(rung[1])
        if level not in (1, 2):
            raise ValueError(
                f"quality_ladder levels must be 1 or 2, got {rung[0]!r}"
            )
        if level in seen:
            raise ValueError(f"quality_ladder repeats level {level}")
        if not (0.0 < fraction <= 1.0):
            raise ValueError(
                f"quality_ladder fractions must be in (0, 1], got {rung[1]!r}"
            )
        seen.add(level)
        rungs.append((level, fraction))
    if not rungs:
        raise ValueError("quality_ladder must have at least one rung")
    total = sum(fraction for _, fraction in rungs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"quality_ladder fractions must sum to 1, got {total}"
        )
    return tuple(rungs)


def ladder_counts(
    nblocks: int, percent: float, ladder: QualityLadder = DEFAULT_QUALITY_LADDER
) -> List[Tuple[int, int]]:
    """``(level, count)`` per rung: how many of ``nblocks`` blocks, taken in
    ascending (score, id) order, each rung of the ladder reduces.

    The ``percent``% lowest-scored blocks are selected.  The count is rounded
    half-up (``floor(x + 0.5)``): under Python's banker's ``round()`` 5% of 10
    blocks reduced 0 blocks while 5% of 30 reduced 2, and the same percentage
    must round the same way whatever the count's parity.  Within that prefix
    the ladder's rungs are applied in order: the first rung's fraction of the
    selection (rounded half-up) gets that rung's level, and so on, the last
    rung absorbing the rounding remainder.  Every rank computes this from the
    globally sorted order, so the decision is identical everywhere without
    communication.
    """
    if not (0.0 <= percent <= 100.0):
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    ladder = validate_quality_ladder(ladder)
    count = left = min(int(math.floor(nblocks * percent / 100.0 + 0.5)), nblocks)
    counts: List[Tuple[int, int]] = []
    for level, fraction in ladder[:-1]:
        take = min(int(math.floor(count * fraction + 0.5)), left)
        counts.append((level, take))
        left -= take
    return counts + [(ladder[-1][0], left)]


def select_reduction_levels(
    sorted_array: np.ndarray,
    percent: float,
    ladder: QualityLadder = DEFAULT_QUALITY_LADDER,
) -> Dict[int, int]:
    """Map each selected block id to its target reduction-ladder level: the
    rungs of :func:`ladder_counts` take consecutive runs of the ids of
    ``sorted_array``, an ``(N, 2)`` wire array in ascending (score, id) order
    (the sorting step's output).
    """
    rungs = ladder_counts(len(sorted_array), percent, ladder)
    levels = [level for level, take in rungs for _ in range(take)]
    ids = sorted_array[: len(levels), 0].astype(np.int64)
    return dict(zip(ids.tolist(), levels))


class ReductionStep:
    """Reduces the selected blocks on every rank (per-block reference loop).

    ``platform`` supplies the modelled per-reduced-block cost
    (:meth:`~repro.perfmodel.platform.PlatformModel.reduction_seconds`), priced
    by each rank's payload points kept, in corner-block units of 8 — a level-1
    downsample by its real copy volume, all-corners as one gather per block.
    """

    name = "reduction"

    def __init__(
        self,
        platform: PlatformModel,
        quality_ladder: QualityLadder = DEFAULT_QUALITY_LADDER,
    ) -> None:
        self.platform = platform
        self.quality_ladder = validate_quality_ladder(quality_ladder)

    def execute(self, context: IterationContext) -> StepReport:
        """Reduce the selected blocks rank by rank, one
        :func:`~repro.grid.reduction.reduce_block` call each.

        The blocks with the selected ones replaced by their reduced copies go
        into ``context``, so the ladder decision is each block's ``level``;
        the report counts the reduced blocks and the payload points they
        kept.
        """
        levels = select_reduction_levels(
            context.require_sorted_array(), context.percent, self.quality_ladder
        )
        out: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        points_total = 0
        for blocks in context.columns.to_ranks():
            reduced_count = 0
            points_copied = 0
            with Timer() as timer:
                new_blocks = []
                for block in blocks:
                    target = levels.get(block.block_id)
                    if target is not None:
                        new_block = reduce_block(block, target)
                        new_blocks.append(new_block)
                        reduced_count += 1
                        points_copied += int(new_block.data.size)
                    else:
                        new_blocks.append(block)
            out.append(new_blocks)
            measured.append(timer.elapsed)
            modelled.append(
                self.platform.reduction_seconds(reduced_count, points_copied)
            )
            points_total += points_copied
        context.columns = BlockColumns(out)
        return StepReport(
            self.name,
            measured_per_rank=measured,
            modelled_per_rank=modelled,
            counters={
                "nreduced": float(len(levels)),
                "points_copied": float(points_total),
            },
        )


class VectorizedReductionStep(ReductionStep):
    """Reduces the selected blocks of all ranks in shape-grouped batches.

    The batch spans *across* ranks, on the columnar state: the ladder decision
    is the prefix of the sorted wire array :func:`ladder_counts` marks, as id
    and level arrays looked up per row, and
    :meth:`~repro.grid.batch.BlockColumns.reduce_to` gathers the retained
    values of every (payload group, deeper target level) at once (bitwise
    equal to :func:`~repro.grid.reduction.reduce_block` per block; rows already
    at or beyond their target are left as they are, the same no-op).  Only the
    deepened rows are copied: the rows a group keeps stay in the stack they
    arrived in, named by position (``(rows, stacked, take)``).

    Measured wall-clock of the single pass is attributed to ranks
    proportionally to their selected-block counts (the convention the
    vectorised scoring step set); modelled per-rank seconds are computed
    exactly as in the serial step.
    """

    def execute(self, context: IterationContext) -> StepReport:
        """Reduce the selected rows of the context's columns in one cross-rank
        pass; the ladder decision is the rows' ``levels`` afterwards."""
        columns = context.columns
        wire = context.require_sorted_array()
        rungs = ladder_counts(len(wire), context.percent, self.quality_ladder)
        with Timer() as timer:
            rung_levels, takes = np.array(rungs, dtype=np.int64).T
            ids = wire[: takes.sum(), 0].astype(np.int64)
            levels = np.repeat(rung_levels, takes)
            targets = columns.lookup(ids, levels, 0)
            columns.reduce_to(targets)
        selected = targets > 0
        rank_counts = columns.per_rank_sum(selected)
        rank_points = columns.per_rank_sum(np.where(selected, columns.npoints, 0))
        return StepReport(
            self.name,
            measured_per_rank=share_elapsed(timer.elapsed, rank_counts),
            modelled_per_rank=[
                self.platform.reduction_seconds(count, points)
                for count, points in zip(rank_counts, rank_points)
            ],
            counters={
                "nreduced": float(len(ids)),
                "points_copied": float(sum(rank_points)),
            },
        )

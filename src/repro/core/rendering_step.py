"""Step 5: rendering through the Catalyst-like visualization pipeline.

Each rank runs the isosurface script over the blocks it currently owns.  The
step's modelled time is the *maximum* of the per-rank modelled rendering
times (the rendering ends with a synchronous composition, so the slowest
process drives the total — the load-imbalance effect the redistribution step
attacks).

Like the scoring step, the rendering step is one reference class and one
batched class.  :class:`RenderingStep` (the ``serial`` oracle) sends every
rank's blocks through ``IsosurfaceScript.process`` one block at a time.
:class:`VectorizedRenderingStep` (every other backend name) counts each payload
group of the iteration's columnar state once in counting mode — one chunked
byte-code :func:`~repro.viz.marching_cubes.count_active_cells_batch` call per
group, no float temporaries, always inline: the kernel releases the GIL, and
chunked over the process pool it ran 11–16x slower, so rendering has no
fan-out.  Mesh mode extracts real per-block geometry, which cannot be stacked,
so it materialises the blocks and runs the reference per-block extraction.
Both classes produce identical counts, triangle estimates, and modelled
seconds — measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.step import IterationContext, StepReport, share_elapsed, step_info
from repro.grid.batch import BlockColumns
from repro.grid.block import Block
from repro.perfmodel.platform import PlatformModel
from repro.utils.timer import Timer
from repro.viz.catalyst import CatalystPipeline, IsosurfaceScript, RenderResult


class RenderingStep:
    """Runs the visualization scripts on every rank and prices the work."""

    name = "rendering"

    def __init__(
        self,
        platform: PlatformModel,
        isosurface_level: float = 45.0,
        render_mode: str = "count",
        render_image: bool = False,
    ) -> None:
        self.platform = platform
        self.script = IsosurfaceScript(
            level=isosurface_level,
            mode="mesh" if render_mode == "mesh" else "count",
            render_image=render_image and render_mode == "mesh",
        )
        self.pipeline = CatalystPipeline([self.script])

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> Tuple[List[RenderResult], Dict[str, object]]:
        """Render every rank's blocks.

        Returns
        -------
        (per_rank_results, info)
            One :class:`RenderResult` per rank and a timing summary with the
            per-rank and maximum modelled rendering seconds, plus per-rank
            triangle counts (used for load-imbalance analyses).
        """
        results = [
            self.pipeline.coprocess(blocks, iteration)[0] for blocks in per_rank_blocks
        ]
        return results, self._info(
            results,
            [len(blocks) for blocks in per_rank_blocks],
            [result.ntriangles for result in results],
        )

    def _info(
        self,
        results: Sequence[RenderResult],
        rank_nblocks: Sequence[int],
        triangles: List[int],
    ) -> Dict[str, object]:
        """Timing summary of one iteration's per-rank results; ``triangles``
        are the ranks' totals (``result.ntriangles`` re-sums a dict per read)."""
        modelled = [
            self.platform.render.rank_seconds(
                ntriangles=ntriangles, npoints=result.npoints, nblocks=nblocks
            )
            for nblocks, ntriangles, result in zip(rank_nblocks, triangles, results)
        ]
        return step_info(
            [result.measured_seconds for result in results],
            modelled,
            triangles_per_rank=triangles,
            total_triangles=int(sum(triangles)),
        )

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's blocks (PipelineStep contract)."""
        results, info = self.run(context.per_rank_blocks, context.iteration)
        return self._record(context, results, info)

    def _record(
        self,
        context: IterationContext,
        results: List[RenderResult],
        info: Dict[str, object],
    ) -> StepReport:
        """Write the results into ``context``; the step's report."""
        context.render_results = results
        return StepReport.per_rank(
            self.name,
            info,
            {"total_triangles": info["total_triangles"]},
            {"triangles": info["triangles_per_rank"]},
        )


class VectorizedRenderingStep(RenderingStep):
    """Rendering through the script's shape-grouped batch path.

    Counting mode — the cheap load proxy the large virtual-rank experiments
    run — batches *across* ranks, on the columnar state: every payload group
    is counted once (:meth:`~repro.viz.catalyst.IsosurfaceScript.count_groups`),
    the triangle estimates are one ``np.rint``, the ranks' totals one
    ``per_rank_sum``, and each rank's
    :class:`~repro.viz.catalyst.RenderResult` is built from slices of those
    arrays in the rank's block order.  Counts, triangle estimates, and
    modelled seconds are bitwise identical to :class:`RenderingStep`'s; the
    single pass's elapsed time is attributed to ranks proportionally to their
    payload point counts (the convention the scoring step set).  Mesh mode
    needs the blocks themselves and is the reference loop.
    """

    def _count_columns(
        self, columns: BlockColumns, iteration: int
    ) -> Tuple[List[RenderResult], Dict[str, object]]:
        """Counting-mode results of every rank in one cross-rank pass."""
        script = self.script
        with Timer() as timer:
            cells = script.count_groups(columns.groups)
            order = columns.order
            triangles = script.triangles_from_cells(cells)
            results = [
                RenderResult(
                    script_name=script.name,
                    iteration=iteration,
                    npoints=npoints,
                    per_block_triangles=dict(zip(ids, rank_triangles)),
                    per_block_active_cells=dict(zip(ids, rank_cells)),
                )
                for ids, rank_triangles, rank_cells, npoints in zip(
                    columns.split(columns.ids[order].tolist()),
                    columns.split(triangles[order].tolist()),
                    columns.split(cells[order].tolist()),
                    columns.per_rank_sum(columns.npoints),
                )
            ]
        shares = share_elapsed(timer.elapsed, [result.npoints for result in results])
        for result, seconds in zip(results, shares):
            result.measured_seconds = seconds
        return results, self._info(
            results, columns.rank_sizes(), columns.per_rank_sum(triangles)
        )

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> Tuple[List[RenderResult], Dict[str, object]]:
        """Render every rank's blocks (list-facing form of :meth:`execute`)."""
        if self.script.mode != "count":
            return super().run(per_rank_blocks, iteration)
        return self._count_columns(BlockColumns(per_rank_blocks), iteration)

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's columns (PipelineStep contract)."""
        if self.script.mode != "count":
            return super().execute(context)
        results, info = self._count_columns(context.columns, context.iteration)
        return self._record(context, results, info)

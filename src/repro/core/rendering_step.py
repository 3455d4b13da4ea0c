"""Step 5: rendering through the in situ isosurface script.

Each rank runs the isosurface script
(:class:`~repro.viz.catalyst.IsosurfaceScript`) over the blocks it currently
owns.  The step's modelled time is the *maximum* of the per-rank modelled
rendering times (the rendering ends with a synchronous composition, so the
slowest process drives the total — the load-imbalance effect the
redistribution step attacks).

Like the scoring step, the rendering step is one reference class and one
batched class, each with ``execute(context)`` as its one method.
:class:`RenderingStep` (the ``serial`` oracle) sends every rank's blocks in
``context.per_rank_blocks`` through ``IsosurfaceScript.process`` one block at
a time.  :class:`VectorizedRenderingStep` (every other backend name) counts
each payload group of ``context.columns`` once in counting mode — one chunked
byte-code :func:`~repro.viz.marching_cubes.count_active_cells_batch` call per
group, the kept rows of a reduced group read where they lie and only the
blocks that reach the isovalue classified, no float temporaries, always
inline: the kernel releases the GIL, and
chunked over the process pool it ran 11–16x slower, so rendering has no
fan-out.  Mesh mode extracts real per-block geometry, which cannot be stacked,
so it materialises the blocks and runs the reference per-block extraction.
Both classes produce identical counts, triangle estimates, and modelled
seconds — measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

from repro.core.step import IterationContext, StepReport, share_elapsed
from repro.perfmodel.platform import PlatformModel
from repro.utils.timer import Timer
from repro.viz.catalyst import IsosurfaceScript, RenderResult


class RenderingStep:
    """Runs the isosurface script on every rank and prices the work."""

    name = "rendering"

    def __init__(
        self,
        platform: PlatformModel,
        isosurface_level: float = 45.0,
        render_mode: str = "count",
    ) -> None:
        self.platform = platform
        self.script = IsosurfaceScript(
            level=isosurface_level, mode="mesh" if render_mode == "mesh" else "count"
        )

    def execute(self, context: IterationContext) -> StepReport:
        """Render every rank's blocks through the script, one
        :meth:`~repro.viz.catalyst.IsosurfaceScript.process` call per rank.

        One :class:`RenderResult` per rank goes into ``context``; the report
        carries the per-rank modelled rendering seconds and triangle counts
        (used for load-imbalance analyses) and their total.
        """
        per_rank_blocks = context.per_rank_blocks
        results = [
            self.script.process(blocks, context.iteration) for blocks in per_rank_blocks
        ]
        context.render_results = results
        triangles = [result.ntriangles for result in results]
        return StepReport(
            self.name,
            measured_per_rank=[result.measured_seconds for result in results],
            modelled_per_rank=[
                self.platform.render.rank_seconds(
                    ntriangles=ntriangles, npoints=result.npoints, nblocks=len(blocks)
                )
                for blocks, ntriangles, result in zip(
                    per_rank_blocks, triangles, results
                )
            ],
            counters={"total_triangles": float(sum(triangles))},
            per_rank_counters={"triangles": [float(t) for t in triangles]},
        )


class VectorizedRenderingStep(RenderingStep):
    """Rendering through the script's shape-grouped batch path.

    Counting mode — the cheap load proxy the large virtual-rank experiments
    run — batches *across* ranks, on the columnar state: every payload group
    is counted once (:meth:`~repro.viz.catalyst.IsosurfaceScript.count_groups`),
    the triangle estimates are one ``np.rint``, the ranks' totals one
    ``per_rank_sum``, and each rank's
    :class:`~repro.viz.catalyst.RenderResult` holds slices of those arrays in
    the rank's block order, no per-block dict.  Counts, triangle estimates and
    modelled seconds are bitwise identical to :class:`RenderingStep`'s; the
    single pass's elapsed time is attributed to ranks proportionally to their
    payload point counts (the convention the scoring step set).  Mesh mode
    needs the blocks themselves and is the reference loop.
    """

    def execute(self, context: IterationContext) -> StepReport:
        """Count-mode results of every rank in one cross-rank pass over the
        context's columns (mesh mode: the reference loop)."""
        if self.script.mode != "count":
            return super().execute(context)
        script, columns = self.script, context.columns
        with Timer() as timer:
            cells = script.count_groups(columns.groups)
            order = columns.order
            triangles = script.triangles_from_cells(cells)
            results = [
                RenderResult(
                    iteration=context.iteration,
                    npoints=npoints,
                    block_ids=ids,
                    block_triangles=rank_triangles,
                    block_cells=rank_cells,
                )
                for ids, rank_triangles, rank_cells, npoints in zip(
                    columns.split(columns.ids[order]),
                    columns.split(triangles[order]),
                    columns.split(cells[order]),
                    columns.per_rank_sum(columns.npoints),
                )
            ]
        shares = share_elapsed(timer.elapsed, [result.npoints for result in results])
        for result, seconds in zip(results, shares):
            result.measured_seconds = seconds
        context.render_results = results
        rank_triangles = columns.per_rank_sum(triangles)
        return StepReport(
            self.name,
            measured_per_rank=shares,
            modelled_per_rank=[
                self.platform.render.rank_seconds(
                    ntriangles=ntriangles, npoints=result.npoints, nblocks=nblocks
                )
                for nblocks, ntriangles, result in zip(
                    columns.rank_sizes(), rank_triangles, results
                )
            ],
            counters={"total_triangles": float(sum(rank_triangles))},
            per_rank_counters={"triangles": [float(t) for t in rank_triangles]},
        )

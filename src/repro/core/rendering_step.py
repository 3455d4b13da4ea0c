"""Step 5: rendering through the Catalyst-like visualization pipeline.

Each rank runs the isosurface script over the blocks it currently owns.  The
step's modelled time is the *maximum* of the per-rank modelled rendering
times (the rendering ends with a synchronous composition, so the slowest
process drives the total — the load-imbalance effect the redistribution step
attacks).

Like the scoring step, the rendering step is one reference class and one
batched class, selected by ``PipelineConfig.engine``:

* :class:`RenderingStep` (``serial``, the oracle) — every rank's blocks go
  through ``IsosurfaceScript.process`` one block at a time;
* :class:`VectorizedRenderingStep` (``vectorized``, the default) — counting
  mode counts every block of the iteration in one cross-rank
  :meth:`~repro.viz.catalyst.IsosurfaceScript.count_blocks_batched` pass (one
  ``count_active_cells_batch`` call per stacked shape group; all reduced
  2×2×2 blocks form one group).  Built with ``processes=True`` (the
  ``process`` backend) the same pass is chunked over the shared process pool
  through shared memory.  Mesh mode extracts real per-block geometry, which
  cannot be stacked — and pickling meshes back from a worker costs more than
  the extraction — so it always runs the reference per-block extraction.

Both produce identical counts, triangle estimates, and modelled seconds —
measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.step import (
    IterationContext,
    StepReport,
    flatten_ranks,
    share_elapsed,
    step_info,
)
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

    # -- rendering backend ---------------------------------------------------

    def _render_all(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> List[RenderResult]:
        """One :class:`RenderResult` per rank (the backend hook)."""
        return [
            self.pipeline.coprocess(blocks, iteration)[0]
            for blocks in per_rank_blocks
        ]

    # -- step execution ------------------------------------------------------

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
        results = self._render_all(per_rank_blocks, iteration)
        modelled: List[float] = []
        measured: List[float] = []
        triangles: List[int] = []
        for blocks, result in zip(per_rank_blocks, results):
            measured.append(result.measured_seconds)
            triangles.append(result.ntriangles)
            modelled.append(
                self.platform.render.rank_seconds(
                    ntriangles=result.ntriangles,
                    npoints=result.npoints,
                    nblocks=len(blocks),
                )
            )
        info = step_info(
            measured,
            modelled,
            triangles_per_rank=triangles,
            total_triangles=int(sum(triangles)),
        )
        return results, info

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's blocks (PipelineStep contract)."""
        results, info = self.run(context.per_rank_blocks, context.iteration)
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
    run — batches *across* ranks, exactly like the vectorised scoring step:
    every block of the iteration is counted in one
    :meth:`~repro.viz.catalyst.IsosurfaceScript.count_blocks_batched` pass, so
    the whole iteration costs a handful of NumPy calls instead of one Python
    iteration per block; ``processes=True`` chunks that pass over the shared
    process pool.  Counts, triangle estimates, and modelled seconds are
    bitwise identical to :class:`RenderingStep`'s; only measured wall-clock
    differs, and the single pass's elapsed time is attributed to ranks
    proportionally to their payload point counts (the convention the scoring
    step set).  Mesh mode is the reference loop.
    """

    def __init__(
        self,
        platform: PlatformModel,
        isosurface_level: float = 45.0,
        render_mode: str = "count",
        render_image: bool = False,
        processes: bool = False,
    ) -> None:
        super().__init__(
            platform,
            isosurface_level=isosurface_level,
            render_mode=render_mode,
            render_image=render_image,
        )
        self.processes = bool(processes)

    def _render_all(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> List[RenderResult]:
        if self.script.mode != "count":
            return super()._render_all(per_rank_blocks, iteration)
        all_blocks, rank_slices = flatten_ranks(per_rank_blocks)
        results: List[RenderResult] = []
        with Timer() as timer:
            counts = self.script.count_blocks_batched(all_blocks, self.processes)
            for (lo, hi), blocks in zip(rank_slices, per_rank_blocks):
                result = RenderResult(
                    script_name=self.script.name, iteration=iteration
                )
                for block, cells in zip(blocks, counts[lo:hi]):
                    result.npoints += int(block.data.size)
                    self.script.record_count(result, block.block_id, cells)
                results.append(result)
        shares = share_elapsed(timer.elapsed, [result.npoints for result in results])
        for result, seconds in zip(results, shares):
            result.measured_seconds = seconds
        return results

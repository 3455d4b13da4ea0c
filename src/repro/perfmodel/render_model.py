"""Rendering cost model.

The paper's isosurface scenario computes a marching-cubes mesh and renders it;
"the rendering time in one process therefore depends on the number of mesh
elements handled by this process" (Section V-A).  The model follows that
observation directly::

    seconds(rank) = per_rank_overhead
                  + per_block * nblocks
                  + per_point * npoints
                  + per_triangle * ntriangles

with the full pipeline's rendering step costing the *maximum* over ranks
(rendering is a synchronous collective operation ending in image composition).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class RenderCostModel:
    """Analytic per-rank rendering cost.

    Attributes
    ----------
    per_triangle:
        Seconds per isosurface triangle (mesh generation + rasterisation +
        compositing share).  This is the dominant, data-dependent term.
    per_point:
        Seconds per input point fed to the visualization pipeline (marching
        cubes has to scan every cell even where no triangle is produced).
    per_block:
        Fixed cost per block handed to the pipeline (VTK dataset setup).
    per_rank_overhead:
        Fixed cost per rank per iteration (pipeline setup, compositing,
        image write) — this is what keeps the "everything reduced" case at
        about one second in the paper.
    """

    per_triangle: float = 2.0e-5
    per_point: float = 2.0e-8
    per_block: float = 1.0e-4
    per_rank_overhead: float = 0.9

    def __post_init__(self) -> None:
        ensure_positive(self.per_triangle, "per_triangle")
        if self.per_point < 0 or self.per_block < 0 or self.per_rank_overhead < 0:
            raise ValueError("cost coefficients must be >= 0")

    # -- per-rank costs ---------------------------------------------------------

    def rank_seconds(self, ntriangles: int, npoints: int, nblocks: int) -> float:
        """Modelled rendering seconds for one rank's workload."""
        if min(ntriangles, npoints, nblocks) < 0:
            raise ValueError("work counts must be >= 0")
        return (
            self.per_rank_overhead
            + self.per_block * nblocks
            + self.per_point * npoints
            + self.per_triangle * ntriangles
        )

    # -- calibration helpers -----------------------------------------------------

    def with_per_triangle(self, per_triangle: float) -> "RenderCostModel":
        """Return a copy with a different per-triangle coefficient."""
        return replace(self, per_triangle=float(per_triangle))

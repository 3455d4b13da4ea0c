"""The in situ isosurface script the rendering step calls.

The paper renders one expensive scenario through ParaView Catalyst: the
marching-cubes isosurface of the reflectivity at 45 dBZ.
:class:`IsosurfaceScript` is that script.  One virtual rank hands it its list
of blocks per iteration (:meth:`IsosurfaceScript.process`); in ``"mesh"`` mode
it extracts real geometry, in ``"count"`` mode it only counts the
isosurface-crossing cells and estimates the triangles from them.

The script returns a :class:`RenderResult` carrying the quantities the rest
of the system needs: per-block triangle counts (rendering load) and active
cell counts, as arrays in block order, and in mesh mode the merged mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.grid.batch import ShapeGroup, stacked_shape_groups
from repro.grid.block import Block, axis_sample_indices
from repro.utils.timer import Timer
from repro.viz.marching_cubes import (
    count_active_cells,
    count_active_cells_batch,
    extract_isosurface,
)
from repro.viz.mesh import TriangleMesh

#: Average number of triangles emitted per isosurface-crossing cell by the
#: tetrahedral triangulation (used when running in counting mode).  Six
#: tetrahedra per cell emit one or two triangles each when crossed, which
#: averages out to roughly five triangles per active cell in practice.
TRIANGLES_PER_ACTIVE_CELL = 5.0

#: The isosurface script's modes, by the name ``PipelineConfig.render_mode``,
#: ``RunRequest`` and ``--render-mode`` accept.
RENDER_MODES = ("count", "mesh")


@dataclass
class RenderResult:
    """Output of the isosurface script for one rank and one iteration (per-block
    loads as parallel int64 arrays in block order, the ``per_block_*`` dicts
    views)."""

    iteration: int
    #: Number of payload points processed (reduced blocks contribute 8).
    npoints: int = 0
    #: Ids of the blocks the isosurface script processed.
    block_ids: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Per-block triangle counts.
    block_triangles: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Per-block isosurface-crossing cell counts.
    block_cells: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Extracted geometry (mesh mode only).
    mesh: Optional[TriangleMesh] = None
    #: Wall-clock seconds spent in the script (measured, not modelled).
    measured_seconds: float = 0.0

    @property
    def per_block_triangles(self) -> Dict[int, int]:
        """Triangle count per block id, in block order."""
        return dict(zip(self.block_ids.tolist(), self.block_triangles.tolist()))

    @property
    def per_block_active_cells(self) -> Dict[int, int]:
        """Isosurface-crossing cell count per block id, in block order."""
        return dict(zip(self.block_ids.tolist(), self.block_cells.tolist()))

    @property
    def ntriangles(self) -> int:
        """Total triangles across the rank's blocks."""
        return int(self.block_triangles.sum())


class IsosurfaceScript:
    """Isosurface extraction of a block list.

    Parameters
    ----------
    level:
        Isovalue; the paper uses 45 dBZ.
    mode:
        ``"mesh"`` extracts real geometry with marching cubes;
        ``"count"`` only counts isosurface-crossing cells (cheap load proxy
        used by the large virtual-rank experiments) and estimates the
        triangle count from it.
    """

    def __init__(self, level: float = 45.0, mode: str = "mesh") -> None:
        if mode not in RENDER_MODES:
            raise ValueError(f"mode must be one of {RENDER_MODES}, got {mode!r}")
        self.level = float(level)
        self.mode = mode

    # -- per-block helpers (shared by every rendering backend) ---------------

    def block_coords(self, block: Block, data_shape: Sequence[int]) -> List[np.ndarray]:
        """Per-axis global coordinates of one block's payload points.

        A reduced block is fed to the pipeline as its retained sample points
        spanning the original extent (this is what makes the reduction save
        rendering time): the corner rung (level 2) contributes its 8 corners,
        the strided rung (level 1) every retained sample
        (:func:`~repro.grid.block.axis_sample_indices` per axis); a full
        block is fed as-is.  The high sample of every reduced axis sits on
        the last point *inside* the half-open extent, ``stop - 1`` (>=
        ``start`` for every valid extent): a length-1 axis yields a flat
        coordinate pair whose degenerate geometry the extractor drops,
        instead of shifting the isosurface outside the block's extent.
        """
        start, stop = block.extent.start, block.extent.stop
        if block.level == 2:
            return [
                np.array([start[axis], stop[axis] - 1], dtype=np.float64)
                for axis in range(3)
            ]
        if block.level == 1:
            return [
                start[axis]
                + np.asarray(
                    axis_sample_indices(block.extent.shape[axis]), dtype=np.float64
                )
                for axis in range(3)
            ]
        return [
            np.arange(start[axis], start[axis] + data_shape[axis], dtype=np.float64)
            for axis in range(3)
        ]

    def extract_block(self, block: Block) -> tuple:
        """Extract one block's isosurface: ``(mesh, active_cells)``.

        Geometry and cell count come from a single detection pass over the
        payload (:func:`~repro.viz.marching_cubes.extract_isosurface`).
        """
        data = np.asarray(block.data, dtype=np.float64)
        mesh, cells = extract_isosurface(
            data, self.level, coords=self.block_coords(block, data.shape)
        )
        return mesh, int(cells)

    def count_blocks_batched(self, blocks: Sequence[Block]) -> np.ndarray:
        """Active-cell counts of ``blocks``, in block order, via stacked batches
        (the list-facing form of :meth:`count_groups`)."""
        return self.count_groups(stacked_shape_groups(blocks))

    def count_groups(self, groups: Sequence[ShapeGroup]) -> np.ndarray:
        """Active-cell counts of the blocks stacked in ``groups``, in block order.

        One :func:`~repro.viz.marching_cubes.count_active_cells_batch` call per
        shape/dtype group (all reduced 2×2×2 blocks form one), handed the
        group's ``take`` when a reduction left its kept rows in their stack,
        so they are read in place.  Always inline: the kernel releases the
        GIL, and the process pool only slowed it down.  Counts are bitwise
        identical to per-block
        :func:`~repro.viz.marching_cubes.count_active_cells` calls.
        """
        out = np.empty(sum(len(rows) for rows, *_ in groups), dtype=np.int64)
        for rows, stacked, *take in groups:
            out[rows] = count_active_cells_batch(stacked, self.level, *take)
        return out

    @staticmethod
    def triangles_from_cells(cells: np.ndarray) -> np.ndarray:
        """Counting-mode triangle estimates of an int64 active-cell array
        (``int(round(...))`` per element: both round half to even)."""
        return np.rint(cells * TRIANGLES_PER_ACTIVE_CELL).astype(np.int64)

    @staticmethod
    def triangles_from_count(cells: int) -> int:
        """Counting-mode triangle estimate of one block's active-cell count."""
        return int(round(cells * TRIANGLES_PER_ACTIVE_CELL))

    # -- entry points --------------------------------------------------------

    def process(self, blocks: Sequence[Block], iteration: int) -> RenderResult:
        """Reference per-block loop (the serial rendering backend)."""
        result = RenderResult(iteration=iteration)
        meshes: List[TriangleMesh] = []
        ids, triangles, counts = [], [], []
        with Timer() as timer:
            for block in blocks:
                result.npoints += int(block.data.size)
                ids.append(block.block_id)
                if self.mode == "count":
                    cells = count_active_cells(
                        np.asarray(block.data, dtype=np.float64), self.level
                    )
                    triangles.append(self.triangles_from_count(cells))
                else:
                    mesh, cells = self.extract_block(block)
                    triangles.append(mesh.ntriangles)
                    meshes.append(mesh)
                counts.append(int(cells))
            result.block_ids, result.block_triangles, result.block_cells = (
                np.array(values, dtype=np.int64) for values in (ids, triangles, counts)
            )
            if self.mode == "mesh":
                result.mesh = TriangleMesh.merge(meshes)
        result.measured_seconds = timer.elapsed
        return result


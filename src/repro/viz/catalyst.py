"""A Catalyst-like in situ co-processing API.

ParaView Catalyst lets a simulation hand its data to "pipeline scripts" that
produce visualization output while the simulation runs.  This module provides
the same shape of API for the reproduction:

* :class:`IsosurfaceScript` — the expensive scenario of the paper: marching-
  cubes isosurface extraction of the reflectivity (45 dBZ by default) plus
  optional image rendering;
* :class:`ColormapScript` — the cheap 2-D colormap scenario;
* :class:`CatalystPipeline` — holds the scripts and exposes ``coprocess``,
  which one virtual rank calls per iteration with its list of blocks.

Every script returns a :class:`RenderResult` carrying the quantities the rest
of the system needs: per-block triangle counts (rendering load) and active
cell counts, as arrays in block order, and optionally the extracted mesh /
rendered image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.batch import ShapeGroup, stacked_shape_groups
from repro.grid.block import Block, axis_sample_indices
from repro.grid.fanout import map_shape_groups
from repro.grid.reduction import reconstruct_block
from repro.utils.timer import Timer
from repro.viz.camera import Camera
from repro.viz.colormap import apply_colormap
from repro.viz.framebuffer import Framebuffer
from repro.viz.marching_cubes import (
    count_active_cells,
    count_active_cells_batch,
    extract_isosurface,
)
from repro.viz.mesh import TriangleMesh
from repro.viz.rasterizer import rasterize_mesh

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
    """Output of one script for one rank and one iteration (per-block loads
    as parallel int64 arrays in block order, the ``per_block_*`` dicts views)."""

    script_name: str
    iteration: int
    #: Number of payload points processed (reduced blocks contribute 8).
    npoints: int = 0
    #: Ids of the blocks the isosurface script processed.
    block_ids: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Per-block triangle counts (isosurface scripts only).
    block_triangles: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Per-block isosurface-crossing cell counts.
    block_cells: np.ndarray = field(default_factory=partial(np.empty, 0, np.int64))
    #: Extracted geometry, if the script was asked to keep it.
    mesh: Optional[TriangleMesh] = None
    #: Rendered image, if the script was asked to produce one.
    image: Optional[np.ndarray] = None
    #: Boolean mask of the image pixels this rank actually covers (partial
    #: images only, e.g. :class:`ColormapScript`); the compositing driver
    #: must only take covered pixels from each rank.
    coverage: Optional[np.ndarray] = None
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

    @property
    def active_cells(self) -> int:
        """Total isosurface-crossing cells across the rank's blocks."""
        return int(self.block_cells.sum())


class VisualizationScript:
    """Base class for Catalyst-style pipeline scripts."""

    name = "script"

    def process(self, blocks: Sequence[Block], iteration: int) -> RenderResult:
        """Process one rank's blocks for one iteration."""
        raise NotImplementedError


class IsosurfaceScript(VisualizationScript):
    """Isosurface extraction (and optional rendering) of a block list.

    Parameters
    ----------
    level:
        Isovalue; the paper uses 45 dBZ.
    mode:
        ``"mesh"`` extracts real geometry with marching cubes;
        ``"count"`` only counts isosurface-crossing cells (cheap load proxy
        used by the large virtual-rank experiments) and estimates the
        triangle count from it.
    render_image:
        When True (requires ``mode="mesh"``), rasterize the extracted mesh.
    image_size:
        (width, height) of the rendered image.
    """

    name = "isosurface"

    def __init__(
        self,
        level: float = 45.0,
        mode: str = "mesh",
        render_image: bool = False,
        image_size: tuple = (400, 300),
    ) -> None:
        if mode not in RENDER_MODES:
            raise ValueError(f"mode must be one of {RENDER_MODES}, got {mode!r}")
        if render_image and mode != "mesh":
            raise ValueError("render_image requires mode='mesh'")
        self.level = float(level)
        self.mode = mode
        self.render_image = bool(render_image)
        self.image_size = (int(image_size[0]), int(image_size[1]))

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

        One :func:`~repro.grid.fanout.map_shape_groups` pass: each stacked
        shape/dtype group (all reduced 2×2×2 blocks form one) is counted with
        a single vectorised
        :func:`~repro.viz.marching_cubes.count_active_cells_batch` call, inline
        (the kernel releases the GIL; the process pool only slowed it down).
        Counts are bitwise identical to per-block
        :func:`~repro.viz.marching_cubes.count_active_cells` calls.
        """
        kernel = partial(count_active_cells_batch, level=self.level)
        return map_shape_groups(groups, kernel, np.int64)

    @staticmethod
    def triangles_from_cells(cells: np.ndarray) -> np.ndarray:
        """Counting-mode triangle estimates of an int64 active-cell array
        (``int(round(...))`` per element: both round half to even)."""
        return np.rint(cells * TRIANGLES_PER_ACTIVE_CELL).astype(np.int64)

    @staticmethod
    def triangles_from_count(cells: int) -> int:
        """Counting-mode triangle estimate of one block's active-cell count."""
        return int(round(cells * TRIANGLES_PER_ACTIVE_CELL))

    def finalize_mesh(self, result: RenderResult, meshes: Sequence[TriangleMesh]) -> None:
        """Merge per-block meshes (in block order) and optionally rasterize."""
        merged = TriangleMesh.merge(meshes)
        result.mesh = merged
        if self.render_image and not merged.is_empty:
            lo, hi = merged.bounds()
            camera = Camera.fit_bounds(lo, hi)
            fb = Framebuffer(self.image_size[0], self.image_size[1])
            rasterize_mesh(merged, camera, fb)
            result.image = fb.to_uint8()

    # -- entry points --------------------------------------------------------

    def process(self, blocks: Sequence[Block], iteration: int) -> RenderResult:
        """Reference per-block loop (the serial rendering backend)."""
        result = RenderResult(script_name=self.name, iteration=iteration)
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
                self.finalize_mesh(result, meshes)
        result.measured_seconds = timer.elapsed
        return result


class ColormapScript(VisualizationScript):
    """2-D colormap of one horizontal level of the rank's blocks.

    The script produces a partial image covering the rank's blocks; the
    driver composites the per-rank images into the full-domain colormap
    (``RenderResult.coverage`` marks the pixels each rank owns).

    Colormap bounds are part of the *global* contract: every rank must
    normalise with the same ``vmin``/``vmax``, otherwise the composited image
    is inconsistent across rank boundaries (the same physical value maps to
    different colors on different ranks).  Pass both bounds at construction,
    or call :meth:`fit_bounds` once with *all* ranks' blocks before
    processing; :meth:`process` refuses to run with unset bounds.
    """

    name = "colormap"

    def __init__(
        self,
        level_index: int,
        global_shape: tuple,
        cmap: str = "gray",
        vmin: Optional[float] = None,
        vmax: Optional[float] = None,
    ) -> None:
        if len(global_shape) != 3:
            raise ValueError(f"global_shape must be 3 values, got {global_shape}")
        self.level_index = int(level_index)
        self.global_shape = tuple(int(v) for v in global_shape)
        if not (0 <= self.level_index < self.global_shape[2]):
            raise ValueError(
                f"level_index {level_index} out of range for shape {global_shape}"
            )
        self.cmap = cmap
        self.vmin = vmin
        self.vmax = vmax

    def _block_slab(self, block: Block) -> Optional[np.ndarray]:
        """The block's 2-D slab at ``level_index``, or None if not covered."""
        ext = block.extent
        if not (ext.start[2] <= self.level_index < ext.stop[2]):
            return None
        data = reconstruct_block(block)
        return data[:, :, self.level_index - ext.start[2]]

    def fit_bounds(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[float, float]:
        """Compute global colormap bounds from *all* ranks' blocks.

        Scans every block's rendered slab at ``level_index`` and fills any
        unset ``vmin``/``vmax`` with the global minimum/maximum (explicitly
        passed bounds are kept).  This is the collective every compositing
        driver must run once per colormap before the per-rank
        :meth:`process` calls — the per-rank alternative (each rank
        normalising with its own min/max) breaks the composited image at
        rank boundaries.
        """
        lo, hi = np.inf, -np.inf
        for blocks in per_rank_blocks:
            for block in blocks:
                slab = self._block_slab(block)
                if slab is None:
                    continue
                lo = min(lo, float(slab.min()))
                hi = max(hi, float(slab.max()))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(
                f"no block covers level_index {self.level_index}; cannot fit "
                "colormap bounds"
            )
        if self.vmin is None:
            self.vmin = lo
        if self.vmax is None:
            self.vmax = hi
        return float(self.vmin), float(self.vmax)

    def process(self, blocks: Sequence[Block], iteration: int) -> RenderResult:
        if self.vmin is None or self.vmax is None:
            raise RuntimeError(
                "ColormapScript requires global colormap bounds: pass vmin/vmax "
                "at construction or call fit_bounds(per_rank_blocks) over all "
                "ranks' blocks first (per-rank normalisation would make the "
                "composited colormap inconsistent across rank boundaries)"
            )
        result = RenderResult(script_name=self.name, iteration=iteration)
        nx, ny, _ = self.global_shape
        image = np.full((nx, ny), np.nan, dtype=np.float64)
        with Timer() as timer:
            for block in blocks:
                result.npoints += int(block.data.size)
                slab = self._block_slab(block)
                if slab is None:
                    continue
                ext = block.extent
                image[ext.slices[0], ext.slices[1]] = slab
            covered = ~np.isnan(image)
            result.coverage = covered
            if np.any(covered):
                # Uncovered pixels get the colormap floor; the compositing
                # driver replaces them with other ranks' covered pixels.
                filled = np.where(covered, image, float(self.vmin))
                result.image = apply_colormap(
                    filled, cmap=self.cmap, vmin=self.vmin, vmax=self.vmax
                )
        result.measured_seconds = timer.elapsed
        return result


class CatalystPipeline:
    """Holds the visualization scripts a rank runs at every in situ phase."""

    def __init__(self, scripts: Optional[Sequence[VisualizationScript]] = None) -> None:
        self.scripts: List[VisualizationScript] = list(scripts) if scripts else []

    def add_script(self, script: VisualizationScript) -> None:
        """Register an additional script."""
        if not isinstance(script, VisualizationScript):
            raise TypeError(f"expected a VisualizationScript, got {type(script)!r}")
        self.scripts.append(script)

    def coprocess(self, blocks: Sequence[Block], iteration: int) -> List[RenderResult]:
        """Run every registered script over ``blocks`` (one rank's data)."""
        if not self.scripts:
            raise RuntimeError("no visualization scripts registered")
        return [script.process(blocks, iteration) for script in self.scripts]

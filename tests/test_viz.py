"""Tests for the visualization substrate (marching cubes, rasterizer, isosurface script)."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.block import Block, BlockExtent
from repro.grid.reduction import reduce_block
import repro.viz.marching_cubes as marching_cubes_module
from repro.viz.camera import Camera
from repro.viz.catalyst import IsosurfaceScript
from repro.viz.colormap import apply_colormap, grayscale, viridis_like
from repro.viz.framebuffer import Framebuffer
from repro.viz.marching_cubes import (
    count_active_cells,
    count_active_cells_batch,
    extract_isosurface,
    marching_cubes,
)
from repro.viz.mesh import TriangleMesh
from repro.viz.rasterizer import rasterize_mesh
from repro.viz.slice_render import extract_slice, render_colormap_slice
from repro.viz.volume import volume_max_projection


def sphere_field(n=24, radius=0.6):
    x = np.linspace(-1, 1, n)
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    return np.sqrt(xx**2 + yy**2 + zz**2) - radius, x


def oracle_count_active_cells_batch(batch: np.ndarray, level: float) -> np.ndarray:
    """``count_active_cells_batch`` as it was before the byte-code kernel: three
    separable float min/max passes over whole-batch temporaries.  Kept verbatim
    as the oracle (``benchmarks/test_engine_speedup.py`` loads it from here)."""
    arr = np.asarray(batch)
    if arr.ndim != 4:
        raise ValueError(f"batch must be 4-D, got shape {arr.shape}")
    nblocks = arr.shape[0]
    if nblocks == 0 or min(arr.shape[1:]) < 2:
        return np.zeros(nblocks, dtype=np.int64)
    level = float(level)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    # Separable per-axis reduction: 3 ufunc calls (on shrinking
    # intermediates) instead of 7 over the 8 corner views.  min/max select
    # values exactly, so the cell minima/maxima — and therefore the counts —
    # are bitwise identical to the 8-corner float64 reduction the scalar
    # :func:`_active_cell_mask` performs.  float32 payloads stay in float32
    # (the float32→float64 cast is value-preserving, so the selected
    # extrema are the same numbers); the level comparisons then happen in
    # float32 only when ``level`` is exactly representable there, otherwise
    # the (much smaller) cell extrema are promoted to float64 first.
    cell_min = np.minimum(arr[:, :-1], arr[:, 1:])
    cell_max = np.maximum(arr[:, :-1], arr[:, 1:])
    cell_min = np.minimum(cell_min[:, :, :-1], cell_min[:, :, 1:])
    cell_max = np.maximum(cell_max[:, :, :-1], cell_max[:, :, 1:])
    cell_min = np.minimum(cell_min[:, :, :, :-1], cell_min[:, :, :, 1:])
    cell_max = np.maximum(cell_max[:, :, :, :-1], cell_max[:, :, :, 1:])
    if cell_min.dtype == np.float32 and float(np.float32(level)) != level:
        cell_min = cell_min.astype(np.float64)
        cell_max = cell_max.astype(np.float64)
    active = (cell_min < cell_min.dtype.type(level)) & (
        cell_max >= cell_max.dtype.type(level)
    )
    return np.count_nonzero(active, axis=(1, 2, 3)).astype(np.int64)


def _salted_batch(seed, nblocks, shape, dtype, level):
    """``nblocks`` stacked blocks scattered around ``level``, a third of the
    points overwritten with the values a comparison kernel can get wrong: NaN,
    ±inf, ±0.0, subnormals, ``level`` itself and its two neighbours."""
    rng = np.random.default_rng(seed)
    centre = level if np.isfinite(level) else 0.0
    with np.errstate(all="ignore"):
        batch = (centre + rng.normal(size=(nblocks,) + shape)).astype(dtype)
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            salt = [np.clip(centre, info.min, info.max), 0, info.max, info.min]
        else:
            tiny = float(np.finfo(dtype).smallest_subnormal)
            salt = [np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, level]
            salt += [np.nextafter(level, np.inf), np.nextafter(level, -np.inf)]
        hits = rng.integers(0, max(1, batch.size), size=batch.size // 3)
        batch.reshape(-1)[hits] = rng.choice(np.array(salt).astype(dtype), size=hits.size)
    return batch


def _in_layout(batch, layout):
    """The same values as a C-contiguous array, a row-strided view, a
    transposed (non-C) view, or a read-only array."""
    if layout == "row_strided":
        return np.repeat(batch, 2, axis=0)[::2]
    if layout == "transposed":
        return np.ascontiguousarray(batch.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
    if layout == "read_only":
        batch.flags.writeable = False
    return batch


class TestTriangleMesh:
    def test_from_soup_and_counts(self):
        soup = np.zeros((3, 3, 3))
        soup[:, 1, 0] = 1.0
        soup[:, 2, 1] = 1.0
        mesh = TriangleMesh.from_triangle_soup(soup)
        assert mesh.ntriangles == 3
        assert mesh.nvertices == 9
        assert mesh.area() == pytest.approx(1.5)

    def test_merge(self):
        soup = np.random.default_rng(0).normal(size=(2, 3, 3))
        a = TriangleMesh.from_triangle_soup(soup)
        b = TriangleMesh.from_triangle_soup(soup)
        merged = TriangleMesh.merge([a, b, TriangleMesh()])
        assert merged.ntriangles == 4

    def test_empty_mesh(self):
        mesh = TriangleMesh()
        assert mesh.is_empty
        assert mesh.area() == 0.0
        lo, hi = mesh.bounds()
        np.testing.assert_array_equal(lo, hi)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            TriangleMesh(vertices=np.zeros((2, 3)), triangles=np.array([[0, 1, 5]]))

    def test_normals_unit_length(self):
        soup = np.random.default_rng(1).normal(size=(5, 3, 3))
        mesh = TriangleMesh.from_triangle_soup(soup)
        norms = np.linalg.norm(mesh.triangle_normals(), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-9)

    def test_translated(self):
        soup = np.zeros((1, 3, 3))
        mesh = TriangleMesh.from_triangle_soup(soup).translated([1.0, 2.0, 3.0])
        np.testing.assert_allclose(mesh.vertices[0], [1.0, 2.0, 3.0])


class TestMarchingCubes:
    def test_empty_when_level_outside_range(self):
        field = np.zeros((5, 5, 5))
        assert marching_cubes(field, 1.0).is_empty
        assert count_active_cells(field, 1.0) == 0

    def test_sphere_surface_area(self):
        field, x = sphere_field(n=40, radius=0.6)
        mesh = marching_cubes(field, 0.0, coords=(x, x, x))
        expected = 4.0 * np.pi * 0.6**2
        assert mesh.ntriangles > 100
        assert mesh.area() == pytest.approx(expected, rel=0.08)

    def test_vertices_lie_on_isosurface(self):
        field, x = sphere_field(n=24, radius=0.5)
        mesh = marching_cubes(field, 0.0, coords=(x, x, x))
        radii = np.linalg.norm(mesh.vertices, axis=1)
        # Vertices interpolated along edges are close to the sphere of radius 0.5.
        assert np.abs(radii - 0.5).max() < 0.05

    def test_triangle_count_scales_with_active_cells(self):
        field, x = sphere_field(n=24, radius=0.5)
        cells = count_active_cells(field, 0.0)
        mesh = marching_cubes(field, 0.0)
        # The tetrahedral triangulation emits a handful of triangles per crossed cell.
        assert 1.0 <= mesh.ntriangles / cells <= 8.0

    def test_planar_isosurface_area(self):
        # f(x, y, z) = z, level 0.55 -> a unit-square plane (the level is chosen
        # strictly between grid values; an isovalue exactly on a grid plane is
        # the usual marching-cubes degenerate case).
        n = 11
        x = np.linspace(0, 1, n)
        field = np.tile(x[None, None, :], (n, n, 1))
        mesh = marching_cubes(field, 0.55, coords=(x, x, x))
        assert mesh.area() == pytest.approx(1.0, rel=1e-6)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            marching_cubes(np.zeros((4, 4)), 0.5)
        with pytest.raises(ValueError):
            marching_cubes(np.zeros((4, 4, 4)), 0.5, coords=(np.arange(3), np.arange(4), np.arange(4)))

    def test_degenerate_axis(self):
        assert marching_cubes(np.zeros((1, 4, 4)), 0.5).is_empty

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=500), level=st.floats(min_value=-0.5, max_value=0.5))
    def test_mesh_inside_domain_bounds_property(self, seed, level):
        """All isosurface vertices stay inside the grid's bounding box."""
        field = np.random.default_rng(seed).normal(size=(7, 7, 7))
        mesh = marching_cubes(field, level)
        if mesh.is_empty:
            return
        assert mesh.vertices.min() >= -1e-9
        assert mesh.vertices.max() <= 6.0 + 1e-9

    def test_extract_isosurface_single_pass_consistency(self):
        """extract_isosurface returns the same mesh and count as the two-pass API."""
        field, x = sphere_field(n=24, radius=0.5)
        mesh, cells = extract_isosurface(field, 0.0, coords=(x, x, x))
        assert cells == count_active_cells(field, 0.0)
        assert mesh.ntriangles == marching_cubes(field, 0.0, coords=(x, x, x)).ntriangles
        empty_mesh, empty_cells = extract_isosurface(np.zeros((5, 5, 5)), 1.0)
        assert empty_mesh.is_empty and empty_cells == 0

    def test_count_batch_matches_scalar(self):
        """Batched counts are bitwise identical to per-block counts."""
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(9, 5, 6, 4))
        for level in (-0.3, 0.0, 0.1):
            got = count_active_cells_batch(batch, level)
            want = [count_active_cells(batch[i], level) for i in range(9)]
            assert got.tolist() == want

    def test_count_batch_matches_scalar_float32(self):
        """float32 batches match the scalar float64 path, including levels
        that are not exactly representable in float32."""
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(7, 4, 5, 6)).astype(np.float32)
        for level in (0.1, float(np.nextafter(0.25, 1.0)), -0.30000000000000004):
            got = count_active_cells_batch(batch, level)
            want = [
                count_active_cells(np.asarray(batch[i], dtype=np.float64), level)
                for i in range(batch.shape[0])
            ]
            assert got.tolist() == want

    def test_count_batch_degenerate_and_validation(self):
        assert count_active_cells_batch(np.zeros((0, 4, 4, 4)), 0.5).tolist() == []
        assert count_active_cells_batch(np.zeros((3, 1, 4, 4)), 0.5).tolist() == [0, 0, 0]
        with pytest.raises(ValueError):
            count_active_cells_batch(np.zeros((4, 4, 4)), 0.5)

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nblocks=st.integers(min_value=0, max_value=40),
        shape=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
        dtype=st.sampled_from([np.float32, np.float64, np.float16, np.int32]),
        # Any float, plus levels float32 cannot represent (the float64 path).
        level=st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.1, float(np.nextafter(0.25, 1.0))]),
        layout=st.sampled_from(["c", "row_strided", "transposed", "read_only"]),
        # Rows per chunk: 1 because a block exceeds the budget, exactly 1, 2
        # (a ragged last chunk on odd batches), and the shipped constant.
        chunk_rows=st.sampled_from([0.0, 1.0, 2.5, None]),
    )
    def test_count_batch_equals_oracle_and_scalar(
        self, seed, nblocks, shape, dtype, level, layout, chunk_rows
    ):
        """New kernel == the kernel it replaced == the scalar 8-corner float64
        path, wherever the chunk boundaries fall, without touching its input."""
        batch = _in_layout(_salted_batch(seed, nblocks, shape, dtype, level), layout)
        before = batch.tobytes()
        row_bytes = int(np.prod(shape)) * batch.itemsize
        chunk_bytes = (
            marching_cubes_module._CHUNK_BYTES
            if chunk_rows is None
            else max(1, int(chunk_rows * row_bytes))
        )
        with np.errstate(over="ignore"):  # np.float32(level) of a huge level
            with mock.patch.object(marching_cubes_module, "_CHUNK_BYTES", chunk_bytes):
                got = count_active_cells_batch(batch, level)
            want = oracle_count_active_cells_batch(batch, level)
        assert got.dtype == np.int64 and got.shape == (nblocks,)
        assert got.tolist() == want.tolist()
        assert got.tolist() == [
            count_active_cells(np.asarray(batch[i], dtype=np.float64), level)
            for i in range(nblocks)
        ]
        assert batch.tobytes() == before

    def test_count_batch_scratch_is_chunk_sized(self):
        """Structural guard (no wall-clock): the kernel's peak allocation is a
        small fraction of the payload — 0.05x measured, 2.74x for the replaced
        kernel — so a lost ``out=``, an ``astype`` of the whole batch or a
        dropped chunk loop fails here on any machine."""
        rng = np.random.default_rng(3)
        batch = rng.normal(45.0, 20.0, size=(864, 14, 14, 5)).astype(np.float32)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            counts = count_active_cells_batch(batch, 45.0)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert counts.sum() > 0
        assert peak <= 0.25 * batch.nbytes, (peak, batch.nbytes)


class TestCameraAndRasterizer:
    def test_camera_projects_center_to_screen_middle(self):
        cam = Camera(position=[0, 0, -5], target=[0, 0, 0], up=[0, 1, 0])
        pixels, depth = cam.project(np.array([[0.0, 0.0, 0.0]]), 100, 80)
        assert pixels[0, 0] == pytest.approx(50.0)
        assert pixels[0, 1] == pytest.approx(40.0)
        assert depth[0] == pytest.approx(5.0)

    def test_camera_behind_points_infinite_depth(self):
        cam = Camera(position=[0, 0, 0], target=[0, 0, 1])
        _, depth = cam.project(np.array([[0.0, 0.0, -1.0]]), 10, 10)
        assert np.isinf(depth[0])

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            Camera(position=[0, 0, 0], target=[0, 0, 0])
        with pytest.raises(ValueError):
            Camera(position=[0, 0, 0], target=[0, 0, 1], fov_degrees=200)

    def test_fit_bounds_sees_object(self):
        cam = Camera.fit_bounds(np.zeros(3), np.ones(3))
        pixels, depth = cam.project(np.array([[0.5, 0.5, 0.5]]), 200, 200)
        assert np.isfinite(depth[0])
        assert 0 <= pixels[0, 0] <= 200 and 0 <= pixels[0, 1] <= 200

    def test_rasterize_sphere_covers_pixels(self):
        field, x = sphere_field(n=20, radius=0.5)
        mesh = marching_cubes(field, 0.0, coords=(x, x, x))
        cam = Camera.fit_bounds(*mesh.bounds())
        fb = Framebuffer(120, 100)
        rasterize_mesh(mesh, cam, fb)
        assert fb.coverage() > 0.05
        assert fb.color.max() > 0.1

    def test_rasterize_empty_mesh_noop(self):
        fb = Framebuffer(10, 10)
        rasterize_mesh(TriangleMesh(), Camera(position=[0, 0, -1], target=[0, 0, 0]), fb)
        assert fb.coverage() == 0.0

    def test_framebuffer_save_pgm(self, tmp_path):
        fb = Framebuffer(8, 6, background=0.5)
        path = fb.save_pgm(tmp_path / "img.pgm")
        data = path.read_bytes()
        assert data.startswith(b"P5\n8 6\n255\n")
        assert len(data) == len(b"P5\n8 6\n255\n") + 48

    def test_framebuffer_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 5)
        with pytest.raises(ValueError):
            Framebuffer(5, 5, background=2.0)

    def test_save_array_pgm(self, tmp_path):
        img = np.random.default_rng(0).random((5, 7))
        path = Framebuffer.save_array_pgm(img, tmp_path / "a.pgm")
        assert path.exists()


class TestColormapSliceVolume:
    def test_grayscale_range(self):
        img = grayscale(np.array([[0.0, 5.0], [10.0, 2.5]]))
        assert img.min() == 0.0 and img.max() == 1.0

    def test_viridis_shape(self):
        img = viridis_like(np.zeros((4, 5)))
        assert img.shape == (4, 5, 3)

    def test_apply_colormap_unknown(self):
        with pytest.raises(ValueError):
            apply_colormap(np.zeros((2, 2)), cmap="jet")

    def test_extract_slice_default_middle(self, tiny_field):
        slab = extract_slice(tiny_field)
        assert slab.shape == tiny_field.shape[:2]

    def test_extract_slice_bounds(self, tiny_field):
        with pytest.raises(ValueError):
            extract_slice(tiny_field, level_index=10_000)

    def test_render_colormap_slice(self, tiny_field):
        img = render_colormap_slice(tiny_field, vmin=-60, vmax=80)
        assert img.shape == tiny_field.shape[:2]
        assert 0.0 <= img.min() and img.max() <= 1.0

    def test_volume_max_projection_highlights_storm(self, tiny_field):
        mip = volume_max_projection(tiny_field, vmin=-60, vmax=80)
        assert mip.shape == tiny_field.shape[:2]
        assert mip.max() > 0.5

    def test_volume_validation(self):
        with pytest.raises(ValueError):
            volume_max_projection(np.zeros((3, 3)), axis=0)


class TestCatalyst:
    def _blocks(self, tiny_field):
        from repro.grid.decomposition import CartesianDecomposition

        decomp = CartesianDecomposition(tiny_field.shape, nranks=2, blocks_per_subdomain=(2, 2, 1))
        return decomp.extract_blocks(0, tiny_field), decomp

    def test_isosurface_count_vs_mesh_consistency(self, tiny_field):
        blocks, _ = self._blocks(tiny_field)
        count_result = IsosurfaceScript(level=45.0, mode="count").process(blocks, 0)
        mesh_result = IsosurfaceScript(level=45.0, mode="mesh").process(blocks, 0)
        assert count_result.active_cells == mesh_result.active_cells
        # The counting estimate tracks the real triangle count within a small factor.
        if mesh_result.ntriangles > 0:
            ratio = count_result.ntriangles / mesh_result.ntriangles
            assert 0.4 <= ratio <= 2.5

    def test_reduced_blocks_produce_fewer_triangles(self, tiny_field):
        blocks, _ = self._blocks(tiny_field)
        script = IsosurfaceScript(level=45.0, mode="count")
        full = script.process(blocks, 0)
        reduced = script.process([reduce_block(b) for b in blocks], 0)
        assert reduced.ntriangles <= full.ntriangles
        assert reduced.npoints < full.npoints

    def test_isosurface_validation(self):
        with pytest.raises(ValueError):
            IsosurfaceScript(mode="bad")

    def test_count_blocks_batched_matches_process(self, tiny_field):
        """The batched count path is indistinguishable from the per-block loop,
        on a mixed list of full and reduced (2×2×2) blocks."""
        blocks, _ = self._blocks(tiny_field)
        mixed = [
            reduce_block(block) if i % 2 else block for i, block in enumerate(blocks)
        ]
        script = IsosurfaceScript(level=45.0, mode="count")
        reference = script.process(mixed, 1)
        counts = script.count_blocks_batched(mixed)
        assert counts.dtype == np.int64
        assert dict(zip((b.block_id for b in mixed), counts.tolist())) == (
            reference.per_block_active_cells
        )
        assert script.count_blocks_batched([]).shape == (0,)

    def test_reduced_block_geometry_stays_in_extent(self):
        """Reduced-block isosurface vertices never leave the block's extent."""
        extent = BlockExtent(start=(4, 6, 3), stop=(10, 12, 8))
        x = np.linspace(0.0, 100.0, 6)
        data = np.broadcast_to(x[:, None, None], (6, 6, 5)).copy()
        reduced = reduce_block(Block(block_id=0, extent=extent, data=data))
        result = IsosurfaceScript(level=45.0, mode="mesh").process([reduced], 0)
        assert not result.mesh.is_empty
        lo, hi = result.mesh.bounds()
        for axis in range(3):
            assert lo[axis] >= extent.start[axis] - 1e-9
            assert hi[axis] <= extent.stop[axis] - 1 + 1e-9

    def test_reduced_block_degenerate_axis_regression(self):
        """A reduced block with a length-1 axis must not emit geometry outside
        its extent (the high corner used to be placed at start + 1, one past
        the only covered plane)."""
        extent = BlockExtent(start=(4, 6, 5), stop=(10, 12, 6))  # length-1 z
        x = np.linspace(0.0, 100.0, 6)
        data = np.broadcast_to(x[:, None, None], (6, 6, 1)).copy()
        reduced = reduce_block(Block(block_id=0, extent=extent, data=data))
        result = IsosurfaceScript(level=45.0, mode="mesh").process([reduced], 0)
        if not result.mesh.is_empty:
            lo, hi = result.mesh.bounds()
            assert lo[2] >= 5.0 - 1e-9
            assert hi[2] <= 5.0 + 1e-9  # never reaches z = 6 (outside extent)

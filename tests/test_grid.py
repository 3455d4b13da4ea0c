"""Tests for repro.grid: rectilinear grids, blocks, decomposition, reduction."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.grid.batch import DecomposedField, stacked_shape_groups
from repro.grid.block import (
    Block,
    BlockExtent,
    REDUCTION_LEVELS,
    axis_sample_indices,
    level_shape,
)
from repro.grid.decomposition import CartesianDecomposition, factorize_ranks, split_axis
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid, stretched_axis, uniform_axis
from repro.grid.reduction import (
    expand_from_corners,
    expand_from_level,
    reconstruct_block,
    reduce_block,
    reduce_to_corners,
    reduce_to_level,
    reduction_error,
    trilinear_sample,
)
from repro.scenarios import scenario_names
from repro.scenarios.scenario import scenario_decomposition


class TestRectilinearGrid:
    def test_uniform_shape_and_extent(self):
        grid = RectilinearGrid.uniform((10, 20, 5), extent=(1.0, 2.0, 0.5))
        assert grid.shape == (10, 20, 5)
        assert grid.extent == pytest.approx((1.0, 2.0, 0.5))
        assert grid.npoints == 10 * 20 * 5

    def test_axes_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            RectilinearGrid(np.array([0.0, 0.0, 1.0]), np.arange(3.0), np.arange(3.0))

    def test_cm1_like_is_stretched(self):
        grid = RectilinearGrid.cm1_like((60, 60, 10))
        dx = np.diff(grid.x)
        # Border spacing is larger than the interior spacing.
        assert dx[0] > dx[len(dx) // 2]
        assert dx[-1] > dx[len(dx) // 2]

    def test_uniform_axis_errors(self):
        with pytest.raises(ValueError):
            uniform_axis(0, 1.0)
        with pytest.raises(ValueError):
            uniform_axis(3, -1.0)

    def test_stretched_axis_monotone(self):
        axis = stretched_axis(50, 10.0, stretch_factor=3.0)
        assert axis.size == 50
        assert np.all(np.diff(axis) > 0)

    def test_stretched_axis_validation(self):
        with pytest.raises(ValueError):
            stretched_axis(3, 1.0)
        with pytest.raises(ValueError):
            stretched_axis(20, 1.0, stretch_factor=0.5)
        with pytest.raises(ValueError):
            stretched_axis(20, 1.0, stretch_fraction=0.7)


class TestBlockExtent:
    def test_shape_npoints_slices(self):
        ext = BlockExtent((1, 2, 3), (4, 6, 5))
        assert ext.shape == (3, 4, 2)
        assert ext.npoints == 24
        assert ext.slices == (slice(1, 4), slice(2, 6), slice(3, 5))

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            BlockExtent((0, 0, 0), (0, 1, 1))
        with pytest.raises(ValueError):
            BlockExtent((-1, 0, 0), (1, 1, 1))


class TestBlock:
    def test_full_block_shape_checked(self):
        ext = BlockExtent((0, 0, 0), (2, 3, 4))
        with pytest.raises(ValueError):
            Block(0, ext, np.zeros((2, 3, 5)))

    def test_reduced_block_must_be_2x2x2(self):
        ext = BlockExtent((0, 0, 0), (5, 5, 5))
        Block(0, ext, np.zeros((2, 2, 2)), level=2)
        with pytest.raises(ValueError):
            Block(0, ext, np.zeros((3, 3, 3)), level=2)

    def test_with_score(self):
        ext = BlockExtent((0, 0, 0), (2, 2, 2))
        blk = Block(1, ext, np.zeros((2, 2, 2)))
        blk2 = blk.with_score(4.5)
        assert blk2.score == 4.5
        assert blk.score is None  # original unchanged

    def test_nbytes(self):
        ext = BlockExtent((0, 0, 0), (4, 4, 4))
        data = np.zeros((4, 4, 4), dtype=np.float32)
        blk = Block(0, ext, data)
        assert blk.nbytes == 4 * 64

    def test_negative_block_id_rejected(self):
        ext = BlockExtent((0, 0, 0), (2, 2, 2))
        with pytest.raises(ValueError):
            Block(-1, ext, np.zeros((2, 2, 2)))


class TestFactorization:
    def test_factorize_64(self):
        assert factorize_ranks(64) == (4, 4, 4)

    def test_factorize_400(self):
        dims = factorize_ranks(400)
        assert np.prod(dims) == 400

    def test_factorize_2d(self):
        dims = factorize_ranks(64, ndims=2)
        assert len(dims) == 2 and np.prod(dims) == 64

    def test_factorize_prime(self):
        assert factorize_ranks(7) == (7, 1, 1)

    def test_factorize_one(self):
        assert factorize_ranks(1) == (1, 1, 1)

    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=1, max_value=3))
    def test_factorize_product_property(self, n, ndims):
        dims = factorize_ranks(n, ndims)
        assert int(np.prod(dims)) == n

    def test_split_axis_covers_all(self):
        ranges = split_axis(23, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 23
        total = sum(hi - lo for lo, hi in ranges)
        assert total == 23

    def test_split_axis_errors(self):
        with pytest.raises(ValueError):
            split_axis(3, 5)
        with pytest.raises(ValueError):
            split_axis(3, 0)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=32))
    def test_split_axis_property(self, npoints, nparts):
        if npoints < nparts:
            return
        ranges = split_axis(npoints, nparts)
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == npoints
        assert max(sizes) - min(sizes) <= 1


def assert_tiles(decomp: CartesianDecomposition) -> None:
    """The tiling law: decomposing a field whose values are their own flat
    indices puts every index in exactly one block, at that block's extent."""
    field = np.arange(np.prod(decomp.global_shape)).reshape(decomp.global_shape)
    arrival = decomp.decompose(field)
    blocks = [block for rank in range(decomp.nranks) for block in arrival[rank]]
    for block in blocks:
        np.testing.assert_array_equal(block.data, field[block.extent.slices])
    indices = np.sort(np.concatenate([block.data.ravel() for block in blocks]))
    np.testing.assert_array_equal(indices, field.ravel())


class _Tiling:
    """A stand-in decomposition cutting one rank's blocks at ``extents``,
    with ``misplace`` naming a block whose payload is read one cell off."""

    nranks = 1

    def __init__(self, global_shape, extents, misplace=None):
        self.global_shape = global_shape
        self.extents = extents
        self.misplace = misplace

    def decompose(self, field):
        blocks = []
        for bid, extent in enumerate(self.extents):
            data = field[extent.slices]
            if bid == self.misplace:
                data = np.roll(data, 1)
            blocks.append(Block(bid, extent, data))
        return [blocks]


class TestTilingLaw:
    """``assert_tiles`` must fail on each way a decomposition can go wrong."""

    SHAPE = (6, 4, 2)

    def test_the_law_holds_for_an_exact_tiling(self):
        assert_tiles(
            _Tiling(
                self.SHAPE,
                [BlockExtent((0, 0, 0), (4, 4, 2)), BlockExtent((4, 0, 0), (6, 4, 2))],
            )
        )

    def test_the_law_sees_an_overlap(self):
        extents = [BlockExtent((0, 0, 0), (4, 4, 2)), BlockExtent((3, 0, 0), (6, 4, 2))]
        with pytest.raises(AssertionError):
            assert_tiles(_Tiling(self.SHAPE, extents))

    def test_the_law_sees_a_gap(self):
        extents = [BlockExtent((0, 0, 0), (3, 4, 2)), BlockExtent((4, 0, 0), (6, 4, 2))]
        with pytest.raises(AssertionError):
            assert_tiles(_Tiling(self.SHAPE, extents))

    def test_the_law_sees_a_payload_off_its_extent(self):
        extents = [BlockExtent((0, 0, 0), (4, 4, 2)), BlockExtent((4, 0, 0), (6, 4, 2))]
        with pytest.raises(AssertionError):
            assert_tiles(_Tiling(self.SHAPE, extents, misplace=1))


class TestCartesianDecomposition:
    def test_coverage(self):
        """Even and uneven splits, of the ranks and of each subdomain."""
        for shape, nranks, bps in [
            ((16, 16, 8), 4, (2, 2, 1)),
            ((17, 13, 9), 6, (2, 3, 1)),
            ((10, 7, 5), 3, (3, 2, 2)),
            ((9, 9, 4), 1, (4, 4, 3)),
        ]:
            assert_tiles(
                CartesianDecomposition(shape, nranks=nranks, blocks_per_subdomain=bps)
            )

    @pytest.mark.parametrize("override", [None, (4, 1, 2)])
    def test_rank_coords_cover_the_process_grid_once(self, override):
        """Row-major: the last axis varies fastest, and the ranks fill the
        process grid with one rank per cell."""
        decomp = CartesianDecomposition((16, 16, 8), nranks=8, rank_dims_override=override)
        px, py, pz = decomp.rank_dims
        coords = [decomp.rank_coords(rank) for rank in range(8)]
        assert coords == [(x, y, z) for x in range(px) for y in range(py) for z in range(pz)]
        with pytest.raises(ValueError):
            decomp.rank_coords(8)

    def test_block_ids_split_the_range_rank_by_rank(self):
        decomp = CartesianDecomposition((16, 16, 8), nranks=4, blocks_per_subdomain=(2, 1, 1))
        assert decomp.nblocks == 8
        assert [decomp.block_ids(rank) for rank in range(4)] == [
            [0, 1], [2, 3], [4, 5], [6, 7]
        ]

    def test_extract_blocks_content(self):
        """Every rank's blocks carry the field's values and tile the rank's
        subdomain, each point exactly once."""
        shape = (8, 8, 4)
        field = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        for nranks, bps in ((2, (1, 1, 1)), (4, (2, 2, 1))):
            decomp = CartesianDecomposition(
                shape, nranks=nranks, blocks_per_subdomain=bps
            )
            for rank in range(nranks):
                covered = np.zeros(shape, dtype=np.int64)
                for blk in decomp.extract_blocks(rank, field):
                    np.testing.assert_array_equal(blk.data, field[blk.extent.slices])
                    covered[blk.extent.slices] += 1
                subdomain = decomp.subdomain_extent(rank).slices
                assert (covered[subdomain] == 1).all()
                assert covered.sum() == covered[subdomain].sum()

    def test_extract_blocks_wrong_shape(self):
        decomp = CartesianDecomposition((8, 8, 4), nranks=2)
        with pytest.raises(ValueError, match="does not match domain") as per_rank:
            decomp.extract_blocks(0, np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="does not match domain") as whole:
            decomp.decompose(np.zeros((4, 4, 4)))
        assert str(whole.value) == str(per_rank.value)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_decompose_is_extract_blocks_for_every_rank(self, data):
        """``extract_blocks`` is the oracle of the whole-domain entry point:
        ``decompose(field)[rank] == extract_blocks(rank, field)``, every
        ``Block`` field equal, payload bitwise, dtype preserved — with
        remainders on every axis (both cut levels), ``pz > 1``, any
        ``blocks_per_subdomain``, both float widths, C-/F-ordered, read-only
        and memory-mapped fields — and its payload groups are the ones
        ``stacked_shape_groups`` forms from the oracle's blocks."""
        rank_dims = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="rank_dims")
        bps = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="blocks_per_subdomain")
        shape = tuple(
            data.draw(st.integers(p * b, p * b + 7), label=f"n{axis}")
            for axis, (p, b) in enumerate(zip(rank_dims, bps))
        )
        nranks = rank_dims[0] * rank_dims[1] * rank_dims[2]
        # With no override the ranks are factorised, which may not fit the shape.
        override = data.draw(st.booleans(), label="override") or None
        try:
            decomp = CartesianDecomposition(shape, nranks, bps, override and rank_dims)
        except ValueError:
            assume(False)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        kind = data.draw(st.sampled_from(["c", "f", "readonly", "memmap"]), label="kind")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        field = np.random.default_rng(seed).normal(size=shape).astype(dtype)
        with tempfile.TemporaryDirectory() as tmp:
            if kind == "f":
                field = np.asfortranarray(field)
            elif kind == "readonly":
                field.flags.writeable = False
            elif kind == "memmap":
                field.tofile(Path(tmp) / "field.bin")
                field = np.memmap(Path(tmp) / "field.bin", dtype=dtype, mode="r", shape=shape)
            arrival = decomp.decompose(field, "w")
            oracle = [decomp.extract_blocks(rank, field, "w") for rank in range(nranks)]
            del field  # the arrival owns its payloads: the map may go away
        assert len(arrival) == nranks and arrival.nblocks == decomp.nblocks
        for rank in range(nranks):
            assert len(arrival[rank]) == len(oracle[rank])
            for mine, theirs in zip(arrival[rank], oracle[rank]):
                for name in (
                    "block_id", "extent", "owner", "home", "score", "field_name", "level"
                ):
                    assert getattr(mine, name) == getattr(theirs, name), name
                assert type(mine.block_id) is int and type(mine.owner) is int
                assert mine.data.dtype == theirs.data.dtype == dtype
                assert mine.data.shape == theirs.data.shape
                assert mine.data.tobytes() == theirs.data.tobytes()
                assert mine.data.flags.c_contiguous and not mine.data.flags.writeable
        expected = stacked_shape_groups([b for blocks in oracle for b in blocks])
        assert len(arrival.groups) == len(expected)
        for (rows, stacked), (their_rows, their_stacked) in zip(arrival.groups, expected):
            assert rows.dtype == their_rows.dtype and rows.tolist() == their_rows.tolist()
            assert stacked.dtype == their_stacked.dtype and stacked.shape == their_stacked.shape
            assert stacked.tobytes() == their_stacked.tobytes()
            assert stacked.flags.c_contiguous
        arrays = [arrival.ids, arrival.starts, arrival.stops, arrival.homes, arrival.bounds]
        arrays += [array for group in arrival.groups for array in group]
        assert not any(array.flags.writeable for array in arrays)

    def test_rank_dims_override(self):
        decomp = CartesianDecomposition(
            (20, 20, 10), nranks=4, rank_dims_override=(4, 1, 1)
        )
        assert decomp.rank_dims == (4, 1, 1)

    def test_rank_dims_override_mismatch(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((20, 20, 10), nranks=4, rank_dims_override=(2, 1, 1))

    def test_rank_dims_override_wrong_arity_rejected(self):
        """A 2-tuple override must fail on its length, not on its product.

        Regression for the Optional annotation fix: the tuple's arity is
        validated before any product comparison, and a non-iterable override
        raises ValueError (not TypeError) with a clear message.
        """
        with pytest.raises(ValueError, match="rank_dims_override"):
            CartesianDecomposition((20, 20, 10), nranks=4, rank_dims_override=(2, 2))
        with pytest.raises(ValueError, match="3-tuple"):
            CartesianDecomposition((20, 20, 10), nranks=4, rank_dims_override=4)
        with pytest.raises(ValueError, match="rank_dims_override"):
            CartesianDecomposition(
                (20, 20, 10), nranks=4, rank_dims_override=(2, 2, 1, 1)
            )

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((4, 4, 2), nranks=64)

    def test_invalid_rank_queries(self):
        decomp = CartesianDecomposition((8, 8, 4), nranks=2)
        with pytest.raises(ValueError):
            decomp.block_ids(5)

    @settings(deadline=None, max_examples=20)
    @given(
        nranks=st.sampled_from([1, 2, 4, 8]),
        bps=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]),
    )
    def test_blocks_tile_domain_property(self, nranks, bps):
        assert_tiles(
            CartesianDecomposition((24, 24, 12), nranks=nranks, blocks_per_subdomain=bps)
        )


def assert_round_trips(decomp: CartesianDecomposition, field: np.ndarray) -> None:
    """``decompose(field).field()`` is ``field`` bitwise, in a new writeable
    array, and the arrival it was read from stays read-only and unwritten."""
    arrival = decomp.decompose(field)
    before = [stacked.tobytes() for _, stacked in arrival.groups]
    assembled = arrival.field()
    assert assembled.dtype == field.dtype and assembled.shape == field.shape
    assert assembled.tobytes() == np.ascontiguousarray(field).tobytes()
    assert assembled.flags.writeable and assembled.flags.c_contiguous
    assert not any(np.shares_memory(assembled, stacked) for _, stacked in arrival.groups)
    assert [stacked.tobytes() for _, stacked in arrival.groups] == before
    assert not any(stacked.flags.writeable for _, stacked in arrival.groups)


def salted_field(shape, dtype, seed) -> np.ndarray:
    """Random values with a NaN, a signed zero and an infinity among them, so
    that only a bitwise copy compares equal."""
    field = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    flat = field.reshape(-1)
    flat[:: max(1, flat.size // 3)][:3] = (np.nan, -0.0, np.inf)[: min(3, flat.size)]
    return field


class TestFieldRoundTrip:
    """``DecomposedField.field`` is the inverse of ``decompose``.  Fails with a
    ``starts`` one cell off in the scatter (a block lands on its neighbour)."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_catalogue_decomposition_round_trips(self, name, at_tiny_scale):
        config = at_tiny_scale(name)
        decomp = scenario_decomposition(config)
        assert_round_trips(decomp, salted_field(config.shape, np.float32, len(name)))

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_uneven_rank_and_block_splits_round_trip(self, data):
        """Remainders on every axis, at both cut levels, both float widths and
        an F-ordered field."""
        rank_dims = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="rank_dims")
        bps = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="blocks_per_subdomain")
        shape = tuple(
            data.draw(st.integers(p * b, p * b + 7), label=f"n{axis}")
            for axis, (p, b) in enumerate(zip(rank_dims, bps))
        )
        nranks = rank_dims[0] * rank_dims[1] * rank_dims[2]
        decomp = CartesianDecomposition(shape, nranks, bps, rank_dims)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        field = salted_field(shape, dtype, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="fortran"):
            field = np.asfortranarray(field)
        assert_round_trips(decomp, field)

    def test_blocks_that_leave_a_gap_are_refused(self):
        stacked = np.zeros((2, 2, 4, 2), dtype=np.float32)
        arrival = DecomposedField(
            np.arange(2),
            np.array([[0, 0, 0], [3, 0, 0]]),
            np.array([[2, 4, 2], [5, 4, 2]]),
            np.zeros(2, dtype=np.int64),
            [(np.arange(2), stacked)],
            nranks=1,
        )
        with pytest.raises(ValueError, match="do not tile"):
            arrival.field()


class TestDomain:
    def test_field_shape_validated(self, tiny_domain):
        with pytest.raises(ValueError):
            Domain(tiny_domain.grid, {"bad": np.zeros((2, 2, 2))})

    def test_field_names(self, tiny_domain):
        assert "dbz" in tiny_domain.fields


class TestReduction:
    def test_corner_values_preserved(self):
        data = np.random.default_rng(0).normal(size=(6, 5, 4))
        corners = reduce_to_corners(data)
        assert corners.shape == (2, 2, 2)
        assert corners[0, 0, 0] == data[0, 0, 0]
        assert corners[1, 1, 1] == data[-1, -1, -1]
        assert corners[1, 0, 1] == data[-1, 0, -1]

    def test_expand_exact_for_linear_field(self):
        x = np.linspace(0, 1, 7)
        y = np.linspace(0, 1, 6)
        z = np.linspace(0, 1, 5)
        xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
        data = 2.0 * xx - 3.0 * yy + 0.5 * zz + 1.0
        rebuilt = expand_from_corners(reduce_to_corners(data), data.shape)
        np.testing.assert_allclose(rebuilt, data, atol=1e-12)

    def test_reduction_error_zero_for_linear(self):
        x = np.linspace(0, 1, 5)
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        assert reduction_error(xx + yy + zz) == pytest.approx(0.0, abs=1e-20)

    def test_reduction_error_positive_for_nonlinear(self):
        x = np.linspace(0, 2 * np.pi, 9)
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        assert reduction_error(np.sin(xx) * np.cos(yy)) > 0.0

    def test_trilinear_sample_corners(self):
        corners = np.arange(8, dtype=float).reshape(2, 2, 2)
        assert trilinear_sample(corners, 0, 0, 0) == pytest.approx(corners[0, 0, 0])
        assert trilinear_sample(corners, 1, 1, 1) == pytest.approx(corners[1, 1, 1])

    def test_trilinear_sample_bad_shape(self):
        with pytest.raises(ValueError):
            trilinear_sample(np.zeros((3, 2, 2)), 0.5, 0.5, 0.5)

    def test_reduce_block_roundtrip_shape(self):
        ext = BlockExtent((0, 0, 0), (6, 6, 4))
        blk = Block(0, ext, np.random.default_rng(1).normal(size=(6, 6, 4)))
        red = reduce_block(blk)
        assert red.level == 2 and red.data.shape == (2, 2, 2)
        # Reducing twice is a no-op.
        assert reduce_block(red) is red
        rebuilt = reconstruct_block(red)
        assert rebuilt.shape == (6, 6, 4)

    def test_reconstruct_full_block_is_identity(self):
        ext = BlockExtent((0, 0, 0), (3, 3, 3))
        data = np.random.default_rng(2).normal(size=(3, 3, 3))
        blk = Block(0, ext, data)
        np.testing.assert_array_equal(reconstruct_block(blk), data)

    @settings(deadline=None, max_examples=30)
    @given(
        nx=st.integers(min_value=2, max_value=10),
        ny=st.integers(min_value=2, max_value=10),
        nz=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_expand_bounded_by_corner_range_property(self, nx, ny, nz, seed):
        """Trilinear interpolation never exceeds the range of the corner values."""
        data = np.random.default_rng(seed).uniform(-5, 5, size=(nx, ny, nz))
        corners = reduce_to_corners(data)
        rebuilt = expand_from_corners(corners, data.shape)
        assert rebuilt.min() >= corners.min() - 1e-9
        assert rebuilt.max() <= corners.max() + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(
        nx=st.integers(min_value=1, max_value=8),
        ny=st.integers(min_value=1, max_value=8),
        nz=st.integers(min_value=1, max_value=8),
    )
    def test_reduce_to_corners_always_2x2x2_property(self, nx, ny, nz):
        data = np.zeros((nx, ny, nz))
        assert reduce_to_corners(data).shape == (2, 2, 2)


class TestReductionLadder:
    """The multi-level (mipmap) reduction ladder: levels 0, 1, 2."""

    def test_axis_sample_indices_small(self):
        assert axis_sample_indices(1) == (0,)
        assert axis_sample_indices(2) == (0, 1)
        assert axis_sample_indices(3) == (0, 2)
        assert axis_sample_indices(4) == (0, 2, 3)
        assert axis_sample_indices(5) == (0, 2, 4)
        with pytest.raises(ValueError):
            axis_sample_indices(0)

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(min_value=1, max_value=64))
    def test_axis_sample_indices_edges_property(self, n):
        """Both edge points of every axis are always retained."""
        samples = axis_sample_indices(n)
        assert samples[0] == 0 and samples[-1] == n - 1
        assert list(samples) == sorted(set(samples))

    def test_level_shape(self):
        assert level_shape(0, (6, 5, 4)) == (6, 5, 4)
        assert level_shape(1, (6, 5, 4)) == (4, 3, 3)
        assert level_shape(2, (6, 5, 4)) == (2, 2, 2)
        with pytest.raises(ValueError):
            level_shape(3, (6, 5, 4))

    def test_ladder_geometry_memo_does_not_cache_errors(self):
        """The geometry is memoised; an invalid argument raises every time
        and a repeated valid call returns the one immutable tuple."""
        for _ in range(2):
            with pytest.raises(ValueError):
                axis_sample_indices(0)
            with pytest.raises(ValueError):
                level_shape(3, (6, 5, 4))
        assert axis_sample_indices(7) is axis_sample_indices(7)
        assert level_shape(1, (7, 7, 7)) is level_shape(1, (7, 7, 7))
        assert isinstance(level_shape(0, (6, 5, 4)), tuple)

    def test_level2_is_exactly_corners(self):
        data = np.random.default_rng(3).normal(size=(6, 5, 4))
        np.testing.assert_array_equal(reduce_to_level(data, 2), reduce_to_corners(data))
        np.testing.assert_array_equal(reduce_to_level(data, 0), data)

    def test_level1_preserves_corners_bitwise(self):
        """Corner rung of a level-1 payload equals corners of the full block.

        This is the deepening guarantee: a level-1 block can later be reduced
        to level 2 with no additional error versus reducing the full block.
        """
        data = np.random.default_rng(4).normal(size=(11, 11, 12))
        level1 = reduce_to_level(data, 1)
        np.testing.assert_array_equal(reduce_to_corners(level1), reduce_to_corners(data))

    def test_level1_payload_fraction_below_quarter(self):
        for shape in [(11, 11, 12), (44, 44, 12), (55, 55, 38)]:
            level1 = level_shape(1, shape)
            fraction = np.prod(level1) / np.prod(shape)
            assert fraction <= 0.25, (shape, fraction)

    def test_level1_expand_exact_at_sample_points(self):
        data = np.random.default_rng(5).normal(size=(7, 6, 5))
        rebuilt = expand_from_level(reduce_to_level(data, 1), 1, data.shape)
        ix, iy, iz = (axis_sample_indices(n) for n in data.shape)
        sampled = data[np.ix_(ix, iy, iz)]
        np.testing.assert_array_equal(rebuilt[np.ix_(ix, iy, iz)], sampled)

    def test_level1_expand_exact_for_linear_field(self):
        x = np.linspace(0, 1, 7)
        y = np.linspace(0, 1, 6)
        z = np.linspace(0, 1, 5)
        xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
        data = 2.0 * xx - 3.0 * yy + 0.5 * zz + 1.0
        rebuilt = expand_from_level(reduce_to_level(data, 1), 1, data.shape)
        np.testing.assert_allclose(rebuilt, data, atol=1e-12)

    def test_level1_error_never_exceeds_level2(self):
        x = np.linspace(0, 2 * np.pi, 9)
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        data = np.sin(xx) * np.cos(yy) + 0.2 * zz
        assert reduction_error(data, level=1) <= reduction_error(data, level=2)
        assert reduction_error(data, level=0) == 0.0

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 5, 4), (5, 1, 4), (5, 4, 1), (1, 1, 1)])
    def test_degenerate_axis_roundtrip_exact(self, level, shape):
        """A length-1 axis must round-trip exactly at every ladder level.

        Along a degenerate axis there is nothing to interpolate — the single
        plane is both edges at once — so reduce→expand must reproduce the
        original values bitwise on the retained sample grid, and the expanded
        array must be constant along the degenerate axis.
        """
        data = np.random.default_rng(6).normal(size=shape)
        payload = reduce_to_level(data, level)
        assert payload.shape == level_shape(level, shape)
        rebuilt = expand_from_level(payload, level, shape)
        ix, iy, iz = (axis_sample_indices(n) for n in shape) if level == 1 else (
            (0, shape[0] - 1),
            (0, shape[1] - 1),
            (0, shape[2] - 1),
        )
        if level == 0:
            np.testing.assert_array_equal(rebuilt, data)
        else:
            np.testing.assert_array_equal(
                rebuilt[np.ix_(ix, iy, iz)], data[np.ix_(ix, iy, iz)]
            )

    def test_block_level_field_and_deepening(self):
        ext = BlockExtent((0, 0, 0), (6, 6, 4))
        data = np.random.default_rng(7).normal(size=(6, 6, 4))
        blk = Block(0, ext, data)
        assert blk.level == 0
        lvl1 = reduce_block(blk, level=1)
        assert lvl1.level == 1
        assert lvl1.data.shape == level_shape(1, (6, 6, 4))
        # Deepening 1 -> 2 is bitwise identical to reducing the full block.
        lvl2_via_1 = reduce_block(lvl1, level=2)
        lvl2_direct = reduce_block(blk, level=2)
        np.testing.assert_array_equal(lvl2_via_1.data, lvl2_direct.data)
        # Reducing to a level the block already meets is a no-op.
        assert reduce_block(lvl2_via_1, level=1) is lvl2_via_1
        rebuilt = reconstruct_block(lvl1)
        assert rebuilt.shape == (6, 6, 4)

    def test_block_level_validation(self):
        ext = BlockExtent((0, 0, 0), (6, 6, 4))
        data = np.zeros((6, 6, 4))
        corners = Block(0, ext, np.zeros((2, 2, 2)), level=2)
        assert corners.level == 2
        with pytest.raises(ValueError):
            Block(0, ext, data, level=3)
        # ``level`` is the one stored field: there is no ``reduced`` flag to
        # disagree with it.
        with pytest.raises(TypeError):
            Block(0, ext, data, reduced=True, level=0)
        with pytest.raises(TypeError):
            Block(0, ext, np.zeros((2, 2, 2)), reduced=False, level=2)
        # Payload shape must match the declared level.
        with pytest.raises(ValueError):
            Block(0, ext, np.zeros((2, 2, 2)), level=1)
        assert REDUCTION_LEVELS == (0, 1, 2)

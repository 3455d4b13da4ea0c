"""Tests for the columnar layouts of ``repro.grid.batch`` and the batched ladder kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.batch import BlockColumns, DecomposedField
from repro.grid.block import Block, BlockExtent


def make_block(block_id, shape=(4, 3, 2), offset=0, dtype=np.float32, **kwargs):
    rng = np.random.default_rng(block_id + 7)
    extent = BlockExtent(
        start=(offset, 0, 0),
        stop=(offset + shape[0], shape[1], shape[2]),
    )
    data = rng.normal(size=shape).astype(dtype)
    return Block(block_id=block_id, extent=extent, data=data, **kwargs)


class TestBatchReductionLadder:
    """Batched ladder kernels and level metadata through BlockColumns."""

    @staticmethod
    def round_trip(blocks):
        """The blocks as one rank's columns, every row written (so every block
        is rebuilt from the columns), and back."""
        columns = BlockColumns([blocks])
        assert len(columns.groups) == 1  # one payload shape, one stacked group
        columns.set_scores(np.arange(len(blocks), dtype=np.float64))
        (rebuilt,) = columns.to_ranks()
        assert all(copy is not block for copy, block in zip(rebuilt, blocks))
        return columns, rebuilt

    def test_levels_round_trip(self):
        from repro.grid.reduction import reduce_block

        # A full 3x3x3 block and the level-1 payload of a 4x4x4 block share
        # the payload shape (3, 3, 3), so they stack into one group.
        full = make_block(0, shape=(3, 3, 3), dtype=np.float64)
        lvl1 = reduce_block(make_block(1, shape=(4, 4, 4), offset=4, dtype=np.float64), level=1)
        _, rebuilt = self.round_trip([full, lvl1])
        assert [b.level for b in rebuilt] == [0, 1]
        assert [b.level > 0 for b in rebuilt] == [False, True]
        np.testing.assert_array_equal(rebuilt[1].data, lvl1.data)

    def test_mixed_levels_in_one_shape_group(self):
        """Blocks of different ladder levels can share one payload group.

        A level-2 payload is always 2x2x2, and a level-1 payload of a 3x3x3
        block is *also* 2x2x2 — payloads are grouped by shape, so both land in
        the same group and the ``levels`` column must keep them apart.
        """
        from repro.grid.reduction import reduce_block

        lvl2 = reduce_block(make_block(0, shape=(4, 4, 4), dtype=np.float64), level=2)
        lvl1 = reduce_block(make_block(1, shape=(3, 3, 3), offset=4, dtype=np.float64), level=1)
        assert lvl2.data.shape == lvl1.data.shape == (2, 2, 2)
        columns, rebuilt = self.round_trip([lvl2, lvl1])
        assert columns.levels.tolist() == [2, 1]
        assert [b.level for b in rebuilt] == [2, 1]
        assert all(b.level > 0 for b in rebuilt)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_batched_reduce_matches_scalar(self, level):
        from repro.grid.reduction import reduce_to_level, reduce_to_level_batch

        rng = np.random.default_rng(11)
        stack = rng.normal(size=(5, 6, 5, 4))
        batched = reduce_to_level_batch(stack, level)
        for i in range(stack.shape[0]):
            np.testing.assert_array_equal(batched[i], reduce_to_level(stack[i], level))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize(
        "shape", [(6, 5, 4), (1, 4, 3), (4, 1, 1), (1, 1, 1), (2, 2, 2)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_subset_matches_scalar(self, level, shape, dtype):
        """``rows`` taken by the kernel (the corner rung reads a strided view
        first, length-1 axes fancy-index) equal reducing those blocks one at a
        time, on a read-only stack, in ``rows`` order — also when the rows are
        local positions of a group held as ``stacked[take]`` and the kernel is
        handed ``take[rows]``, as ``BlockColumns.reduce_to`` deepens them."""
        from repro.grid.reduction import reduce_to_level, reduce_to_level_batch

        stack = np.random.default_rng(14).normal(size=(9,) + shape).astype(dtype)
        stack.flags.writeable = False
        subsets = [[5, 0, 3], [6], list(range(7)), []]
        for take in (None, np.array([0, 2, 3, 4, 5, 7, 8], dtype=np.int64)):
            held = stack[:7] if take is None else stack[take]
            for rows in (np.array(subset, dtype=np.int64) for subset in subsets):
                batched = reduce_to_level_batch(
                    stack, level, rows if take is None else take[rows]
                )
                assert batched.dtype == dtype and len(batched) == len(rows)
                assert batched.flags.c_contiguous
                for got, row in zip(batched, rows.tolist()):
                    assert got.tobytes() == reduce_to_level(held[row], level).tobytes()


class TestDecomposedFieldValidation:
    """The arrival's constructor checks on whole columns what ``Block`` and
    ``BlockExtent`` check per block."""

    @staticmethod
    def parts(**overrides):
        """Constructor arguments of a valid two-rank, three-block arrival."""
        starts = np.array([[0, 0, 0], [2, 0, 0], [4, 0, 0]], dtype=np.int64)
        stops = np.array([[2, 3, 2], [4, 3, 2], [5, 3, 2]], dtype=np.int64)
        parts = {
            "ids": np.arange(3, dtype=np.int64),
            "starts": starts,
            "stops": stops,
            "homes": np.array([0, 0, 1], dtype=np.int64),
            "groups": [
                (np.array([0, 1]), np.zeros((2, 2, 3, 2), dtype=np.float32)),
                (np.array([2]), np.ones((1, 1, 3, 2), dtype=np.float32)),
            ],
            "nranks": 2,
        }
        parts.update(overrides)
        return parts

    def test_valid_parts_read_as_per_rank_block_lists(self):
        arrival = DecomposedField(**self.parts(), field_name="w")
        assert len(arrival) == 2 and arrival.nblocks == 3
        assert [[b.block_id for b in blocks] for blocks in arrival] == [[0, 1], [2]]
        block = arrival[1][0]
        assert (block.owner, block.home, block.level, block.field_name) == (1, 1, 0, "w")
        assert block.extent == BlockExtent((4, 0, 0), (5, 3, 2))
        assert arrival[-1] is arrival[1]  # built once, the same lists every time
        # Inputs only: a write into any payload fails loudly.
        with pytest.raises(ValueError, match="read-only"):
            block.data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arrival.groups[0][1][...] = 0.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"ids": np.array([0, -1, 2])}, "ids must be >= 0"),
            ({"stops": np.array([[2, 3, 2], [4, 3, 2], [4, 3, 2]])}, "extents non-empty"),
            ({"starts": np.array([[0, 0, 0], [2, 0, 0], [4, 0, -1]])}, "ids must be >= 0"),
            ({"homes": np.array([0, 1, 0])}, "non-decreasing"),
            ({"homes": np.array([0, 0, 2])}, "non-decreasing ranks in"),
            ({"homes": np.array([0, 0])}, "shape"),
            ({"starts": np.zeros((3, 2), dtype=np.int64)}, "shape"),
            (
                {"groups": [(np.array([0, 1]), np.zeros((2, 2, 3, 2)))]},
                "exactly one payload group",
            ),
            (
                {"groups": [(np.array([0, 1, 1]), np.zeros((3, 2, 3, 2))), (np.array([2]), np.zeros((1, 1, 3, 2)))]},
                "exactly one payload group",
            ),
            (
                {"groups": [(np.array([0, 1, 2]), np.zeros((3, 2, 3, 2)))]},
                "another extent",
            ),
            (
                {"groups": [(np.array([0, 1]), np.zeros((2, 2, 3))), (np.array([2]), np.zeros((1, 1, 3, 2)))]},
                "3-D",
            ),
            (
                {"groups": [(np.array([0, 1]), np.zeros((1, 2, 3, 2))), (np.array([2]), np.zeros((1, 1, 3, 2)))]},
                "one per row",
            ),
        ],
    )
    def test_invalid_parts_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            DecomposedField(**self.parts(**overrides))

"""One shared body for the fan-out: inline ≡ process pool ≡ a per-block loop.

``map_shape_groups`` is the only place a row-wise kernel is mapped over
stacked shape groups (scoring, counting-mode rendering, the bench probe's
count call) and ``stacked_shape_groups`` the only place a block list is
stacked into them, so the pair is pinned the pymor way: a list of
implementations run through one Hypothesis body, each required to return the
per-block loop's values bit for bit, in block order, whatever the shapes,
dtypes, ladder levels and chunking.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.scoring_step import _score_rows
from repro.grid.batch import stacked_shape_groups
from repro.grid.block import Block, BlockExtent
from repro.grid.fanout import map_shape_groups
from repro.grid.reduction import reduce_block
from repro.grid.shm import live_owned_segments
from repro.metrics.registry import create_metric
from repro.viz.marching_cubes import count_active_cells, count_active_cells_batch

#: Full-block payload shapes, including length-1 axes and non-cubic blocks.
SHAPES = [(4, 4, 4), (5, 3, 2), (1, 4, 3), (3, 1, 1), (2, 2, 2), (6, 5, 4), (1, 1, 1)]
COUNT_LEVEL = 0.25

VAR = create_metric("VAR")
PYVAR = create_metric("PYVAR")

#: ``(row-wise kernel, result dtype, the per-block function it must equal)``.
KERNELS = {
    "VAR.score_batch": (VAR.score_batch, np.float64, VAR.score_block),
    "PYVAR.score_block rows": (
        partial(_score_rows, PYVAR), np.float64, PYVAR.score_block,
    ),
    "count_active_cells_batch": (
        partial(count_active_cells_batch, level=COUNT_LEVEL),
        np.int64,
        lambda data: count_active_cells(np.asarray(data, dtype=np.float64), COUNT_LEVEL),
    ),
}


@st.composite
def block_lists(draw):
    """0–40 blocks over 1–4 distinct shapes, two dtypes, ladder levels 0/1/2."""
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for block_id in range(draw(st.integers(0, 40))):
        shape = draw(st.sampled_from(shapes))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        block = Block(
            block_id=block_id,
            extent=BlockExtent((0, 0, 0), shape),
            data=rng.normal(size=shape).astype(dtype),
        )
        blocks.append(reduce_block(block, draw(st.integers(0, 2))))
    return blocks


@settings(max_examples=30, deadline=None)
@given(blocks=block_lists(), workers=st.integers(1, 20))
def test_inline_and_process_fanout_equal_the_per_block_loop(blocks, workers):
    # 2 * workers chunks per shape group, capped at the group's size: groups
    # of 1..40 blocks make every chunk count from 1 to n occur.
    groups = stacked_shape_groups(blocks)
    for positions, stacked in groups:
        assert stacked.tobytes() == np.stack([blocks[i].data for i in positions]).tobytes()
    with mock.patch("repro.grid.fanout.default_process_workers", lambda: workers):
        for name, (kernel, dtype, per_block) in KERNELS.items():
            expected = np.array([per_block(b.data) for b in blocks], dtype=dtype)
            for processes in (False, True):
                values = map_shape_groups(groups, kernel, dtype, processes)
                assert values.dtype == expected.dtype, (name, processes)
                assert values.tobytes() == expected.tobytes(), (name, processes)
                assert live_owned_segments() == ()

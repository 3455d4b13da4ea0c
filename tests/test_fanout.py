"""One shared body for the fan-out: inline ≡ process pool ≡ a per-block loop.

``map_shape_groups`` is the only place a row-wise kernel is mapped over
stacked shape groups (scoring, counting-mode rendering, the bench probe's
count call) and ``stacked_shape_groups`` the only place a block list is
stacked into them, so the pair is pinned the pymor way: a list of
implementations run through one Hypothesis body, each required to return the
per-block loop's values bit for bit, in block order, whatever the shapes,
dtypes, ladder levels and chunking.  The pool body's failure contract — a
worker's exception reaches the caller with no sibling chunk left running, and
the pool then scores the next run — and a pooled pipeline iteration are
pinned below it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoring_step import VectorizedScoringStep
from repro.grid.batch import stacked_shape_groups
from repro.grid.block import Block, BlockExtent
from repro.grid.fanout import map_shape_groups
from repro.grid.reduction import reduce_block
from repro.metrics.base import MetricCost, ScoreMetric
from repro.metrics.registry import create_metric
from repro.scenarios import ExperimentScenario, create_scenario_config
from repro.viz.marching_cubes import count_active_cells, count_active_cells_batch

#: Full-block payload shapes, including length-1 axes and non-cubic blocks.
SHAPES = [(4, 4, 4), (5, 3, 2), (1, 4, 3), (3, 1, 1), (2, 2, 2), (6, 5, 4), (1, 1, 1)]
COUNT_LEVEL = 0.25

VAR = create_metric("VAR")
PYVAR = create_metric("PYVAR")

#: ``(row-wise kernel, result dtype, the per-block function it must equal)``.
KERNELS = {
    "VAR.score_batch": (VAR.score_batch, np.float64, VAR.score_block),
    "PYVAR.score_batch": (PYVAR.score_batch, np.float64, PYVAR.score_block),
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
def test_inline_and_process_fanout_equal_the_per_block_loop(
    shm_leak_check, blocks, workers
):
    # 2 * workers chunks per shape group, capped at the group's size: groups
    # of 1..40 blocks make every chunk count from 1 to n occur.
    new_shm_segments = shm_leak_check()
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
                assert new_shm_segments() == set()


class ExplodingMetric(ScoreMetric):
    """Module-level (picklable) metric that always fails inside the worker."""

    name = "EXPLODE"
    cost = MetricCost(per_point=1e-9)
    gil_bound = True

    def score_block(self, data: np.ndarray) -> float:
        raise RuntimeError("metric exploded in worker")


class RowLoggingMetric(ScoreMetric):
    """Module-level (picklable) metric whose payloads carry their row index:
    every scored row is appended to ``log_path``; row 0 raises when ``fail``."""

    name = "ROWLOG"
    cost = MetricCost(per_point=1e-9)
    gil_bound = True

    def __init__(self, log_path: str, fail: bool) -> None:
        self.log_path = log_path
        self.fail = fail

    def score_block(self, data: np.ndarray) -> float:
        row = int(data.flat[0])
        if self.fail and row == 0:
            raise RuntimeError("row 0 failed")
        time.sleep(0.01)
        with open(self.log_path, "a") as log:
            log.write(f"{row}\n")
        return float(row)


class TestPoolBody:
    def test_worker_exception_propagates(self, scoring_fanout, run_step):
        scenario = ExperimentScenario(create_scenario_config("tiny"))
        step = VectorizedScoringStep(ExplodingMetric(), scenario.platform)
        with pytest.raises(RuntimeError, match="metric exploded"):
            run_step(step, scenario.blocks_for(0))
        assert scoring_fanout == [True]

    def test_failed_chunk_waits_for_its_siblings(
        self, tmp_path, monkeypatch, two_workers, run_step
    ):
        """When one chunk fails, the fan-out cancels the chunks that have not
        started and waits for the ones that have: nothing is still scoring
        once ``execute`` has raised, and the pool scores the next run."""
        monkeypatch.setattr("repro.grid.fanout.default_process_workers", lambda: 4)
        platform = ExperimentScenario(create_scenario_config("tiny")).platform
        blocks = [
            Block(
                block_id=i,
                extent=BlockExtent((4 * i, 0, 0), (4 * i + 4, 4, 4)),
                data=np.full((4, 4, 4), float(i)),
            )
            for i in range(40)
        ]
        log = tmp_path / "rows.log"
        log.touch()
        failing = VectorizedScoringStep(RowLoggingMetric(str(log), fail=True), platform)
        with pytest.raises(RuntimeError, match="row 0 failed"):
            run_step(failing, [blocks])
        logged = log.read_text()
        time.sleep(0.3)
        assert log.read_text() == logged  # no sibling chunk is still running
        healthy = VectorizedScoringStep(RowLoggingMetric(str(log), fail=False), platform)
        context, _ = run_step(healthy, [blocks])
        expected = np.array([(i, float(i)) for i in range(40)], dtype=np.float64)
        assert [wire.tobytes() for wire in context.pair_arrays] == [expected.tobytes()]

    def test_pooled_pyvar_iteration(self, scoring_fanout):
        """A full pipeline iteration scored over the pool equals the serial
        engine's."""
        scenario = ExperimentScenario(create_scenario_config("tiny"))

        def pairs(engine):
            pipeline = scenario.build_pipeline(
                metric="PYVAR", redistribution="round_robin", engine=engine
            )
            context = pipeline.engine.run_iteration(
                scenario.blocks_for(0), percent=50.0, iteration=0
            )
            return [wire.tobytes() for wire in context.pair_arrays]

        pooled = pairs("vectorized")
        assert scoring_fanout == [True]
        assert pooled and pooled == pairs("serial")

    def test_warmed_pool_scores_without_a_word_on_stderr(self):
        """A pool warmed before anything was scored, then fed a GIL-bound
        scoring step, exits cleanly: no worker or tracker complains."""
        script = (
            "import repro.utils.procpool as procpool\n"
            "procpool.default_process_workers = lambda: 2\n"
            "from repro.core.scoring_step import VectorizedScoringStep\n"
            "from repro.core.step import IterationContext\n"
            "from repro.metrics.registry import create_metric\n"
            "from repro.scenarios import ExperimentScenario, create_scenario_config\n"
            "scenario = ExperimentScenario(create_scenario_config('tiny'))\n"
            "procpool.warm_shared_pool()\n"
            "step = VectorizedScoringStep(create_metric('PYVAR'), scenario.platform)\n"
            "blocks = scenario.blocks_for(0)\n"
            "step.execute(IterationContext(0, 0.0, blocks))\n"
            "assert procpool._POOL is not None\n"
            "procpool.shutdown_shared_pool()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

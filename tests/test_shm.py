"""Tests for repro.grid.shm: shared-memory block batches and leak accounting.

The process pool's correctness story rests on two properties tested here:

* pickling a :class:`SharedBlockBatch` ships a ~100-byte handle, never the
  payload, and the attached view maps the same bytes read-only;
* every code path that creates a segment — including ones that die inside a
  worker — disposes of it, observable through :func:`live_owned_segments`.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.scoring_step import VectorizedScoringStep
from repro.scenarios import ExperimentScenario
from repro.grid.block import Block, BlockExtent
from repro.grid.shm import (
    SharedBatchError,
    SharedBlockBatch,
    ShmBatchHandle,
    live_owned_segments,
    purge_owned_segments,
)
from repro.metrics.base import MetricCost, ScoreMetric
from repro.scenarios import get_scenario


def _payload(seed: int = 0, shape=(3, 4, 5, 6)) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


class ExplodingMetric(ScoreMetric):
    """Module-level (picklable) metric that always fails inside the worker."""

    name = "EXPLODE"
    cost = MetricCost(per_point=1e-9)
    supports_batch = False
    gil_bound = True

    def score_block(self, data: np.ndarray) -> float:
        raise RuntimeError("metric exploded in worker")


class RowLoggingMetric(ScoreMetric):
    """Module-level (picklable) metric whose payloads carry their row index:
    every scored row is appended to ``log_path``; row 0 raises when ``fail``."""

    name = "ROWLOG"
    cost = MetricCost(per_point=1e-9)
    supports_batch = False
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


class TestSharedBlockBatchLifecycle:
    def test_create_roundtrips_payload(self):
        payload = _payload()
        shared = SharedBlockBatch.create(payload)
        try:
            assert shared.owner
            assert shared.nbytes == payload.nbytes
            assert np.array_equal(shared.data, payload)
            # The owner's view is a *copy* in shared pages, not the input.
            assert shared.data.ctypes.data != payload.ctypes.data
        finally:
            shared.dispose()
        assert shared.name not in live_owned_segments()

    def test_create_validates_shape(self):
        with pytest.raises(ValueError, match="4-D"):
            SharedBlockBatch.create(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="empty"):
            SharedBlockBatch.create(np.zeros((0, 4, 4, 4)))

    def test_attach_maps_same_bytes_readonly(self):
        payload = _payload(1)
        with SharedBlockBatch.create(payload) as owner:
            view = SharedBlockBatch.attach(owner.handle())
            try:
                assert not view.owner
                assert np.array_equal(view.data, payload)
                with pytest.raises(ValueError):
                    view.data[0, 0, 0, 0] = 42.0  # read-only mapping
            finally:
                view.close()

    def test_pickle_ships_handle_not_payload(self):
        payload = _payload(2, shape=(8, 16, 16, 16))  # 256 KiB
        with SharedBlockBatch.create(payload) as owner:
            blob = pickle.dumps(owner)
            assert len(blob) < 1024  # handle-sized, not payload-sized
            view = pickle.loads(blob)
            try:
                assert not view.owner
                assert np.array_equal(view.data, payload)
            finally:
                view.close()

    def test_handle_fields(self):
        with SharedBlockBatch.create(_payload()) as owner:
            handle = owner.handle()
            assert isinstance(handle, ShmBatchHandle)
            assert handle.name == owner.name
            assert handle.shape == (3, 4, 5, 6)
            assert np.dtype(handle.dtype) == np.float64

    def test_view_cannot_unlink(self):
        with SharedBlockBatch.create(_payload()) as owner:
            view = SharedBlockBatch.attach(owner.handle())
            try:
                with pytest.raises(SharedBatchError, match="only the creating"):
                    view.unlink()
            finally:
                view.close()

    def test_data_after_close_raises(self):
        shared = SharedBlockBatch.create(_payload())
        shared.dispose()
        with pytest.raises(SharedBatchError, match="closed"):
            shared.data

    def test_close_and_unlink_idempotent(self):
        shared = SharedBlockBatch.create(_payload())
        shared.close()
        shared.close()
        shared.unlink()
        shared.unlink()
        assert shared.name not in live_owned_segments()

    def test_close_before_unlink_still_destroys_segment(self):
        shared = SharedBlockBatch.create(_payload())
        handle = shared.handle()
        shared.close()  # view unmapped first ...
        shared.unlink()  # ... the segment must still be destroyed
        with pytest.raises(SharedBatchError):
            SharedBlockBatch.attach(handle)

    def test_attach_after_unlink_raises_clear_error(self):
        shared = SharedBlockBatch.create(_payload())
        handle = shared.handle()
        shared.dispose()
        with pytest.raises(SharedBatchError, match="already unlinked"):
            SharedBlockBatch.attach(handle)

    def test_context_manager_disposes(self):
        with SharedBlockBatch.create(_payload()) as shared:
            name = shared.name
            assert name in live_owned_segments()
        assert name not in live_owned_segments()


class TestLeakAccounting:
    def test_live_owned_segments_tracks_lifecycle(self):
        before = live_owned_segments()
        a = SharedBlockBatch.create(_payload(3))
        b = SharedBlockBatch.create(_payload(4))
        live = live_owned_segments()
        assert a.name in live and b.name in live
        a.dispose()
        assert a.name not in live_owned_segments()
        assert b.name in live_owned_segments()
        b.dispose()
        assert live_owned_segments() == before

    def test_worker_exception_leaks_no_segments(self, two_workers, run_step):
        """A metric that dies inside a worker must not leave segments behind
        (the step disposes its shared batches in a ``finally`` block)."""
        scenario = ExperimentScenario(get_scenario("tiny").tiny())
        step = VectorizedScoringStep(ExplodingMetric(), scenario.platform)
        before = live_owned_segments()
        with pytest.raises(RuntimeError, match="metric exploded"):
            run_step(step, scenario.blocks_for(0))
        assert live_owned_segments() == before

    def test_failed_chunk_waits_for_siblings_before_unlinking(
        self, tmp_path, monkeypatch, two_workers, run_step
    ):
        """When one chunk fails, the fan-out cancels the chunks that have not
        started and waits for the ones that have *before* it unlinks their
        segment: nothing is still scoring once ``execute`` has raised, and the
        pool is healthy for the next run."""
        monkeypatch.setattr("repro.grid.fanout.default_process_workers", lambda: 4)
        platform = ExperimentScenario(get_scenario("tiny").tiny()).platform
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
        shm_before = set(os.listdir("/dev/shm"))
        failing = VectorizedScoringStep(RowLoggingMetric(str(log), fail=True), platform)
        with pytest.raises(RuntimeError, match="row 0 failed"):
            run_step(failing, [blocks])
        logged = log.read_text()
        time.sleep(0.3)
        assert log.read_text() == logged  # no sibling chunk is still running
        assert live_owned_segments() == ()
        assert set(os.listdir("/dev/shm")) == shm_before
        healthy = VectorizedScoringStep(RowLoggingMetric(str(log), fail=False), platform)
        context, _ = run_step(healthy, [blocks])
        assert context.per_rank_pairs == [[(i, float(i)) for i in range(40)]]
        assert live_owned_segments() == ()

    def test_purge_owned_segments_disposes_everything(self):
        """The last-resort sweep (cancelled serve runs): every segment this
        process still owns is disposed and reported, and a second purge is a
        no-op."""
        a = SharedBlockBatch.create(_payload(5))
        b = SharedBlockBatch.create(_payload(6))
        handle = a.handle()
        purged = purge_owned_segments()
        assert a.name in purged and b.name in purged
        assert live_owned_segments() == ()
        assert purge_owned_segments() == ()
        # The purged segments are really gone, not just unregistered.
        with pytest.raises(SharedBatchError):
            SharedBlockBatch.attach(handle)

    def test_purge_tolerates_already_disposed_segments(self):
        shared = SharedBlockBatch.create(_payload(8))
        shared.dispose()
        assert purge_owned_segments() == ()

    def test_process_backend_iteration_leaks_no_segments(self, two_workers):
        """A full pipeline iteration scored over the pool cleans up every segment."""
        scenario = ExperimentScenario(get_scenario("tiny").tiny())
        before = live_owned_segments()
        pipeline = scenario.build_pipeline(
            metric="PYVAR", redistribution="round_robin", engine="process"
        )
        context = pipeline.engine.run_iteration(
            scenario.blocks_for(0), percent=50.0, iteration=0
        )
        assert context.per_rank_pairs  # the iteration did real work
        assert live_owned_segments() == before

    def test_pool_forked_before_the_tracker_shares_the_parents_tracker(self):
        """A pool warmed before this process ever touched shared memory used to
        fork its workers without a resource-tracker daemon to inherit; each then
        started a private one, which at worker exit warned about — and tried to
        unlink — segments the parent had already retired."""
        script = (
            "import repro.utils.procpool as procpool\n"
            "procpool.default_process_workers = lambda: 2\n"
            "from repro.core.scoring_step import VectorizedScoringStep\n"
            "from repro.core.step import IterationContext\n"
            "from repro.scenarios import ExperimentScenario\n"
            "from repro.metrics.registry import create_metric\n"
            "from repro.scenarios import get_scenario\n"
            "scenario = ExperimentScenario(get_scenario('tiny').tiny())\n"
            "procpool.warm_shared_pool()\n"
            "step = VectorizedScoringStep(create_metric('PYVAR'), scenario.platform)\n"
            "blocks = scenario.blocks_for(0)\n"
            "step.execute(IterationContext(0, 0.0, len(blocks), blocks))\n"
            "assert procpool._POOL is not None\n"
            "procpool.shutdown_shared_pool()\n"
        )
        shm_before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
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
        assert {n for n in os.listdir("/dev/shm") if n.startswith("psm_")} == shm_before

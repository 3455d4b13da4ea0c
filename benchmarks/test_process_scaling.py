"""Process-pool and communication-pricing performance gates.

Two gates (assertions only — numbers are recorded and trended by ``bench/``,
the one tracked benchmark):

* the vectorised :meth:`NetworkCostModel.alltoallv` must price a 400-rank
  byte matrix ≥10x faster than the Python loop it replaced
  (``oracle_alltoallv_loop``, loaded from ``tests/test_simmpi.py``) — 400
  ranks is ``blue_waters_400``, the largest redistribution exchange the
  pipeline prices;
* on a GIL-bound scalar metric (:class:`PythonVarianceMetric` — the shape
  of a user-supplied scorer written without NumPy), the scoring step *as built
  by default* — which takes the process pool because the metric declares
  ``gil_bound`` — must beat the same kernel applied inline wherever there is
  more than one usable core to win on.  With one usable core the step scores
  inline by the same rule, so there the gate asserts bitwise parity and prints
  the measured ratio without enforcing it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.scoring_step import VectorizedScoringStep
from repro.scenarios.scenario import ExperimentScenario, cached_scenario
from repro.grid.batch import BlockColumns
from repro.grid.fanout import map_shape_groups
from repro.metrics.statistics import PythonVarianceMetric
from repro.simmpi.costmodel import NetworkCostModel
from repro.utils.procpool import default_process_workers

#: Required vectorised/loop ratio for the alltoallv pricing at P=400.
MIN_ALLTOALLV_SPEEDUP = 10.0

#: Required inline/pool ratio for GIL-bound scoring on multi-core hosts.
#: (The gate used to demand 1.2x over a thread pool, which itself ran this
#: metric 1.1–1.25x slower than inline; 1.1x over inline is no weaker.)
MIN_GIL_SPEEDUP = 1.1


@pytest.fixture(scope="module")
def fine_scenario_64() -> ExperimentScenario:
    """64 ranks, 64 blocks per rank — the speedup-gate configuration."""
    return cached_scenario(name="blue_waters_64_fine")


def test_vectorized_alltoallv_speedup(replaced_kernel):
    """One NumPy pass over a 400² byte matrix beats the Python loop ≥10x.

    400 ranks is the pipeline's own largest exchange: ``blue_waters_400``'s
    redistribution prices a 400×400 byte matrix every iteration.
    """
    nranks = 400
    oracle_alltoallv_loop = replaced_kernel("test_simmpi.py", "oracle_alltoallv_loop")
    model = NetworkCostModel.blue_waters()
    rng = np.random.default_rng(2016)
    matrix = rng.integers(0, 1 << 20, size=(nranks, nranks))

    start = time.perf_counter()
    vec_cost = model.alltoallv(matrix, nranks)
    vec_seconds = time.perf_counter() - start

    start = time.perf_counter()
    loop_cost = oracle_alltoallv_loop(model, matrix, nranks)
    loop_seconds = time.perf_counter() - start

    assert vec_cost == loop_cost  # identical floats, not merely close
    speedup = loop_seconds / vec_seconds
    print(
        f"\nalltoallv P={nranks}: loop {loop_seconds:.2f}s, "
        f"vectorized {vec_seconds * 1e3:.1f} ms, speedup {speedup:.0f}x"
    )
    assert speedup >= MIN_ALLTOALLV_SPEEDUP, (
        f"vectorized alltoallv speedup {speedup:.1f}x below required "
        f"{MIN_ALLTOALLV_SPEEDUP}x (loop {loop_seconds:.2f}s, "
        f"vectorized {vec_seconds:.3f}s)"
    )


def test_process_beats_threads_on_gil_bound_scoring(fine_scenario_64, run_step):
    """GIL-bound scalar scoring: the default step (pool) vs its kernel inline.

    ``PythonVarianceMetric`` holds the GIL for its entire per-block loop, so
    nothing inside one interpreter can overlap it; worker processes can, and
    the step takes them without being asked because the metric declares
    ``gil_bound``.  The baseline is the same row kernel through
    ``map_shape_groups``' inline body.  Bitwise score parity is asserted
    unconditionally; the wall-clock gate applies only where a second usable
    core exists (where none does, the step itself runs inline).
    """
    blocks = fine_scenario_64.blocks_for(0)
    metric = PythonVarianceMetric()
    step = VectorizedScoringStep(metric, fine_scenario_64.platform)

    def default_step():
        return run_step(step, blocks)[0].per_rank_pairs

    def row_kernel(stacked):
        return np.array([metric.score_block(row) for row in stacked], dtype=np.float64)

    def inline():
        columns = BlockColumns(blocks)
        scores = map_shape_groups(columns.groups, row_kernel, np.float64)
        return columns.ids.tolist(), scores.tolist()

    # Bitwise parity before timing.
    step_scores = dict(pair for pairs in default_step() for pair in pairs)
    assert step_scores == dict(zip(*inline()))

    def interleaved_best(repeats=3):
        best = {inline: float("inf"), default_step: float("inf")}
        for _ in range(repeats):
            for run in (inline, default_step):
                start = time.perf_counter()
                run()
                best[run] = min(best[run], time.perf_counter() - start)
        return best[inline], best[default_step]

    workers = default_process_workers()
    gated = workers >= 2
    for _attempt in range(3):
        inline_seconds, pool_seconds = interleaved_best()
        speedup = inline_seconds / pool_seconds
        if not gated or speedup >= MIN_GIL_SPEEDUP:
            break

    print(
        f"\nGIL-bound scoring 4096 blocks / {workers} worker(s): "
        f"inline {inline_seconds * 1e3:.0f} ms, "
        f"default step {pool_seconds * 1e3:.0f} ms, ratio {speedup:.2f}x"
    )
    if gated:
        assert speedup >= MIN_GIL_SPEEDUP, (
            f"default scoring step {speedup:.2f}x vs its kernel inline on "
            f"GIL-bound scoring with {workers} workers (inline "
            f"{inline_seconds:.3f}s, default step {pool_seconds:.3f}s); "
            f"required {MIN_GIL_SPEEDUP}x"
        )

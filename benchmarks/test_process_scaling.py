"""Process-pool and scaling-sweep performance gates.

Three gates (assertions only — numbers are recorded and trended by ``bench/``,
the one tracked benchmark):

* the vectorised :meth:`NetworkCostModel.alltoallv` must price a 4096-rank
  byte matrix ≥10x faster than the Python loop it replaced
  (``oracle_alltoallv_loop``, loaded from ``tests/test_simmpi.py``) — the
  optimisation that keeps 10,000-virtual-rank sweeps out of O(P²) Python;
* a cost-model-driven weak-scaling sweep of ``blue_waters_64`` must reach
  10,000 virtual ranks well inside five minutes;
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
from repro.scenarios.sweep import model_scaling_sweep
from repro.simmpi.costmodel import NetworkCostModel
from repro.utils.procpool import default_process_workers

#: Required vectorised/loop ratio for the alltoallv pricing at P=4096.
MIN_ALLTOALLV_SPEEDUP = 10.0

#: Wall-clock budget (seconds) for the 10k-virtual-rank weak-scaling sweep.
SWEEP_BUDGET_SECONDS = 300.0

#: Required inline/pool ratio for GIL-bound scoring on multi-core hosts.
#: (The gate used to demand 1.2x over a thread pool, which itself ran this
#: metric 1.1–1.25x slower than inline; 1.1x over inline is no weaker.)
MIN_GIL_SPEEDUP = 1.1


@pytest.fixture(scope="module")
def fine_scenario_64() -> ExperimentScenario:
    """64 ranks, 64 blocks per rank — the speedup-gate configuration."""
    return cached_scenario(name="blue_waters_64_fine")


def test_vectorized_alltoallv_speedup(replaced_kernel):
    """One NumPy pass over a 4096² byte matrix beats the Python loop ≥10x."""
    nranks = 4096
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


def test_weak_scaling_sweep_reaches_10k_ranks_in_minutes():
    """The model-driven weak-scaling sweep prices 10,000 virtual ranks fast.

    The sweep runs the full pricing path — decomposition math, platform
    scoring/reduction costs, the gather+bcast sorting collective, the dense
    10⁸-cell redistribution matrix through the vectorised alltoallv, and the
    rendering proxy — and must finish far inside the five-minute budget.
    """
    start = time.perf_counter()
    sweep = model_scaling_sweep(
        "blue_waters_64", ranks=(64, 1024, 10000), mode="weak"
    )
    elapsed = time.perf_counter() - start

    points = sweep["points"]
    assert [p["ncores"] for p in points] == [64, 1024, 10000]
    assert points[-1]["nblocks"] == 10000 * 2 * 2 * 8
    for point in points:
        steps = point["modelled_steps"]
        assert set(steps) == {
            "scoring", "sorting", "reduction", "redistribution", "rendering",
        }
        assert all(value >= 0.0 for value in steps.values())
        assert point["modelled_total"] == pytest.approx(sum(steps.values()))
    # Weak scaling: modelled totals stay within the same order of magnitude
    # (communication grows slowly with P; per-rank compute is constant).
    totals = [p["modelled_total"] for p in points]
    assert max(totals) < 2.0 * min(totals)

    print(f"\nweak-scaling sweep to 10k ranks: {elapsed:.1f}s")
    assert elapsed < SWEEP_BUDGET_SECONDS, (
        f"10k-rank weak-scaling sweep took {elapsed:.0f}s, "
        f"budget {SWEEP_BUDGET_SECONDS:.0f}s"
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

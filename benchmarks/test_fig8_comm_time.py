"""Benchmark: Figure 8 — redistribution communication time vs reduction percentage."""

from __future__ import annotations

import pytest

from repro.perfmodel.calibration import PAPER_BASELINES
from repro.experiments.fig8_comm import format_fig8, run_comm_sweep


def _check_fig8(result, scenario):
    """The curve starts at the paper's baseline and ends at the payload ratio."""
    print("\n" + format_fig8(result))
    for strategy in ("round_robin", "shuffle"):
        means = result.means(strategy)
        # Communication time decreases as more blocks are reduced (less data moves).
        assert means[0] > means[-1]
        assert all(m >= 0.0 for m in means)
    # E12: the full exchange costs the paper's ~1.2 s at 64 cores, ~0.6 s at 400.
    full_exchange = result.mean("shuffle", 0.0)
    assert full_exchange == pytest.approx(
        PAPER_BASELINES["redistribution_comm"][scenario.nranks], rel=0.25
    )
    # Round robin and random shuffle move comparable volumes.
    assert result.mean("round_robin", 0.0) == pytest.approx(full_exchange, rel=0.5)
    # Wire size is payload bytes, so exchanging only 2x2x2 corner blocks costs
    # the share of a full exchange that 8 values are of a full block.
    blocks = [b for rank_blocks in scenario.blocks_for(0) for b in rank_blocks]
    corner_bytes = 8 * blocks[0].data.itemsize
    corner_share = corner_bytes * len(blocks) / sum(b.nbytes for b in blocks)
    reduced_share = result.mean("shuffle", 100.0) / full_exchange
    print(f"0 % exchange {full_exchange:.3f} s; 100 % is {100 * reduced_share:.2f} % of it")
    assert reduced_share == pytest.approx(corner_share, rel=0.25)
    return reduced_share


def test_fig8_comm_time_64(run_once, scenario_64, scale_params):
    result = run_once(
        run_comm_sweep,
        scenario_64,
        percentages=(0, 20, 40, 60, 80, 100),
        niterations=scale_params["sweep_iterations"],
    )
    assert _check_fig8(result, scenario_64) <= 0.02


def test_fig8_comm_time_400(run_once, scenario_400, scale_params):
    result = run_once(
        run_comm_sweep,
        scenario_400,
        percentages=(0, 100),
        niterations=scale_params["sweep_iterations"],
    )
    # Blocks are a third the size here, so the corners' share (≈2.8 %) is larger.
    _check_fig8(result, scenario_400)

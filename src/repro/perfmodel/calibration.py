"""Calibration of the performance model against the paper's published numbers.

Three groups of reference values are encoded here — the model's calibration
inputs, and nothing else (every paper number a run is checked against lives
in the reproduction ledger, ``benchmarks/test_ledger.py``):

* **Table I** — seconds to score 16,000 blocks of 55×55×38 floats with each
  metric, on 64 and on 400 cores.  Dividing by the per-core number of points
  gives the per-point coefficients used by :class:`repro.metrics.base.MetricCost`.
* **Rendering baseline** (Sections II-C, V-C, V-D) — 160 s on 64 cores and
  50 s on 400 cores to render everything with no redistribution.
* **Redistribution communication** (Section V-C) — about 1.2 s on 64 cores
  and 0.6 s on 400 cores.

:func:`calibrate_render_model` fits the per-triangle coefficient of a
:class:`~repro.perfmodel.render_model.RenderCostModel` so that a reference
workload (the slowest rank's triangle count on *this* repository's synthetic
data) reproduces the paper's baseline seconds — after which every other
experiment re-uses the fitted model and its results emerge from the data.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.base import MetricCost
from repro.perfmodel.render_model import RenderCostModel

#: Paper Table I: metric evaluation seconds for 16,000 blocks of 55x55x38
#: values on 64 and 400 cores.
TABLE1_SECONDS: Dict[str, Dict[int, float]] = {
    "LEA": {64: 2.03, 400: 0.32},
    "FPZIP": {64: 8.85, 400: 1.42},
    "ITL": {64: 13.30, 400: 1.97},
    "RANGE": {64: 7.03, 400: 1.12},
    "VAR": {64: 1.41, 400: 0.23},
    "TRILIN": {64: 14.30, 400: 2.28},
}

#: Block geometry of the paper's runs.
PAPER_BLOCK_SHAPE = (55, 55, 38)
PAPER_NBLOCKS = 16_000

#: The paper's timing baselines the scenarios calibrate to (seconds).
PAPER_BASELINES: Dict[str, Dict[int, float]] = {
    # Rendering everything, no redistribution, no reduction (Fig. 5 "NONE",
    # Fig. 6 "0 percent").
    "render_none": {64: 160.0, 400: 50.0},
    # Redistribution communication time at 0 percent reduced (Section V-C).
    "redistribution_comm": {64: 1.2, 400: 0.6},
}


def paper_points_per_core(ncores: int) -> float:
    """Points each core scores in the Table I experiment."""
    if ncores < 1:
        raise ValueError(f"ncores must be >= 1, got {ncores}")
    bx, by, bz = PAPER_BLOCK_SHAPE
    total_points = PAPER_NBLOCKS * bx * by * bz
    return total_points / ncores


def metric_cost_from_table1(metric_name: str, ncores: int = 64) -> MetricCost:
    """Per-point metric cost derived from Table I.

    The coefficients derived from the 64-core and 400-core columns agree to
    within a few percent (the metric evaluation is embarrassingly parallel),
    which is the consistency check ``tests/perfmodel`` performs.
    """
    name = metric_name.strip().upper()
    if name not in TABLE1_SECONDS:
        raise KeyError(
            f"no Table I entry for metric {metric_name!r}; "
            f"available: {sorted(TABLE1_SECONDS)}"
        )
    if ncores not in TABLE1_SECONDS[name]:
        raise KeyError(f"Table I has no column for {ncores} cores")
    seconds = TABLE1_SECONDS[name][ncores]
    return MetricCost(per_point=seconds / paper_points_per_core(ncores))


def calibrate_render_model(
    max_rank_triangles: int,
    max_rank_points: int,
    max_rank_blocks: int,
    target_seconds: float,
    base_model: RenderCostModel | None = None,
) -> RenderCostModel:
    """Fit ``per_triangle`` so the slowest rank's workload costs ``target_seconds``.

    Parameters
    ----------
    max_rank_triangles, max_rank_points, max_rank_blocks:
        Workload of the slowest rank in the reference scenario (typically:
        no reduction, no redistribution, iteration 0 of the synthetic
        dataset).
    target_seconds:
        The paper's baseline for that scenario (160 s at 64 cores, 50 s at
        400 cores).
    base_model:
        Model providing the non-triangle coefficients; defaults to
        :class:`RenderCostModel`'s defaults.

    Returns
    -------
    RenderCostModel
        A copy of ``base_model`` with the fitted per-triangle coefficient.
    """
    if max_rank_triangles <= 0:
        raise ValueError("the reference workload must contain at least one triangle")
    if target_seconds <= 0:
        raise ValueError(f"target_seconds must be > 0, got {target_seconds}")
    model = base_model or RenderCostModel()
    fixed = (
        model.per_rank_overhead
        + model.per_block * max_rank_blocks
        + model.per_point * max_rank_points
    )
    if fixed >= target_seconds:
        raise ValueError(
            f"fixed costs ({fixed:.3f} s) already exceed the target {target_seconds} s; "
            "reduce the overhead coefficients"
        )
    per_triangle = (target_seconds - fixed) / max_rank_triangles
    return model.with_per_triangle(per_triangle)

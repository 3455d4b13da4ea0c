"""Cost-model-driven scaling sweeps at virtual rank counts the data path
cannot reach.

Running the real pipeline materialises every block's points, so it tops out
around a few hundred virtual ranks before memory and time explode.  The
paper's question — how does one in situ iteration scale on a Blue
Waters-like machine? — does not need the data, only the *work counts*: the
decomposition fixes per-rank points and blocks analytically, and the
platform/network cost models convert counts into modelled seconds.  This
module prices a full pipeline iteration that way, which is what lets a
weak-scaling sweep reach 10,000 virtual ranks in seconds:

* **scoring** — per-rank ``per_point * npoints + per_block * nblocks``
  through :meth:`PlatformModel.scoring_seconds`'s coefficients, vectorised
  over all ranks at once;
* **sorting** — the gather–sort–broadcast scheme of
  :func:`repro.simmpi.sort.parallel_sort_pairs`: one gather of per-rank
  ``(nblocks, 2)`` float64 pair arrays plus one broadcast of the global
  sorted array, priced by :class:`NetworkCostModel`;
* **reduction** — the lowest-scoring ``percent``% of blocks, counted by the
  pipeline's :func:`~repro.core.reduction_step.ladder_counts`, are reduced to
  corner values; block scores are drawn from a seeded synthetic
  distribution (the sweep has no data to score), so the per-rank reduced
  counts are deterministic per config seed;
* **redistribution** — surviving full blocks are dealt round-robin over a
  seeded permutation (the planner's deterministic-deal idiom); the resulting
  ``P × P`` byte matrix is priced by the *vectorised*
  :meth:`NetworkCostModel.alltoallv` — at 10,000 ranks that matrix has 10⁸
  cells, which is exactly the scale the vectorised row/column-sum pricing
  exists for;
* **rendering** — per-rank triangle counts from a seeded active-fraction
  proxy (reduced blocks contribute nothing), accumulated onto the
  post-redistribution owners with ``np.bincount`` and priced with the
  :class:`RenderCostModel` coefficients, vectorised over ranks.

:func:`model_scaling_sweep` prices its points in order, in this process: one
10,000-rank point is most of a sweep's time, so fanning the points out over a
process pool saved little.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cm1.simulation import FIELD_DTYPE
from repro.core.reduction_step import ladder_counts
from repro.grid.decomposition import factorize_ranks, split_axis
from repro.metrics.registry import create_metric
from repro.perfmodel.platform import PlatformModel
from repro.scenarios.scaling import scaling_variants
from repro.scenarios.spec import ScenarioConfig

__all__ = ["model_scaling_point", "model_scaling_sweep"]

#: Bytes per grid point of a full block, as the data path stores and moves it.
_BYTES_PER_POINT = FIELD_DTYPE.itemsize

#: Wire bytes per (block id, score) pair — one float64 row of the ``(n, 2)``
#: arrays :func:`parallel_sort_pairs` actually gathers and broadcasts.
_BYTES_PER_PAIR = 16


def _axis_sizes(npoints: int, nparts: int) -> np.ndarray:
    """Sizes of the ``nparts`` contiguous ranges :func:`split_axis` produces."""
    return np.asarray([hi - lo for lo, hi in split_axis(npoints, nparts)], dtype=np.int64)


def model_scaling_point(
    config: ScenarioConfig,
    metric: str = "VAR",
    percent: float = 50.0,
    active_fraction: float = 0.15,
) -> Dict[str, object]:
    """Price one pipeline iteration of ``config`` analytically.

    Parameters
    ----------
    config:
        The scenario configuration to price (typically one
        :func:`~repro.scenarios.scaling.scaling_variants` entry).
    metric:
        Registered metric name; its calibrated cost coefficients price the
        scoring step.
    percent:
        Fraction of blocks (0–100) reduced to corner values, mirroring the
        pipeline's ``percent_override``.
    active_fraction:
        Fraction of a surviving block's cells assumed to produce isosurface
        triangles (the synthetic stand-in for marching cubes output).

    Returns
    -------
    dict
        Modelled per-step seconds (``"scoring"``, ``"sorting"``,
        ``"reduction"``, ``"redistribution"``, ``"rendering"``), their
        ``"modelled_total"``, and the work counts they were derived from.
    """
    if not (0.0 <= percent <= 100.0):
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    if not (0.0 <= active_fraction <= 1.0):
        raise ValueError(f"active_fraction must be in [0, 1], got {active_fraction}")
    nranks = config.ncores
    platform = PlatformModel.blue_waters(nranks)
    network = platform.network
    score_metric = create_metric(metric)
    cost = platform.metric_cost(score_metric)

    # -- decomposition math (no data): per-rank points and blocks ------------
    # Same layout ExperimentScenario builds: horizontal rank grid, vertical
    # column on one rank.
    px, py = factorize_ranks(nranks, ndims=2)
    nx, ny, nz = config.shape
    bx, by, bz = config.blocks_per_subdomain
    blocks_per_rank = bx * by * bz
    nblocks = blocks_per_rank * nranks
    x_sizes = _axis_sizes(nx, px)
    y_sizes = _axis_sizes(ny, py)
    # (px, py) outer product of subdomain extents, flattened in rank order.
    rank_points = (np.outer(x_sizes, y_sizes) * nz).ravel()
    points_per_block = rank_points / blocks_per_rank  # average; exact totals

    # -- scoring: vectorised PlatformModel.scoring_seconds over all ranks ----
    scoring = float(
        (cost.per_point * rank_points + cost.per_block * blocks_per_rank).max()
    )

    # -- sorting: gather per-rank pair arrays, broadcast the global sort -----
    sorting = network.gather(blocks_per_rank * _BYTES_PER_PAIR, nranks) + network.bcast(
        nblocks * _BYTES_PER_PAIR, nranks
    )

    # -- reduction: lowest-percent blocks by a seeded synthetic score --------
    rng = np.random.default_rng(config.seed)
    scores = rng.random(nblocks)
    # The pipeline's own count (rounded half-up), all to the corner rung.
    ((_, nreduced),) = ladder_counts(nblocks, percent)
    owners = np.arange(nblocks, dtype=np.int64) // blocks_per_rank
    if nreduced:
        reduced_ids = np.argpartition(scores, nreduced - 1)[:nreduced]
    else:
        reduced_ids = np.empty(0, dtype=np.int64)
    reduced_per_rank = np.bincount(owners[reduced_ids], minlength=nranks)
    reduction = platform.reduction_seconds(int(reduced_per_rank.max()))

    # -- redistribution: round-robin deal of surviving blocks ----------------
    survivor_mask = np.ones(nblocks, dtype=bool)
    survivor_mask[reduced_ids] = False
    survivors = np.flatnonzero(survivor_mask)
    # Deterministic deal: shuffle survivors once, deal them round-robin —
    # the planner's idiom, seeded so every backend prices the same plan.
    dealt = rng.permutation(survivors)
    new_owner = np.empty(nblocks, dtype=np.int64)
    new_owner[:] = owners
    new_owner[dealt] = np.arange(dealt.size, dtype=np.int64) % nranks
    moved = dealt[new_owner[dealt] != owners[dealt]]
    if moved.size:
        block_bytes = (points_per_block[owners[moved]] * _BYTES_PER_POINT).astype(
            np.int64
        )
        matrix = np.zeros((nranks, nranks), dtype=np.int64)
        np.add.at(matrix, (owners[moved], new_owner[moved]), block_bytes)
        redistribution = network.alltoallv(matrix, nranks)
        moved_bytes = int(block_bytes.sum())
    else:
        redistribution = 0.0
        moved_bytes = 0

    # -- rendering: triangles on the post-redistribution owners --------------
    # A surviving block yields ~active_fraction of its cells as triangles;
    # reduced blocks yield none (8 corner values carry no surface).
    tri_noise = 0.5 + rng.random(survivors.size)  # [0.5, 1.5) spread
    triangles = points_per_block[owners[survivors]] * active_fraction * tri_noise
    tri_per_rank = np.bincount(
        new_owner[survivors], weights=triangles, minlength=nranks
    )
    blocks_per_rank_final = np.bincount(new_owner, minlength=nranks)
    # Reduced blocks enter the pipeline as their 8 corner values only.
    points_final = np.where(survivor_mask, points_per_block[owners], 8.0)
    points_per_rank_final = np.bincount(new_owner, weights=points_final, minlength=nranks)
    render = platform.render
    rendering = float(
        (
            render.per_rank_overhead
            + render.per_block * blocks_per_rank_final
            + render.per_point * points_per_rank_final
            + render.per_triangle * tri_per_rank
        ).max()
    )

    steps = {
        "scoring": scoring,
        "sorting": float(sorting),
        "reduction": float(reduction),
        "redistribution": float(redistribution),
        "rendering": rendering,
    }
    return {
        "name": config.name,
        "ncores": nranks,
        "shape": list(config.shape),
        "nblocks": nblocks,
        "npoints": int(rank_points.sum()),
        "metric": score_metric.name,
        "percent": float(percent),
        "nreduced": nreduced,
        "moved_blocks": int(moved.size),
        "moved_bytes": moved_bytes,
        "modelled_steps": steps,
        "modelled_total": float(sum(steps.values())),
    }


def model_scaling_sweep(
    name: str,
    ranks: Sequence[int],
    mode: str = "weak",
    metric: str = "VAR",
    percent: float = 50.0,
    nsnapshots: Optional[int] = None,
) -> Dict[str, object]:
    """Price a weak/strong-scaling rank sweep of the registered scenario ``name``.

    Builds one :class:`ScenarioConfig` per entry of ``ranks`` via
    :func:`scaling_variants` and prices each with
    :func:`model_scaling_point`, in ``ranks`` order.

    Returns a dict with the sweep parameters and the per-point records.
    """
    variants = scaling_variants(name, ranks, mode=mode, nsnapshots=nsnapshots)
    return {
        "scenario": name,
        "mode": mode,
        "metric": metric,
        "percent": float(percent),
        "ranks": [int(r) for r in ranks],
        "points": [model_scaling_point(config, metric, percent) for config in variants],
    }

"""The paper's two kinds of run: a fixed-percent sweep and an adaptive run.

Figures 5–9 run the pipeline at fixed reduction percentages and plot modelled
step seconds: the rendering per redistribution policy (Fig. 5), the rendering
per percentage (Figs. 6, 7 and 9) and the redistribution's communication
(Fig. 8).  :func:`fixed_percent_sweep` runs every ``(label, metric,
redistribution)`` at every percentage and returns the whole record as one
array; each figure is a slice of it.

Figures 10 and 11 run Algorithm 1 against target run times, without and with
load redistribution: :func:`adaptive_run`, with the paper's targets in
:data:`PAPER_TARGETS`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.backends import STEP_NAMES
from repro.core.config import AdaptationConfig
from repro.scenarios import ExperimentScenario

#: Target run times (seconds) of the paper's adaptive runs, keyed by
#: ``(redistribution, ncores)``: Figure 10 runs without redistribution,
#: Figure 11 with round-robin redistribution.
PAPER_TARGETS: Dict[Tuple[str, int], Tuple[float, ...]] = {
    ("none", 64): (120.0, 60.0, 20.0),
    ("none", 400): (30.0, 15.0, 7.0),
    ("round_robin", 64): (25.0, 10.0),
    ("round_robin", 400): (7.0, 3.0),
}


def fixed_percent_sweep(
    scenario: ExperimentScenario,
    runs: Sequence[Tuple[str, str, str]],
    percentages: Sequence[float],
    niterations: int,
) -> Tuple[List[str], np.ndarray]:
    """Modelled step seconds of every run at every fixed percentage.

    ``runs`` are ``(label, metric, redistribution)`` triples.  Each
    ``(run, percent)`` gets a fresh pipeline fed the same ``niterations``
    equally spaced snapshots.  Returns the labels, in run order, and a float64
    array indexed ``[run, percent, iteration, step]`` (steps in
    :data:`~repro.core.backends.STEP_NAMES` order) of the slowest rank's
    modelled seconds.
    """
    iteration_blocks = scenario.iteration_blocks(niterations)
    seconds = np.empty(
        (len(runs), len(percentages), len(iteration_blocks), len(STEP_NAMES)), dtype=np.float64
    )
    for r, (_, metric, redistribution) in enumerate(runs):
        for p, percent in enumerate(percentages):
            pipeline = scenario.build_pipeline(metric=metric, redistribution=redistribution)
            for i, blocks in enumerate(iteration_blocks):
                result, _ = pipeline.process_iteration(blocks, percent_override=float(percent))
                seconds[r, p, i] = [result.modelled_steps[step] for step in STEP_NAMES]
    return [label for label, _, _ in runs], seconds


def adaptive_run(
    scenario: ExperimentScenario,
    targets: Sequence[float],
    niterations: int = 30,
    metric: str = "VAR",
    redistribution: str = "none",
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 against each target run time (Figures 10 and 11).

    Each target gets a fresh adaptive pipeline that replays
    ``min(niterations, nsnapshots)`` equally spaced snapshots cyclically for
    ``niterations`` iterations.  Returns two float64 arrays indexed
    ``[target, iteration]``: the modelled full-pipeline seconds and the
    percentage of blocks reduced.
    """
    snapshots = scenario.dataset.select(min(niterations, len(scenario.dataset)))
    seconds = np.empty((len(targets), niterations), dtype=np.float64)
    percents = np.empty_like(seconds)
    for t, target in enumerate(targets):
        pipeline = scenario.build_pipeline(
            metric=metric,
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=float(target)),
        )
        for i in range(niterations):
            blocks = scenario.blocks_for(snapshots[i % len(snapshots)])
            result, _ = pipeline.process_iteration(blocks)
            seconds[t, i] = result.modelled_total
            percents[t, i] = result.percent_reduced
    return seconds, percents


def settling_error(seconds: np.ndarray, target: float, warmup: int = 5) -> float:
    """Mean relative ``|time - target|`` after the warm-up iterations (nan if none)."""
    if len(seconds) <= warmup:
        return float("nan")
    tail = np.asarray(seconds[warmup:], dtype=np.float64)
    return float(np.mean(np.abs(tail - target)) / target)

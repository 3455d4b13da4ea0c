"""Which classes run the five Figure-2 steps: the reference ones or the batched ones.

A backend name selects one thing — ``"serial"`` builds the per-block reference
classes (the oracle every parity sweep compares against), every other name the
batched classes over the columnar state.  Whether a batched kernel runs inline
or over the process pool is not a backend: the code decides it per kernel
(:func:`repro.utils.procpool.pool_pays`).  There is no registration API; a
further execution strategy is a map strategy over the same columnar state, not
five more step classes.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.redistribution import RedistributionStep, make_strategy
from repro.core.reduction_step import ReductionStep, VectorizedReductionStep
from repro.core.rendering_step import RenderingStep, VectorizedRenderingStep
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import PipelineStep
from repro.metrics.registry import create_metric

__all__ = ["ENGINE_BACKENDS", "STEP_NAMES", "build_steps", "engine_backends"]

#: The ordered step sequence of the paper's Figure 2 (the sixth step,
#: adaptation, is the controller that *consumes* these results).
STEP_NAMES = ("scoring", "sorting", "reduction", "redistribution", "rendering")

#: ``"parallel"`` and ``"process"`` are plain aliases of ``"vectorized"``: the
#: tracked benchmark declares ``core.*.{parallel,process}_ms`` and loops over
#: this tuple.  They go when ROADMAP item 1 (``[benchmark]``) retires those names.
ENGINE_BACKENDS = ("serial", "vectorized", "parallel", "process")


def engine_backends() -> Tuple[str, ...]:
    """Names ``PipelineConfig.engine``, ``--backend`` and ``/run`` accept."""
    return ENGINE_BACKENDS


def build_steps(config, platform, comm) -> List[PipelineStep]:
    """The five steps of ``config.engine`` in :data:`STEP_NAMES` order, the
    collective ones bound to ``comm`` (the redistribution planner is one class)."""
    reference = config.engine == "serial"
    rendering = RenderingStep if reference else VectorizedRenderingStep
    metric = create_metric(config.metric)
    strategy = make_strategy(config.redistribution, seed=config.shuffle_seed)
    return [
        (ScoringStep if reference else VectorizedScoringStep)(metric, platform),
        (SortingStep if reference else VectorizedSortingStep)(comm),
        (ReductionStep if reference else VectorizedReductionStep)(
            platform, quality_ladder=config.quality_ladder
        ),
        RedistributionStep(strategy, comm),
        rendering(
            platform,
            isosurface_level=config.isosurface_level,
            render_mode=config.render_mode,
        ),
    ]

"""The performance-constrained in situ visualization pipeline (the paper's contribution).

The pipeline consists of the six steps of the paper's Figure 2, applied to the
blocks of every simulation iteration:

1. **Score** blocks with a generic or user-provided metric
   (:mod:`repro.core.scoring_step`);
2. **Sort** the ``<id, score>`` pairs globally and broadcast the sorted list
   (:mod:`repro.core.sorting_step`);
3. **Reduce** the ``p``% lowest-scored blocks to their 8 corners
   (:mod:`repro.core.reduction_step`);
4. **Redistribute** blocks across processes for load balance
   (:mod:`repro.core.redistribution`);
5. **Render** the blocks through the 45 dBZ isosurface script
   (:mod:`repro.core.rendering_step`);
6. **Adapt** ``p`` from the measured run time and the target
   (:mod:`repro.core.adaptation`, Algorithm 1).

Each of the five data steps implements the :class:`PipelineStep` contract
(:mod:`repro.core.step`): ``execute(context) -> StepReport`` is a step's one
method.  The :class:`ExecutionEngine` (:mod:`repro.core.engine`) builds either
the per-block reference classes (``PipelineConfig.engine = "serial"``, the
oracle) or the batched ones (``"vectorized"``, the default;
:mod:`repro.core.backends`) — the batched scoring step takes the process pool
by itself for metrics that declare they hold the GIL — and condenses each
iteration's step reports into one :class:`IterationResult`.
:class:`InSituPipeline` layers the adaptation controller on top and records
the run once, as the list of those results (``pipeline.iterations``; its
``run`` returns them as a :class:`PipelineRunResult`): per-step measured
wall-clock and modelled platform seconds, payload bytes and counters, all read
off the step reports.
"""

from repro.core.config import PipelineConfig, AdaptationConfig
from repro.core.adaptation import adapt_percent, AdaptationController
from repro.core.backends import ENGINE_BACKENDS, STEP_NAMES, engine_backends
from repro.core.step import IterationContext, PipelineStep, StepReport
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.reduction_step import (
    ReductionStep,
    VectorizedReductionStep,
    ladder_counts,
)
from repro.core.redistribution import (
    RedistributionStrategy,
    RedistributionStep,
    NoRedistribution,
    RandomShuffle,
    RoundRobin,
    make_strategy,
)
from repro.core.rendering_step import RenderingStep, VectorizedRenderingStep
from repro.core.engine import ExecutionEngine
from repro.core.results import IterationResult, PipelineRunResult
from repro.core.pipeline import InSituPipeline


__all__ = [
    "PipelineConfig",
    "AdaptationConfig",
    "adapt_percent",
    "AdaptationController",
    "IterationContext",
    "PipelineStep",
    "StepReport",
    "ScoringStep",
    "VectorizedScoringStep",
    "SortingStep",
    "VectorizedSortingStep",
    "ReductionStep",
    "VectorizedReductionStep",
    "ladder_counts",
    "STEP_NAMES",
    "engine_backends",
    "RedistributionStrategy",
    "RedistributionStep",
    "NoRedistribution",
    "RandomShuffle",
    "RoundRobin",
    "make_strategy",
    "RenderingStep",
    "VectorizedRenderingStep",
    "ENGINE_BACKENDS",
    "ExecutionEngine",
    "IterationResult",
    "PipelineRunResult",
    "InSituPipeline",
]

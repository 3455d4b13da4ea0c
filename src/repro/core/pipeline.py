"""The orchestrating in situ pipeline.

:class:`InSituPipeline` wires the six steps of the paper's Figure 2 together
over a set of virtual ranks: score → sort → reduce → redistribute → render →
adapt.  It takes per-rank block lists as input (one call per simulation
iteration; pre-stacked by the decomposition as one
:class:`~repro.grid.batch.DecomposedField`, or plain lists), which is how the
simulation — or the dataset replayer standing in for it — hands data to the
in situ layer.

The five data steps live in the one :class:`~repro.core.engine.ExecutionEngine`
(``PipelineConfig.engine`` picks the reference or the batched step classes,
``pipeline.engine.steps`` holds them) and share the engine's one
communicator, exposed here as ``pipeline.comm``; the pipeline adds the
adaptation controller on top and records the run once, as the list of its
:class:`~repro.core.results.IterationResult` records (``pipeline.iterations``).
Iterations run strictly one after the other — the controller needs iteration
``t``'s time before it can pick iteration ``t + 1``'s percentage.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.adaptation import AdaptationController
from repro.core.config import PipelineConfig
from repro.core.engine import ExecutionEngine
from repro.core.results import IterationResult, PipelineRunResult
from repro.grid.batch import DecomposedField
from repro.grid.block import Block
from repro.perfmodel.platform import PlatformModel
from repro.viz.catalyst import RenderResult


class InSituPipeline:
    """Performance-constrained in situ visualization pipeline.

    Parameters
    ----------
    config:
        Pipeline configuration (metric, redistribution strategy, adaptation
        target, engine backend, ...).
    platform:
        Cost model of the platform the run is meant to represent (64- or
        400-core Blue Waters by default); pass a re-calibrated platform to
        anchor the baselines to the paper's numbers.
    nranks:
        Number of virtual ranks; defaults to ``platform.ncores``.
    """

    def __init__(
        self,
        config: PipelineConfig,
        platform: PlatformModel,
        nranks: Optional[int] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.engine = ExecutionEngine(config, platform, nranks=nranks)
        self.nranks = self.engine.nranks
        #: The one communicator every step charges its collectives to.
        self.comm = self.engine.comm
        self.controller = AdaptationController(config.adaptation)
        #: Every iteration processed so far, in order: the run's one record.
        self.iterations: List[IterationResult] = []

    # -- main entry point ---------------------------------------------------------

    def process_iteration(
        self,
        per_rank_blocks: Union[DecomposedField, Sequence[Sequence[Block]]],
        percent_override: Optional[float] = None,
    ) -> Tuple[IterationResult, List[RenderResult]]:
        """Run the full pipeline on one iteration's blocks.

        Parameters
        ----------
        per_rank_blocks:
            ``per_rank_blocks[r]`` is the list of blocks rank ``r`` received
            from the simulation for this iteration; a
            :class:`~repro.grid.batch.DecomposedField` is that, pre-stacked.
        percent_override:
            Fixed percentage of blocks to reduce, bypassing the adaptation
            controller (used by the fixed-percentage experiments).

        Returns
        -------
        (iteration_result, render_results)
            The timing record of the iteration and the per-rank render
            results of the final rendering step.
        """
        percent = (
            float(percent_override)
            if percent_override is not None
            else float(self.controller.next_percent)
        )
        context = self.engine.run_iteration(
            per_rank_blocks, percent, len(self.iterations)
        )
        result = self.engine.iteration_result(context)
        self.iterations.append(result)
        # Step 6 of Figure 2: unless the percentage was forced, the
        # controller observes the full-pipeline time, in modelled seconds.
        if percent_override is None:
            self.controller.observe(percent, result.modelled_total)
        return result, list(context.render_results or [])

    # -- convenience -----------------------------------------------------------------

    def run(
        self,
        iteration_blocks: Iterable[Union[DecomposedField, Sequence[Sequence[Block]]]],
        percent_override: Optional[float] = None,
        on_iteration: Optional[Callable[[IterationResult], None]] = None,
    ) -> PipelineRunResult:
        """Process several iterations and return the aggregated run result.

        ``iteration_blocks`` yields each iteration's ``process_iteration``
        input as the run advances (a generator decomposes snapshot ``i + 1``
        after iteration ``i`` was reported).  ``on_iteration`` is called with each
        :class:`IterationResult` as soon as it is recorded, in iteration
        order — the hook the serve mode's streaming responses use.

        An exception raised by the callback (the serve tier's deadline and
        disconnect checks) or by a step propagates unchanged and ends the
        run between iterations: ``pipeline.iterations`` keeps the iterations
        completed so far and a following call continues at the next iteration
        index.  The returned run holds every iteration recorded so far.
        """
        for per_rank_blocks in iteration_blocks:
            result, _ = self.process_iteration(
                per_rank_blocks, percent_override=percent_override
            )
            if on_iteration is not None:
                on_iteration(result)
        return PipelineRunResult(self.config_summary(), list(self.iterations))

    def config_summary(self) -> Dict[str, object]:
        """Compact description of the run configuration (for reports)."""
        return {
            "metric": self.config.metric,
            "redistribution": self.config.redistribution,
            "engine": self.engine.backend,
            "nranks": self.nranks,
            "platform": self.platform.name,
            "isosurface_level": self.config.isosurface_level,
            "adaptation_enabled": self.config.adaptation.enabled,
            "target_seconds": self.config.adaptation.target_seconds,
        }

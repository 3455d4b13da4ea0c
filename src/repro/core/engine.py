"""The execution engine: the five Figure-2 steps in order, on one communicator.

There is one engine and it owns one communicator.  It is built from the
:class:`~repro.core.config.PipelineConfig` alone — backend name, metric and
strategy are read from the config, which validated them once — and runs the
five concrete steps of the paper's Figure 2 strictly in order — score, sort,
reduce, redistribute, render — as a uniform :class:`PipelineStep` sequence
over one :class:`IterationContext` at a time, then condenses the context's
step reports into one :class:`~repro.core.results.IterationResult`.
Iterations never overlap: Algorithm 1 picks iteration ``t + 1``'s percentage
from iteration ``t``'s time, so the paper's pipeline is sequential across
iterations by construction.  Every step that communicates is bound to
``engine.comm``, so ``engine.comm.stats`` is the complete record of what a
run charged to the network.

The backend name chooses between two sets of step classes
(:func:`repro.core.backends.build_steps`); the context is the same for both:
one columnar state (:class:`~repro.grid.batch.BlockColumns`, see
:mod:`repro.core.step`), the score pairs and the sorted order as wire arrays.
``"serial"`` runs the reference classes, which read per-rank ``Block`` lists
off the columns (``to_ranks``), work one block at a time and write the
columns back from their lists; they never stack a payload.  Every other name
(``"vectorized"``, the default, and its aliases) runs the batched classes on
the columns as they are — the decomposition's pre-stacked
:class:`~repro.grid.batch.DecomposedField` taken over as it arrives, or
stacked from ``Block`` lists by the first kernel that asks: one
``score_batch`` / ``reduce_to_level_batch`` / ``count_active_cells_batch``
call per group (the coder-size and cell-count kernels work through a group in
cache-sized row chunks) — and builds no ``Block`` unless mesh-mode rendering
or a caller asks ``context.columns.to_ranks()``.  The redistribution planner
is one class on every backend and plans on the metadata columns alone.
Whether the scoring kernel runs inline or over the process pool is decided
per metric by :func:`repro.utils.procpool.pool_pays`, not by the name; either
way the kernel is ``metric.score_batch``, the metric's one batched entry
point.

All backends produce bitwise-identical decisions and modelled results (ids,
scores, sort orders, reduction decisions, moved bytes, active-cell and
triangle counts, modelled seconds); measured wall-clock is the one quantity
that legitimately differs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.backends import build_steps
from repro.core.config import PipelineConfig
from repro.core.results import IterationResult
from repro.core.step import IterationContext, PipelineStep
from repro.grid.batch import DecomposedField
from repro.grid.block import Block
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Runs the pipeline's step sequence over a set of virtual ranks.

    Parameters
    ----------
    config:
        Pipeline configuration (metric, redistribution strategy, engine
        backend, ...).
    platform:
        Cost model converting work counts into modelled platform seconds.
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
        self.backend = config.engine
        self.nranks = int(nranks) if nranks is not None else int(platform.ncores)
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        #: The one communicator every step is bound to.
        self.comm = BSPCommunicator(self.nranks, cost_model=platform.network)
        #: The ordered step sequence of the paper's Figure 2 (the sixth step,
        #: adaptation, is the controller that *consumes* these results), the
        #: collective steps bound to ``self.comm``.
        self.steps: List[PipelineStep] = build_steps(config, platform, self.comm)
        (
            self.scoring,
            self.sorting,
            self.reduction,
            self.redistribution,
            self.rendering,
        ) = self.steps

    # -- execution ----------------------------------------------------------------

    def run_iteration(
        self,
        per_rank_blocks: Union[DecomposedField, Sequence[Sequence[Block]]],
        percent: float,
        iteration: int,
    ) -> IterationContext:
        """Validate one iteration's input, run every step on it in order and
        return the completed context (the input is only read)."""
        if len(per_rank_blocks) != self.nranks:
            raise ValueError(
                f"expected blocks for {self.nranks} ranks, got {len(per_rank_blocks)}"
            )
        if not (0.0 <= percent <= 100.0):
            raise ValueError(f"percent must be in [0, 100], got {percent}")
        context = IterationContext(
            iteration=int(iteration),
            percent=float(percent),
            per_rank_blocks=per_rank_blocks,
        )
        for step in self.steps:
            context.reports[step.name] = step.execute(context)
        return context

    def iteration_result(self, context: IterationContext) -> IterationResult:
        """Condense a completed context into an :class:`IterationResult` (an
        iteration conserves its blocks, so the count is read off the context)."""
        return IterationResult(
            iteration=context.iteration,
            percent_reduced=context.percent,
            nblocks=len(context.columns),
            step_reports=dict(context.reports),
        )

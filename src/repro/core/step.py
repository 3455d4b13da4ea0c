"""The composable step contract of the pipeline.

Every stage of the paper's Figure 2 (score, sort, reduce, redistribute,
render) is a :class:`PipelineStep`: an object with a ``name`` and an
``execute`` method that advances one :class:`IterationContext` and returns a
:class:`StepReport` — its only method, so a step's body writes the context and
builds its report directly, and the report is the one record of what the step
did.  The :class:`~repro.core.engine.ExecutionEngine` runs an ordered list of
steps and condenses an iteration's reports into one
:class:`~repro.core.results.IterationResult`.  Because the contract is
uniform, steps can be swapped (serial vs. vectorised scoring) or extended
without touching the orchestration code.  The sequence is a linear chain —
each step consumes context state the previous one wrote — and the engine runs
it in list order, one iteration at a time; there is no separate dependency
table to keep in step with the code.  What the batched steps share beyond the
contract is written once here (:func:`share_elapsed`).

The context holds each quantity of the iteration in one form: the blocks as
the columnar state (:class:`~repro.grid.batch.BlockColumns`, built once when
the context is), the score pairs as per-rank ``(n_r, 2)`` float64 wire
arrays, and the sorted order as the broadcast ``(N, 2)`` wire array.  The
batched steps read and write those directly.  A reference step that works on
``Block`` lists converts at its own boundary: it reads
``context.columns.to_ranks()`` and writes back ``context.columns =
BlockColumns(lists)``.  A default engine therefore never builds a ``Block``,
and a pipeline mixing both kinds of step converts at the hand-offs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.grid.batch import BlockColumns, DecomposedField

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.block import Block
    from repro.viz.catalyst import RenderResult


@dataclass
class StepReport:
    """Unified outcome record of one pipeline step on one iteration.

    Attributes
    ----------
    step:
        Step name ("scoring", "sorting", ...).
    measured_per_rank:
        Python wall-clock seconds per rank.  Collective steps (sorting,
        redistribution), whose cost is charged to every rank at once, report
        a single entry.
    modelled_per_rank:
        Modelled platform seconds per rank, same convention.
    payload_bytes:
        Bytes the step moved over the (simulated) network.
    counters:
        Scalar step-specific counters (blocks scored, blocks reduced,
        triangles produced, ...).
    per_rank_counters:
        Per-rank step-specific series (e.g. triangle counts used by the
        load-imbalance analyses).
    """

    step: str
    measured_per_rank: List[float] = field(default_factory=list)
    modelled_per_rank: List[float] = field(default_factory=list)
    payload_bytes: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    per_rank_counters: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def modelled_max(self) -> float:
        """Slowest rank's modelled seconds (0.0 for an empty report).

        Every step of the pipeline ends at a collective, so the slowest rank
        determines the step's contribution to the iteration time.
        """
        return max(self.modelled_per_rank) if self.modelled_per_rank else 0.0

    @classmethod
    def collective(
        cls,
        step: str,
        measured: float,
        modelled: float,
        payload_bytes: float = 0.0,
        counters: Optional[Dict[str, float]] = None,
    ) -> "StepReport":
        """Report of a collective step whose cost applies to all ranks."""
        return cls(
            step=step,
            measured_per_rank=[float(measured)],
            modelled_per_rank=[float(modelled)],
            payload_bytes=float(payload_bytes),
            counters=dict(counters or {}),
        )


def share_elapsed(elapsed: float, weights: Sequence[float]) -> List[float]:
    """One cross-rank pass's wall-clock, attributed to the ranks in proportion
    to ``weights`` (their share of the pass's work; all zero when there is none)."""
    total = sum(weights)
    return [elapsed * (weight / total) if total else 0.0 for weight in weights]


class IterationContext:
    """Mutable state threaded through the steps of one iteration.

    Each quantity has one form.  ``columns`` holds the blocks; the scoring
    step writes the scores into it and ``pair_arrays`` beside it, sorting
    fills ``sorted_array``, reduction and redistribution rewrite the columns,
    rendering fills ``render_results``.  ``reports`` accumulates every step's
    :class:`StepReport` keyed by step name, in execution order.

    Attributes
    ----------
    columns:
        The blocks as :class:`~repro.grid.batch.BlockColumns`, built once from
        the ``per_rank_blocks`` argument: an arrival
        (:class:`~repro.grid.batch.DecomposedField`) is taken over without
        building a ``Block``, lists are flattened into the state's templates
        (the caller's lists are never mutated).
    pair_arrays:
        Per rank, the ``(n_r, 2)`` float64 ``(id, score)`` wire array the sort
        gathers, once scoring ran.
    sorted_array:
        The broadcast ``(N, 2)`` float64 wire array in ascending
        ``(score, id)`` order, once sorting ran.
    """

    def __init__(
        self,
        iteration: int,
        percent: float,
        nranks: int,
        per_rank_blocks: Union[DecomposedField, Sequence[Sequence["Block"]]],
        pair_arrays: Optional[List[np.ndarray]] = None,
        sorted_array: Optional[np.ndarray] = None,
    ) -> None:
        self.iteration = iteration
        self.percent = percent
        self.nranks = nranks
        self.columns = BlockColumns(per_rank_blocks)
        self.pair_arrays = pair_arrays
        self.sorted_array = sorted_array
        self.render_results: Optional[List["RenderResult"]] = None
        self.reports: Dict[str, StepReport] = {}

    def require_pairs(self) -> List[np.ndarray]:
        """The per-rank pair arrays, raising if scoring has not run yet."""
        if self.pair_arrays is None:
            raise RuntimeError("scoring step must run before this step")
        return self.pair_arrays

    def require_sorted_array(self) -> np.ndarray:
        """The sorted ``(N, 2)`` wire array, raising if sorting has not run yet."""
        if self.sorted_array is None:
            raise RuntimeError("sorting step must run before this step")
        return self.sorted_array


@runtime_checkable
class PipelineStep(Protocol):
    """Contract every pipeline step implements.

    A step reads what it needs from the :class:`IterationContext`, mutates it
    (new block lists, pairs, render results, ...), and returns a
    :class:`StepReport` describing the work it did and what it cost.
    """

    name: str

    def execute(self, context: IterationContext) -> StepReport:
        """Advance ``context`` by one step and report the outcome."""
        ...

"""The composable step contract of the pipeline.

Every stage of the paper's Figure 2 (score, sort, reduce, redistribute,
render) is a :class:`PipelineStep`: an object with a ``name`` and an
``execute`` method that advances one :class:`IterationContext` and returns a
:class:`StepReport`.  The :class:`~repro.core.engine.ExecutionEngine` runs an
ordered list of steps; :class:`~repro.core.monitor.PerformanceMonitor`
consumes the reports.  Because the contract is uniform, steps can be swapped
(serial vs. vectorised scoring) or extended without touching the
orchestration code.  What the batched steps share beyond the contract — the
cross-rank flatten, the attribution of one pass's wall-clock to ranks, the
``info`` dict of ``run`` and its conversion to a report — is written once
here (:func:`flatten_ranks`, :func:`share_elapsed`, :func:`step_info`,
:meth:`StepReport.per_rank`).  The sequence is a linear chain — each step
consumes context state the previous one wrote (see :class:`IterationContext`)
— and the engine runs it in list order, one iteration at a time; there is no
separate dependency table to keep in step with the code.
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
    Set,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.block import Block
    from repro.viz.catalyst import RenderResult

ScorePair = Tuple[int, float]


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
    def measured_max(self) -> float:
        """Slowest rank's measured seconds (0.0 for an empty report)."""
        return max(self.measured_per_rank) if self.measured_per_rank else 0.0

    @property
    def modelled_max(self) -> float:
        """Slowest rank's modelled seconds (0.0 for an empty report).

        Every step of the pipeline ends at a collective, so the slowest rank
        determines the step's contribution to the iteration time.
        """
        return max(self.modelled_per_rank) if self.modelled_per_rank else 0.0

    @classmethod
    def per_rank(
        cls,
        step: str,
        info: Dict[str, object],
        counters: Dict[str, float],
        per_rank_counters: Optional[Dict[str, Sequence[float]]] = None,
    ) -> "StepReport":
        """Report of a per-rank step from its ``run``'s :func:`step_info`."""
        return cls(
            step=step,
            measured_per_rank=list(info["measured_per_rank"]),
            modelled_per_rank=list(info["modelled_per_rank"]),
            counters={name: float(value) for name, value in counters.items()},
            per_rank_counters={
                name: [float(value) for value in series]
                for name, series in (per_rank_counters or {}).items()
            },
        )

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


def step_info(
    measured: List[float], modelled: List[float], **extra: object
) -> Dict[str, object]:
    """The ``info`` dict a per-rank step's ``run`` returns: the per-rank
    measured/modelled seconds, their maxima, and the step's own ``extra``."""
    return {
        "measured_per_rank": measured,
        "modelled_per_rank": modelled,
        "measured_max": max(measured) if measured else 0.0,
        "modelled_max": max(modelled) if modelled else 0.0,
        **extra,
    }


def flatten_ranks(
    per_rank_blocks: Sequence[Sequence["Block"]],
) -> Tuple[List["Block"], List[Tuple[int, int]]]:
    """All ranks' blocks as one list, plus each rank's ``(lo, hi)`` slice of it
    (the batched steps work across ranks and cut the result back per rank)."""
    all_blocks: List["Block"] = []
    rank_slices: List[Tuple[int, int]] = []
    for blocks in per_rank_blocks:
        rank_slices.append((len(all_blocks), len(all_blocks) + len(blocks)))
        all_blocks.extend(blocks)
    return all_blocks, rank_slices


def share_elapsed(elapsed: float, weights: Sequence[float]) -> List[float]:
    """One cross-rank pass's wall-clock, attributed to the ranks in proportion
    to ``weights`` (their share of the pass's work; all zero when there is none)."""
    total = sum(weights)
    return [elapsed * (weight / total) if total else 0.0 for weight in weights]


@dataclass
class IterationContext:
    """Mutable state threaded through the steps of one iteration.

    The scoring step fills ``per_rank_pairs`` and attaches scores to
    ``per_rank_blocks``; sorting fills ``sorted_pairs``; reduction and
    redistribution rewrite ``per_rank_blocks``; rendering fills
    ``render_results``.  ``reports`` accumulates every step's
    :class:`StepReport` keyed by step name, in execution order.
    """

    iteration: int
    percent: float
    nranks: int
    per_rank_blocks: List[List["Block"]]
    per_rank_pairs: Optional[List[List[ScorePair]]] = None
    sorted_pairs: Optional[List[ScorePair]] = None
    reduced_ids: Optional[Set[int]] = None
    #: Target ladder level per reduced block id (the reduction step's quality
    #: ladder decision; ``set(reduction_levels) == reduced_ids``).
    reduction_levels: Optional[Dict[int, int]] = None
    render_results: Optional[List["RenderResult"]] = None
    reports: Dict[str, StepReport] = field(default_factory=dict)

    @property
    def nblocks(self) -> int:
        """Total number of blocks currently held across all ranks."""
        return sum(len(blocks) for blocks in self.per_rank_blocks)

    def require_pairs(self) -> List[List[ScorePair]]:
        """Score pairs, raising if the scoring step has not run yet."""
        if self.per_rank_pairs is None:
            raise RuntimeError("scoring step must run before this step")
        return self.per_rank_pairs

    def require_sorted(self) -> List[ScorePair]:
        """Sorted pairs, raising if the sorting step has not run yet."""
        if self.sorted_pairs is None:
            raise RuntimeError("sorting step must run before this step")
        return self.sorted_pairs


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

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

The context carries the iteration's blocks in one of two forms, exactly one of
them authoritative at a time: the per-rank lists of
:class:`~repro.grid.block.Block` objects that the reference steps (and any
list-based third-party step) read and assign as ``context.per_rank_blocks``,
and the columnar state (:class:`~repro.grid.batch.BlockColumns`) that the
batched steps read and write as ``context.columns``.  Each is built from the
other on first access, so a ``serial`` engine never stacks a payload, a
default engine never builds a ``Block``, and a pipeline mixing both kinds of
step converts at the hand-offs.  An iteration that arrives pre-stacked
(:class:`~repro.grid.batch.DecomposedField`) starts on the columns, one that
arrives as lists on the lists.  The score pairs and the sorted order stay the
arrays the batched steps pass on; their tuples are built only when a
list-based caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.grid.batch import BlockColumns, DecomposedField
from repro.simmpi.sort import pairs_from_wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.block import Block
    from repro.viz.catalyst import RenderResult

ScorePair = Tuple[int, float]
#: A sorted order as the sort hands it on: tuples, or the ``(N, 2)`` wire array.
SortedOrder = Union[Sequence[ScorePair], np.ndarray]


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


class _ListView:
    """An :class:`IterationContext` attribute in list form: built on first read
    from the arrays a batched step stored under ``arrays``; assigning it makes
    the list form authoritative and drops the arrays."""

    def __init__(self, arrays: str, build: Callable) -> None:
        self.arrays, self.build = arrays, build

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, context, owner=None):
        if context is None:
            return self
        value, arrays = getattr(context, self.slot), getattr(context, self.arrays)
        if value is None and arrays is not None:
            value = self.build(arrays)
            setattr(context, self.slot, value)
        return value

    def __set__(self, context, value) -> None:
        setattr(context, self.slot, value)
        setattr(context, self.arrays, None)


class IterationContext:
    """Mutable state threaded through the steps of one iteration.

    The scoring step fills the score pairs and attaches scores to the blocks;
    sorting fills ``sorted_pairs``; reduction and redistribution rewrite the
    blocks; rendering fills ``render_results``.  ``reports`` accumulates every
    step's :class:`StepReport` keyed by step name, in execution order.

    The blocks are reachable as ``per_rank_blocks`` (lists of ``Block``) and
    as ``columns`` (:class:`~repro.grid.batch.BlockColumns`).  Reading one
    view builds it from the other, once, and makes it the authoritative one;
    assigning ``per_rank_blocks`` discards the columns.  A ``DecomposedField``
    passed as ``per_rank_blocks`` becomes the columns; its blocks stay unbuilt.
    The two list views below work the same way over the ``set_*`` arrays.
    """

    #: Per-rank ``(block_id, score)`` tuples.
    per_rank_pairs = _ListView(
        "_pair_arrays", lambda arrays: [pairs_from_wire(wire) for wire in arrays]
    )
    #: The global ascending ``(score, id)`` order as ``(block_id, score)`` tuples.
    sorted_pairs = _ListView("_sorted_array", pairs_from_wire)

    def __init__(
        self,
        iteration: int,
        percent: float,
        nranks: int,
        per_rank_blocks: Union[DecomposedField, List[List["Block"]]],
        per_rank_pairs: Optional[List[List[ScorePair]]] = None,
        sorted_pairs: Optional[List[ScorePair]] = None,
    ) -> None:
        self.iteration = iteration
        self.percent = percent
        self.nranks = nranks
        self._blocks: Optional[List[List["Block"]]] = per_rank_blocks
        self._columns: Optional[BlockColumns] = None
        if isinstance(per_rank_blocks, DecomposedField):
            self._columns, self._blocks = BlockColumns(per_rank_blocks), None
        self.per_rank_pairs = per_rank_pairs
        self.sorted_pairs = sorted_pairs
        self.render_results: Optional[List["RenderResult"]] = None
        self.reports: Dict[str, StepReport] = {}

    @property
    def per_rank_blocks(self) -> List[List["Block"]]:
        """Per-rank ``Block`` lists (materialised from the columns when those
        are authoritative: at most one clone per block)."""
        if self._blocks is None:
            self._blocks, self._columns = self._columns.to_ranks(), None
        return self._blocks

    @per_rank_blocks.setter
    def per_rank_blocks(self, per_rank_blocks: List[List["Block"]]) -> None:
        self._blocks, self._columns = per_rank_blocks, None

    @property
    def columns(self) -> BlockColumns:
        """The columnar state (built from the lists when those are authoritative)."""
        if self._columns is None:
            self._columns, self._blocks = BlockColumns(self._blocks), None
        return self._columns

    @property
    def nblocks(self) -> int:
        """Total number of blocks currently held across all ranks."""
        if self._columns is not None:
            return len(self._columns)
        return sum(len(blocks) for blocks in self._blocks)

    def set_pair_arrays(self, arrays: List[np.ndarray]) -> None:
        """Record the score pairs in wire form: one ``(n_r, 2)`` float64
        ``(id, score)`` array per rank, what the sort gathers."""
        self._per_rank_pairs, self._pair_arrays = None, arrays

    def set_sorted_array(self, wire: np.ndarray) -> None:
        """Record the sorted order as the broadcast ``(N, 2)`` wire array."""
        self._sorted_pairs, self._sorted_array = None, wire

    def pairs_for_sort(self) -> Sequence[Sequence[ScorePair]]:
        """The score pairs as they are at hand — wire arrays or tuples, the
        sort functions take either — raising if scoring has not run yet."""
        return self._pair_arrays if self._pair_arrays is not None else self.require_pairs()

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

    def require_sorted_array(self) -> np.ndarray:
        """The sorted order as the ``(N, 2)`` wire array (built once from the
        tuples when a list-based sort ran), raising if sorting has not run."""
        if self._sorted_array is None:
            wire = np.asarray(self.require_sorted(), dtype=np.float64)
            self._sorted_array = wire.reshape(-1, 2)
        return self._sorted_array


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

"""Step 2: globally sorting the <block id, score> pairs.

As in the paper, the pairs are sorted by increasing score (ties broken by
block id) and the sorted list is broadcast back to every process, so each
process knows the scores of all blocks — including those belonging to other
processes — and can take identical reduction/redistribution decisions without
further communication.

Two implementations of the contract are provided — one ``execute(context)``
body, the second class replacing only the root's sort (``"serial"`` builds
the first, every other backend name the second):

* :class:`SortingStep` — the reference gather–sort–broadcast over Python
  tuples (:func:`~repro.simmpi.sort.parallel_sort_pairs`);
* :class:`VectorizedSortingStep` — the same collective with the root's sort
  done by ``np.lexsort`` over the gathered ``(score, id)`` arrays
  (:func:`~repro.simmpi.sort.parallel_sort_pairs_numpy`); after a batched
  scoring step it gathers the ``(n_r, 2)`` wire arrays as they are, and the
  broadcast ``(N, 2)`` sorted array stays on the context for the ladder and
  the strategies: no tuple is built unless a caller reads
  ``context.sorted_pairs``.  The communication payloads are identical byte
  for byte, so the report's modelled seconds and ``payload_bytes`` are
  unchanged, and the sorted order is bitwise equal.  Every batched backend
  uses this implementation: the sort is a rooted collective, so there is no
  per-rank work to fan out over a pool.

Whatever the implementation, the step verifies that every rank holds the
identical sorted order after the broadcast — tuples compared with ``==``,
wire arrays with ``np.array_equal`` — since downstream reduction and
redistribution decisions silently diverge otherwise, so a future sort
backend that breaks the invariant fails loudly here instead.
"""

from __future__ import annotations

import operator
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.step import IterationContext, SortedOrder, StepReport
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.sort import parallel_sort_pairs, parallel_sort_pairs_numpy
from repro.utils.timer import Timer

ScorePair = Tuple[int, float]


class SortingStep:
    """Gather-sort-broadcast of the score pairs over the communicator."""

    name = "sorting"

    def __init__(self, comm: BSPCommunicator) -> None:
        self.comm = comm

    def _sort(
        self, per_rank_pairs: Sequence[Sequence[ScorePair]]
    ) -> List[SortedOrder]:
        """Per-rank sorted orders (the backend hook)."""
        return parallel_sort_pairs(self.comm, per_rank_pairs)

    @staticmethod
    def _require_rank_agreement(per_rank_sorted: Sequence[SortedOrder]) -> SortedOrder:
        """The (verified) common sorted order every rank holds.

        The whole downstream pipeline rests on every rank taking identical
        reduction/redistribution decisions from *its own* copy of the sorted
        order; a sort backend that hands different ranks different orders
        would corrupt results silently, so the comparison is complete — every
        rank, every pair.  Backends that share one broadcast buffer (the NumPy
        path) pass by identity in O(nranks); distinct per-rank copies pay one
        full comparison per rank (``np.array_equal`` for wire arrays), a cost
        that belongs to materialising per-rank copies in the first place.
        """
        reference = per_rank_sorted[0]
        for rank, pairs in enumerate(per_rank_sorted):
            equal = np.array_equal if isinstance(pairs, np.ndarray) else operator.eq
            if pairs is reference or equal(pairs, reference):
                continue
            if len(pairs) != len(reference):
                raise RuntimeError(
                    f"sorting backend produced diverging per-rank lists: rank "
                    f"{rank} holds {len(pairs)} pairs, rank 0 holds "
                    f"{len(reference)}"
                )
            differs = (np.asarray(pairs) != np.asarray(reference)).any(axis=1)
            position = int(np.argmax(differs))
            raise RuntimeError(
                f"sorting backend produced diverging per-rank lists: rank "
                f"{rank} disagrees with rank 0 at position {position}: "
                f"{pairs[position]} vs {reference[position]}"
            )
        return reference

    def execute(self, context: IterationContext) -> StepReport:
        """Sort the context's pairs globally.

        The global ascending (score, id) order every rank holds after the
        broadcast goes into ``context`` — as ``sorted_pairs`` when the
        backend sorted tuples, as the sorted wire array otherwise.  The
        report carries the measured wall-clock, and the modelled seconds and
        payload bytes this step's own collectives (one gather, one broadcast)
        were charged — their sum, so the numbers are the same on a fresh and
        on a long-used communicator.
        """
        per_rank_pairs = context.pairs_for_sort()
        with self.comm.charges() as charged, Timer() as timer:
            per_rank_sorted = self._sort(per_rank_pairs)
        agreed = self._require_rank_agreement(per_rank_sorted)
        if isinstance(agreed, np.ndarray):
            context.set_sorted_array(agreed)
        else:
            context.sorted_pairs = agreed
        return StepReport.collective(
            self.name,
            measured=timer.elapsed,
            modelled=sum(seconds for _, _, seconds in charged),
            payload_bytes=sum(nbytes for _, nbytes, _ in charged),
            counters={"npairs": float(len(agreed))},
        )


class VectorizedSortingStep(SortingStep):
    """Sorting through the NumPy gather–lexsort–broadcast path.

    Bitwise-identical sorted order, identical modelled communication seconds
    and payload bytes (the wire format is unchanged); the root's Python
    ``sorted`` over tuples and the per-rank list materialisation collapse
    into one ``np.lexsort`` and the one broadcast array every rank shares.
    Pairs that a batched scoring step left in wire form are gathered as they are.
    """

    name = "sorting"

    def _sort(
        self, per_rank_pairs: Sequence[Sequence[ScorePair]]
    ) -> List[np.ndarray]:
        return parallel_sort_pairs_numpy(self.comm, per_rank_pairs)

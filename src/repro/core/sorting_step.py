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
  scoring step it gathers the ``(n_r, 2)`` wire arrays as they are, so the
  pairs become tuples once per iteration, on the way out.  The communication
  payloads are identical byte for byte, so the report's modelled seconds
  and ``payload_bytes`` are unchanged, and the sorted list is bitwise equal.
  Every batched backend uses this implementation: the sort is a rooted
  collective, so there is no per-rank work to fan out over a pool.

Whatever the implementation, the step verifies that every rank holds the
identical sorted list after the broadcast — downstream reduction and
redistribution decisions silently diverge otherwise, so a future sort
backend that breaks the invariant fails loudly here instead.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.step import IterationContext, StepReport
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
    ) -> List[List[ScorePair]]:
        """Per-rank sorted lists (the backend hook)."""
        return parallel_sort_pairs(self.comm, per_rank_pairs)

    @staticmethod
    def _require_rank_agreement(
        per_rank_sorted: Sequence[List[ScorePair]],
    ) -> List[ScorePair]:
        """The (verified) common sorted list every rank holds.

        The whole downstream pipeline rests on every rank taking identical
        reduction/redistribution decisions from *its own* copy of the sorted
        list; a sort backend that hands different ranks different lists would
        corrupt results silently, so the comparison is complete — every rank,
        every pair.  Backends that share one broadcast buffer (the NumPy
        path) pass by identity in O(nranks); the reference path's distinct
        per-rank copies pay one full list comparison per rank, a cost that
        belongs to materialising per-rank copies in the first place.
        """
        reference = per_rank_sorted[0]
        for rank, pairs in enumerate(per_rank_sorted):
            if pairs is reference or pairs == reference:
                continue
            if len(pairs) != len(reference):
                raise RuntimeError(
                    f"sorting backend produced diverging per-rank lists: rank "
                    f"{rank} holds {len(pairs)} pairs, rank 0 holds "
                    f"{len(reference)}"
                )
            position = next(
                i for i, (a, b) in enumerate(zip(pairs, reference)) if a != b
            )
            raise RuntimeError(
                f"sorting backend produced diverging per-rank lists: rank "
                f"{rank} disagrees with rank 0 at position {position}: "
                f"{pairs[position]} vs {reference[position]}"
            )
        return reference

    def execute(self, context: IterationContext) -> StepReport:
        """Sort the context's pairs globally.

        ``context.sorted_pairs`` becomes the global ascending (score, id)
        order (the same list every rank holds after the broadcast).  The
        report carries the measured wall-clock, and the modelled seconds and
        payload bytes this step's own collectives (one gather, one broadcast)
        were charged — their sum, so the numbers are the same on a fresh and
        on a long-used communicator.
        """
        per_rank_pairs = context.pairs_for_sort()
        with self.comm.charges() as charged, Timer() as timer:
            per_rank_sorted = self._sort(per_rank_pairs)
        context.sorted_pairs = self._require_rank_agreement(per_rank_sorted)
        return StepReport.collective(
            self.name,
            measured=timer.elapsed,
            modelled=sum(seconds for _, _, seconds in charged),
            payload_bytes=sum(nbytes for _, nbytes, _ in charged),
            counters={"npairs": float(len(context.sorted_pairs))},
        )


class VectorizedSortingStep(SortingStep):
    """Sorting through the NumPy gather–lexsort–broadcast path.

    Bitwise-identical sorted list, identical modelled communication seconds
    and payload bytes (the wire format is unchanged); the root's Python
    ``sorted`` over tuples and the per-rank list materialisation collapse
    into one ``np.lexsort`` and a single shared result list.  Pairs that a
    batched scoring step left in wire form are gathered as they are.
    """

    name = "sorting"

    def _sort(
        self, per_rank_pairs: Sequence[Sequence[ScorePair]]
    ) -> List[List[ScorePair]]:
        return parallel_sort_pairs_numpy(self.comm, per_rank_pairs)

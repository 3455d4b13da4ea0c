"""Step 2: globally sorting the <block id, score> pairs.

As in the paper, the pairs are sorted by increasing score (ties broken by
block id) and the sorted list is broadcast back to every process, so each
process knows the scores of all blocks — including those belonging to other
processes — and can take identical reduction/redistribution decisions without
further communication.

The step gathers the per-rank ``(n_r, 2)`` wire arrays the scoring step left
in ``context.pair_arrays`` and leaves the broadcast ``(N, 2)`` sorted array in
``context.sorted_array``, for the ladder and the strategies.  Two
implementations of the contract are provided — one ``execute(context)`` body,
the second class replacing only the root's sort (``"serial"`` builds the
first, every other backend name the second):

* :class:`SortingStep` — the reference gather–sort–broadcast, the root sorting
  Python tuples (:func:`~repro.simmpi.sort.parallel_sort_pairs`);
* :class:`VectorizedSortingStep` — the same collective with the root's sort
  done by ``np.lexsort`` over the gathered arrays
  (:func:`~repro.simmpi.sort.parallel_sort_pairs_numpy`).  The communication
  payloads are identical byte for byte, so the report's modelled seconds and
  ``payload_bytes`` are unchanged, and the sorted array is bitwise equal.
  Every batched backend uses this implementation: the sort is a rooted
  collective, so there is no per-rank work to fan out over a pool.

Whatever the implementation, the step verifies that every rank holds the
identical sorted array after the broadcast, since downstream reduction and
redistribution decisions silently diverge otherwise, so a future sort
backend that breaks the invariant fails loudly here instead.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.step import IterationContext, StepReport
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.sort import parallel_sort_pairs, parallel_sort_pairs_numpy
from repro.utils.timer import Timer


class SortingStep:
    """Gather-sort-broadcast of the score pairs over the communicator."""

    name = "sorting"

    def __init__(self, comm: BSPCommunicator) -> None:
        self.comm = comm

    def _sort(self, pair_arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-rank sorted arrays (the backend hook)."""
        return parallel_sort_pairs(self.comm, pair_arrays)

    @staticmethod
    def _require_rank_agreement(per_rank_sorted: Sequence[np.ndarray]) -> np.ndarray:
        """The (verified) common sorted order every rank holds.

        The whole downstream pipeline rests on every rank taking identical
        reduction/redistribution decisions from *its own* copy of the sorted
        order; a sort backend that hands different ranks different orders
        would corrupt results silently, so the comparison is complete — every
        rank, every pair.  Backends that share one broadcast buffer pass by
        identity in O(nranks); distinct per-rank copies pay one
        ``np.array_equal`` per rank, a cost that belongs to materialising
        per-rank copies in the first place.
        """
        reference = per_rank_sorted[0]
        for rank, wire in enumerate(per_rank_sorted):
            if wire is reference or np.array_equal(wire, reference):
                continue
            if len(wire) != len(reference):
                raise RuntimeError(
                    f"sorting backend produced diverging per-rank lists: rank "
                    f"{rank} holds {len(wire)} pairs, rank 0 holds "
                    f"{len(reference)}"
                )
            position = int(np.argmax((wire != reference).any(axis=1)))
            raise RuntimeError(
                f"sorting backend produced diverging per-rank lists: rank "
                f"{rank} disagrees with rank 0 at position {position}: "
                f"{wire[position]} vs {reference[position]}"
            )
        return reference

    def execute(self, context: IterationContext) -> StepReport:
        """Sort the context's pair arrays globally.

        The global ascending (score, id) order every rank holds after the
        broadcast goes into ``context.sorted_array``.  The report carries the
        measured wall-clock, and the modelled seconds and payload bytes this
        step's own collectives (one gather, one broadcast) were charged —
        their sum, so the numbers are the same on a fresh and on a long-used
        communicator.
        """
        pair_arrays = context.require_pairs()
        with self.comm.charges() as charged, Timer() as timer:
            per_rank_sorted = self._sort(pair_arrays)
        context.sorted_array = self._require_rank_agreement(per_rank_sorted)
        return StepReport.collective(
            self.name,
            measured=timer.elapsed,
            modelled=sum(seconds for _, _, seconds in charged),
            payload_bytes=sum(nbytes for _, nbytes, _ in charged),
            counters={"npairs": float(len(context.sorted_array))},
        )


class VectorizedSortingStep(SortingStep):
    """Sorting through the NumPy gather–lexsort–broadcast path.

    Bitwise-identical sorted array, identical modelled communication seconds
    and payload bytes (the wire format is unchanged); the root's Python
    ``sorted`` over tuples collapses into one ``np.lexsort``.
    """

    name = "sorting"

    def _sort(self, pair_arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
        return parallel_sort_pairs_numpy(self.comm, pair_arrays)

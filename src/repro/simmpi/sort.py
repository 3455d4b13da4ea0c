"""The global sort of ``<block id, score>`` pairs.

The paper sorts the score pairs of all blocks by increasing score (ties broken
by id) at one process and broadcasts the sorted list back to every process
(Section IV-C): one gather, one broadcast.  Two implementations of that scheme
on a :class:`~repro.simmpi.communicator.BSPCommunicator`, each taking a rank's
pairs in wire form, an ``(n, 2)`` float64 array of ``(id, score)`` rows, and
handing every rank the broadcast ``(N, 2)`` sorted array:

* :func:`parallel_sort_pairs` — rank 0 sorts Python ``(id, score)`` tuples;
  what the ``serial`` backend runs, and the reference for the other.
* :func:`parallel_sort_pairs_numpy` — rank 0 sorts with one ``np.lexsort`` over
  the gathered arrays; what the batched backends run.

The communication (one gather of the per-rank wire arrays, one broadcast of
the sorted array) is identical call for call and byte for byte, so the
modelled seconds are the same, and the two broadcast arrays are bitwise equal.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.simmpi.communicator import BSPCommunicator


def _gather(comm: BSPCommunicator, pair_arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Rank 0's copy of every rank's ``(n_r, 2)`` wire array."""
    if len(pair_arrays) != comm.nranks:
        raise ValueError(
            f"expected pairs for {comm.nranks} ranks, got {len(pair_arrays)}"
        )
    root_arrays = comm.gather(pair_arrays, root=0)[0]
    assert root_arrays is not None
    return root_arrays


def parallel_sort_pairs(
    comm: BSPCommunicator, pair_arrays: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Globally sort per-rank ``(block_id, score)`` pairs and broadcast the result.

    Parameters
    ----------
    comm:
        Driver-side communicator.
    pair_arrays:
        ``pair_arrays[r]`` is the ``(n_r, 2)`` float64 wire array of the pairs
        rank ``r`` contributes.

    Returns
    -------
    list of ndarray
        Per-rank copy of the sorted ``(N, 2)`` wire array (every rank ends up
        with the same order, as required for the subsequent reduction and
        redistribution decisions).  The root sorts Python tuples by
        ``(score, id)`` — the paper's tie-break rule — so this oracle shares no
        sorting code with :func:`parallel_sort_pairs_numpy`.
    """
    merged = [
        (int(row[0]), float(row[1])) for wire in _gather(comm, pair_arrays) for row in wire
    ]
    merged.sort(key=lambda pair: (pair[1], pair[0]))
    return comm.bcast(np.asarray(merged, dtype=np.float64).reshape(-1, 2), root=0)


def parallel_sort_pairs_numpy(
    comm: BSPCommunicator, pair_arrays: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """NumPy variant of :func:`parallel_sort_pairs` (``np.lexsort`` at root).

    Same scheme, same communication payloads (so the cost model charges
    exactly the same modelled seconds) — only the root's sort runs as one
    ``np.lexsort`` instead of a Python ``sorted`` over a quarter-million
    tuples.  Every rank receives the broadcast sorted ``(N, 2)`` float64 wire
    array, the same object (the broadcast's shared buffer, read-only
    downstream), bitwise the reference's.
    """
    root_arrays = _gather(comm, pair_arrays)
    merged = np.concatenate(root_arrays, axis=0) if root_arrays else np.empty((0, 2))
    # lexsort's last key is primary: ascending score, ties broken by id.
    order = np.lexsort((merged[:, 0], merged[:, 1]))
    return comm.bcast(np.ascontiguousarray(merged[order]), root=0)

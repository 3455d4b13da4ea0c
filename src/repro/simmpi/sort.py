"""The global sort of ``<block id, score>`` pairs.

The paper sorts the score pairs of all blocks by increasing score (ties broken
by id) at one process and broadcasts the sorted list back to every process
(Section IV-C): one gather, one broadcast.  Two implementations of that scheme
on a :class:`~repro.simmpi.communicator.BSPCommunicator`, each taking a rank's
pairs as tuples or already in wire form, an ``(n, 2)`` float64 array of
``(id, score)`` rows:

* :func:`parallel_sort_pairs` — rank 0 sorts Python tuples; what the ``serial``
  backend runs, and the reference for the other.
* :func:`parallel_sort_pairs_numpy` — rank 0 sorts with one ``np.lexsort`` over
  the gathered arrays; what the batched backends run.  The communication (one
  gather of per-rank wire arrays, one broadcast of the sorted ``(N, 2)`` array)
  is identical call for call and byte for byte, so the modelled seconds are
  the same; every rank holds the broadcast array, bitwise the reference's list.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.simmpi.communicator import BSPCommunicator

ScorePair = Tuple[int, float]


def pairs_from_wire(wire: np.ndarray) -> List[ScorePair]:
    """The ``(id, score)`` tuples of an ``(n, 2)`` float64 wire array."""
    return list(zip(wire[:, 0].astype(np.int64).tolist(), wire[:, 1].tolist()))


def _sort_key(pairs: Sequence[ScorePair]) -> List[ScorePair]:
    """Sort pairs by (score, id) ascending — the paper's tie-break rule."""
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def parallel_sort_pairs(
    comm: BSPCommunicator, per_rank_pairs: Sequence[Sequence[ScorePair]]
) -> List[List[ScorePair]]:
    """Globally sort per-rank ``(block_id, score)`` pairs and broadcast the result.

    Parameters
    ----------
    comm:
        Driver-side communicator.
    per_rank_pairs:
        ``per_rank_pairs[r]`` is the list of pairs contributed by rank ``r``.

    Returns
    -------
    list of list
        Per-rank copy of the fully sorted global list (every rank ends up with
        the same list, as required for the subsequent reduction and
        redistribution decisions).
    """
    if len(per_rank_pairs) != comm.nranks:
        raise ValueError(
            f"expected pairs for {comm.nranks} ranks, got {len(per_rank_pairs)}"
        )
    # Each rank contributes a compact float64 array (id, score) to the gather.
    arrays = [
        np.asarray([(int(i), float(s)) for i, s in pairs], dtype=np.float64).reshape(-1, 2)
        for pairs in per_rank_pairs
    ]
    gathered = comm.gather(arrays, root=0)
    root_arrays = gathered[0]
    assert root_arrays is not None
    merged: List[ScorePair] = []
    for arr in root_arrays:
        merged.extend((int(row[0]), float(row[1])) for row in arr)
    sorted_pairs = _sort_key(merged)
    sorted_arr = np.asarray(sorted_pairs, dtype=np.float64).reshape(-1, 2)
    received = comm.bcast(sorted_arr, root=0)
    out: List[List[ScorePair]] = []
    for arr in received:
        out.append([(int(row[0]), float(row[1])) for row in arr])
    return out


def parallel_sort_pairs_numpy(
    comm: BSPCommunicator, per_rank_pairs: Sequence[Sequence[ScorePair]]
) -> List[np.ndarray]:
    """NumPy variant of :func:`parallel_sort_pairs` (``np.lexsort`` at root).

    Same scheme, same communication payloads (so the cost model charges
    exactly the same modelled seconds) — only the root's sort runs as one
    ``np.lexsort`` instead of a Python ``sorted`` over a quarter-million
    tuples, and no tuple is built: every rank receives the broadcast sorted
    ``(N, 2)`` float64 wire array, the same object (the broadcast's shared
    buffer, read-only downstream).  ``pairs_from_wire`` of it is bitwise the
    reference's sorted list.
    """
    if len(per_rank_pairs) != comm.nranks:
        raise ValueError(
            f"expected pairs for {comm.nranks} ranks, got {len(per_rank_pairs)}"
        )
    # Identical wire format to parallel_sort_pairs: one (n, 2) float64 array
    # of (id, score) rows per rank (a no-op for pairs already in that form).
    arrays = [
        np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
        for pairs in per_rank_pairs
    ]
    gathered = comm.gather(arrays, root=0)
    root_arrays = gathered[0]
    assert root_arrays is not None
    merged = np.concatenate(root_arrays, axis=0) if root_arrays else np.empty((0, 2))
    # lexsort's last key is primary: ascending score, ties broken by id.
    order = np.lexsort((merged[:, 0], merged[:, 1]))
    return comm.bcast(np.ascontiguousarray(merged[order]), root=0)

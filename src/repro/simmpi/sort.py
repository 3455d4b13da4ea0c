"""Distributed sorting of ``<block id, score>`` pairs.

The paper globally sorts the score pairs of all blocks by increasing score
(ties broken by id) and broadcasts the sorted list back to every process
(Section IV-C).  Both rooted implementations take each rank's pairs as tuples
or already in wire form, an ``(n, 2)`` float64 array of ``(id, score)`` rows:

* :func:`parallel_sort_pairs` — the paper's gather–sort–broadcast scheme on a
  :class:`~repro.simmpi.communicator.BSPCommunicator` (rank 0 sorts); this is
  what the serial engine backend uses and what the cost model prices.
* :func:`parallel_sort_pairs_numpy` — the same scheme with the root's sort
  done by ``np.lexsort`` over the gathered arrays instead of a Python
  ``sorted`` over tuples.  The communication pattern (one gather of per-rank
  wire arrays, one broadcast of the sorted ``(N, 2)`` array) is identical call
  for call and byte for byte, so the modelled communication seconds are
  unchanged and the result list is bitwise equal.  The batched backends' path.
* :func:`sample_sort` — a classic sample sort that keeps the data distributed,
  provided for the "larger scale / slower network" future-work ablation the
  paper mentions in its conclusion.
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
) -> List[List[ScorePair]]:
    """NumPy variant of :func:`parallel_sort_pairs` (``np.lexsort`` at root).

    Same scheme, same communication payloads (so the cost model charges
    exactly the same modelled seconds), bitwise-identical sorted output — only
    the root's sort runs as one ``np.lexsort`` instead of a Python ``sorted``
    over a quarter-million tuples, and the sorted list is materialised *once*:
    every rank receives the same list object, mirroring the broadcast's shared
    buffer (the list is treated as read-only downstream).
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
    sorted_arr = np.ascontiguousarray(merged[order])
    shared = pairs_from_wire(comm.bcast(sorted_arr, root=0)[0])
    return [shared for _ in range(comm.nranks)]


def sample_sort(
    comm: BSPCommunicator,
    per_rank_pairs: Sequence[Sequence[ScorePair]],
    oversampling: int = 4,
) -> List[List[ScorePair]]:
    """Distributed sample sort of ``(block_id, score)`` pairs.

    Unlike :func:`parallel_sort_pairs`, the result stays distributed: rank
    ``r`` ends up with the ``r``-th contiguous chunk of the global ascending
    order.  Chunk sizes may differ by a few elements (they are determined by
    the sampled splitters), but concatenating the per-rank outputs in rank
    order yields the exact global sort.

    Parameters
    ----------
    oversampling:
        Number of local samples each rank contributes per splitter; larger
        values give better balance at slightly higher sampling cost.
    """
    nranks = comm.nranks
    if len(per_rank_pairs) != nranks:
        raise ValueError(f"expected pairs for {nranks} ranks, got {len(per_rank_pairs)}")
    if oversampling < 1:
        raise ValueError(f"oversampling must be >= 1, got {oversampling}")
    local_sorted = [_sort_key(pairs) for pairs in per_rank_pairs]
    if nranks == 1:
        return [list(local_sorted[0])]

    # 1. Each rank samples its local data.
    def take_samples(pairs: Sequence[ScorePair]) -> List[float]:
        if not pairs:
            return []
        count = min(len(pairs), oversampling * (nranks - 1))
        idx = np.linspace(0, len(pairs) - 1, count).astype(int)
        return [pairs[i][1] for i in idx]

    samples_per_rank = [take_samples(p) for p in local_sorted]
    all_samples = comm.allgather(samples_per_rank)[0]
    flat = sorted(s for rank_samples in all_samples for s in rank_samples)
    if not flat:
        return [list(p) for p in local_sorted]

    # 2. Choose nranks-1 splitters from the gathered samples.
    splitters = [
        flat[min(len(flat) - 1, (i + 1) * len(flat) // nranks)] for i in range(nranks - 1)
    ]

    # 3. Partition local data by splitter and exchange.
    def partition(pairs: Sequence[ScorePair]) -> List[List[ScorePair]]:
        buckets: List[List[ScorePair]] = [[] for _ in range(nranks)]
        for pair in pairs:
            dest = int(np.searchsorted(splitters, pair[1], side="right"))
            buckets[dest].append(pair)
        return buckets

    send_lists = [partition(p) for p in local_sorted]
    recv = comm.alltoallv(send_lists)

    # 4. Each rank merges what it received.
    out: List[List[ScorePair]] = []
    for r in range(nranks):
        merged: List[ScorePair] = []
        for src in range(nranks):
            payload = recv[r][src]
            if payload:
                merged.extend(payload)
        out.append(_sort_key(merged))
    return out

"""The driver-side communicator the pipeline issues its collectives on.

:class:`BSPCommunicator` implements the semantics of the three collectives the
pipeline uses — ``gather`` and ``bcast`` for the global sort, a personalised
all-to-all for the redistribution — over *per-rank lists held by the driver*:
``values[r]`` is the array rank ``r`` contributes.  Each call returns the
per-rank results (again indexed by rank), prices itself through
:class:`~repro.simmpi.costmodel.NetworkCostModel` and records the modelled
seconds and bytes in :attr:`BSPCommunicator.stats`.

Payloads are NumPy arrays, priced by their ``nbytes``: the sort gathers and
broadcasts ``(id, score)`` arrays, and the redistribution prices its exchange
as one byte matrix (:meth:`BSPCommunicator.charge_alltoallv`) without moving
anything.  Trading MPI's SPMD control flow for a data-parallel driver loop
keeps the simulation single-threaded, deterministic, and able to model
hundreds of virtual ranks cheaply.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.costmodel import NetworkCostModel


class BSPCommunicator:
    """Driver-side communicator over ``nranks`` virtual ranks.

    Parameters
    ----------
    nranks:
        Number of virtual ranks.
    cost_model:
        Network cost model used to charge modelled time; defaults to the
        Blue Waters-like model.

    :attr:`stats` holds, per collective name, the ``calls``, ``bytes`` and
    modelled ``seconds`` charged so far.
    """

    def __init__(
        self, nranks: int, cost_model: Optional[NetworkCostModel] = None
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self._nranks = int(nranks)
        self.cost_model = cost_model or NetworkCostModel.blue_waters()
        self.stats: Dict[str, Dict[str, float]] = {}
        self._charges: Optional[List[Tuple[str, float, float]]] = None

    # -- basic properties ---------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of virtual ranks in the communicator."""
        return self._nranks

    def _check_values(self, values: Sequence[np.ndarray]) -> None:
        if len(values) != self._nranks:
            raise ValueError(
                f"values must have one entry per rank ({self._nranks}), got {len(values)}"
            )

    def _record(self, op: str, nbytes: float, seconds: float) -> None:
        if self._charges is not None:
            self._charges.append((op, nbytes, seconds))
        entry = self.stats.setdefault(op, {"calls": 0.0, "bytes": 0.0, "seconds": 0.0})
        entry["calls"] += 1
        entry["bytes"] += nbytes
        entry["seconds"] += seconds

    # -- collectives ---------------------------------------------------------------

    def bcast(self, value: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Broadcast ``value`` from ``root``; every rank receives it."""
        self._check_rank(root)
        nbytes = value.nbytes
        cost = self.cost_model.bcast(nbytes, self._nranks)
        self._record("bcast", nbytes, cost)
        return [value] * self._nranks

    def gather(
        self, values: Sequence[np.ndarray], root: int = 0
    ) -> List[Optional[List[np.ndarray]]]:
        """Gather per-rank ``values`` at ``root``.

        Returns a per-rank list where only ``root`` holds the gathered list
        (other entries are ``None``), mirroring MPI's convention.
        """
        self._check_rank(root)
        self._check_values(values)
        per_rank = max(value.nbytes for value in values)
        cost = self.cost_model.gather(per_rank, self._nranks)
        self._record("gather", per_rank * self._nranks, cost)
        out: List[Optional[List[np.ndarray]]] = [None] * self._nranks
        out[root] = list(values)
        return out

    def charge_alltoallv(self, send_matrix_bytes: np.ndarray) -> float:
        """Charge a personalised all-to-all given its ``P x P`` byte matrix.

        ``send_matrix_bytes[i, j]`` is the payload bytes rank ``i`` sends to
        rank ``j``.  The one place an all-to-all is priced: the redistribution
        step plans its exchange as such a matrix.  Returns the modelled
        seconds charged; the bytes recorded are the off-diagonal total, which
        is what the cost model charges (a rank sends nothing to itself).
        """
        matrix = np.asarray(send_matrix_bytes)
        cost = self.cost_model.alltoallv(matrix, self._nranks)
        self._record("alltoallv", int(matrix.sum() - matrix.trace()), cost)
        return cost

    # -- diagnostics -----------------------------------------------------------------

    @contextmanager
    def charges(self) -> Iterator[List[Tuple[str, float, float]]]:
        """Collect the ``(op, bytes, seconds)`` of every collective in the block.

        How a step that issues several collectives reports exactly what *it*
        was charged: summing the yielded entries does not depend on what the
        communicator accumulated before, whereas a difference of running
        totals rounds as ``(S + c) - S``.
        """
        self._charges = charged = []
        try:
            yield charged
        finally:
            self._charges = None

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self._nranks):
            raise ValueError(f"rank {rank} out of range [0, {self._nranks})")

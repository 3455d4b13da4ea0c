"""The driver-side communicator the pipeline issues its collectives on.

:class:`BSPCommunicator` implements the semantics of the three collectives the
pipeline uses — ``gather`` and ``bcast`` for the global sort, a personalised
all-to-all for the redistribution — over *per-rank lists held by the driver*:
``values[r]`` is the value rank ``r`` contributes.  Each call returns the
per-rank results (again indexed by rank), prices itself through
:class:`~repro.simmpi.costmodel.NetworkCostModel` and records the modelled
seconds and bytes in :attr:`BSPCommunicator.stats`.

Trading MPI's SPMD control flow for a data-parallel driver loop keeps the
simulation single-threaded, deterministic, and able to model hundreds of
virtual ranks cheaply.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.costmodel import NetworkCostModel


#: Wire-size estimate for payloads that cannot be pickled (open handles,
#: lambdas, ...).  Such objects could not cross a real MPI boundary at all;
#: pricing them as one small pickled envelope keeps the cost model defined
#: without hiding the anomaly behind an inflated transfer.
UNPICKLABLE_PAYLOAD_NBYTES = 64

#: Errors ``pickle.dumps`` raises for unpicklable objects: PicklingError for
#: types pickle rejects itself, TypeError/AttributeError for objects whose
#: reduction fails (e.g. locks, sockets, local classes), RecursionError for
#: pathologically nested structures.  Anything else (MemoryError, ...) is a
#: real failure and propagates.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, RecursionError)


def _payload_nbytes(obj: Any) -> int:
    """Wire size of a Python payload in bytes.

    Buffers count their length, and a list/tuple whose items all expose an
    integer ``nbytes`` (NumPy arrays, ``Block`` payloads) costs the sum of
    those: wire size is payload bytes, and bulk data is never serialised
    just to be measured.  Anything else is priced by its pickle length (what
    a real mpi4py lowercase call would send); unpicklable payloads are
    priced at :data:`UNPICKLABLE_PAYLOAD_NBYTES`.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(getattr(x, "nbytes", None), (int, np.integer)) for x in obj
    ):
        return int(sum(x.nbytes for x in obj))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except _PICKLE_ERRORS:
        return UNPICKLABLE_PAYLOAD_NBYTES


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

    def _check_values(self, values: Sequence[Any], name: str = "values") -> None:
        if len(values) != self._nranks:
            raise ValueError(
                f"{name} must have one entry per rank ({self._nranks}), got {len(values)}"
            )

    def _record(self, op: str, nbytes: float, seconds: float) -> None:
        if self._charges is not None:
            self._charges.append((op, nbytes, seconds))
        entry = self.stats.setdefault(op, {"calls": 0.0, "bytes": 0.0, "seconds": 0.0})
        entry["calls"] += 1
        entry["bytes"] += nbytes
        entry["seconds"] += seconds

    # -- collectives ---------------------------------------------------------------

    def bcast(self, value: Any, root: int = 0) -> List[Any]:
        """Broadcast ``value`` from ``root``; every rank receives it."""
        self._check_rank(root)
        nbytes = _payload_nbytes(value)
        cost = self.cost_model.bcast(nbytes, self._nranks)
        self._record("bcast", nbytes, cost)
        return [value] * self._nranks

    def gather(self, values: Sequence[Any], root: int = 0) -> List[Optional[List[Any]]]:
        """Gather per-rank ``values`` at ``root``.

        Returns a per-rank list where only ``root`` holds the gathered list
        (other entries are ``None``), mirroring MPI's convention.
        """
        self._check_rank(root)
        self._check_values(values)
        per_rank = max(_payload_nbytes(v) for v in values)
        cost = self.cost_model.gather(per_rank, self._nranks)
        self._record("gather", per_rank * self._nranks, cost)
        out: List[Optional[List[Any]]] = [None] * self._nranks
        out[root] = list(values)
        return out

    def alltoallv(self, send_lists: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Personalised all-to-all exchange.

        ``send_lists[i][j]`` is the payload rank ``i`` sends to rank ``j``
        (``None`` meaning nothing).  Returns ``recv[j][i]`` = payload received
        by ``j`` from ``i``.  Payloads are sized by :func:`_payload_nbytes`
        and the resulting byte matrix is charged by :meth:`charge_alltoallv`.
        """
        self._check_values(send_lists, "send_lists")
        matrix = np.zeros((self._nranks, self._nranks), dtype=np.int64)
        recv: List[List[Any]] = [[None] * self._nranks for _ in range(self._nranks)]
        for i, row in enumerate(send_lists):
            if len(row) != self._nranks:
                raise ValueError(
                    f"send_lists[{i}] must have {self._nranks} entries, got {len(row)}"
                )
            for j, payload in enumerate(row):
                if payload is None:
                    continue
                matrix[i, j] = _payload_nbytes(payload)
                recv[j][i] = payload
        self.charge_alltoallv(matrix)
        return recv

    def charge_alltoallv(self, send_matrix_bytes: np.ndarray) -> float:
        """Charge a personalised all-to-all given its ``P x P`` byte matrix.

        ``send_matrix_bytes[i, j]`` is the payload bytes rank ``i`` sends to
        rank ``j``.  The one place an all-to-all is priced: the redistribution
        step plans its exchange as such a matrix, :meth:`alltoallv` sizes its
        payloads into one.  Returns the modelled seconds charged; the bytes
        recorded are the off-diagonal total, which is what the cost model
        charges (a rank sends nothing to itself).
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
        communicator accumulated before, whereas a difference of
        :meth:`communication_seconds` totals rounds as ``(S + c) - S``.
        """
        self._charges = charged = []
        try:
            yield charged
        finally:
            self._charges = None

    def communication_seconds(self) -> float:
        """Total modelled seconds spent in communication so far."""
        return float(sum(e["seconds"] for e in self.stats.values()))

    def reset_stats(self) -> None:
        """Clear the per-operation statistics."""
        self.stats.clear()

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self._nranks):
            raise ValueError(f"rank {rank} out of range [0, {self._nranks})")

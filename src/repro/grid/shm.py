"""Shared-memory payloads for crossing process boundaries zero-copy.

The fan-out's pool body (:func:`repro.grid.fanout.map_shape_groups`) ships
block payloads to ``ProcessPoolExecutor`` workers.  Pickling a stacked
``(nblocks, sx, sy, sz)`` payload array through the task queue would copy it
twice (serialise + deserialise) per task; instead the parent copies it
**once** into a ``multiprocessing.shared_memory`` segment and workers map the
same physical pages.  :class:`SharedBlockBatch` wraps
that segment with an explicit lifecycle:

``create``
    Parent-side: allocate a segment, copy the payload in, become the *owner*.
``handle()`` / pickling
    Produces a tiny :class:`ShmBatchHandle` (segment name + shape + dtype);
    pickling a :class:`SharedBlockBatch` ships the handle, never the bytes.
``attach``
    Worker-side: map an existing segment by handle.  The mapped view is
    marked read-only — workers score/count payloads, they never mutate them.
``close``
    Unmap this process's view (owner and workers alike).
``unlink``
    Owner-side: destroy the segment.  Exactly one process — the creator —
    must unlink, and only after every consumer closed or will fail to
    attach.  ``dispose()`` is the owner's close-then-unlink convenience.

Every live *owned* segment is tracked in a module-level registry so tests
can assert that pipeline runs (including ones that die in a worker) leak
nothing; see :func:`live_owned_segments`.

Resource-tracker caveat (bpo-39959): ``SharedMemory(name=...)`` registers
the segment with the attaching process's ``resource_tracker`` as if it were
the creator.  The pool's workers are forked, and
:func:`~repro.utils.procpool.shared_process_pool` starts the parent's tracker
daemon *before* it forks them, so every worker shares that daemon and
duplicate registrations collapse into one — attach-side registration is
harmless and the creator's ``unlink`` retires the name exactly once.  (A
worker forked before the daemon existed would start a private one that
unlinks, at worker exit, names it does not own; on spawn-only platforms that
is the only kind of worker there is, which is one reason
:func:`~repro.utils.procpool.pool_pays` never takes the pool there.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ShmBatchHandle",
    "SharedBatchError",
    "SharedBlockBatch",
    "live_owned_segments",
    "purge_owned_segments",
]


class SharedBatchError(RuntimeError):
    """Lifecycle misuse of a :class:`SharedBlockBatch` (see message)."""


@dataclass(frozen=True)
class ShmBatchHandle:
    """Picklable descriptor of a shared payload segment.

    Carries everything a worker needs to map the payload — the OS-level
    segment ``name`` plus the array ``shape``/``dtype`` — and nothing else,
    so shipping a handle through a task queue costs ~100 bytes regardless
    of payload size.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


#: Names of shared segments created (and not yet unlinked) by this process.
_OWNED: Dict[str, "SharedBlockBatch"] = {}
_OWNED_LOCK = threading.Lock()


def live_owned_segments() -> Tuple[str, ...]:
    """Names of segments this process created and has not unlinked yet.

    The leak-check tests assert this is empty after a pipeline run: the one
    fan-out that creates shared payloads
    (:func:`repro.grid.fanout.map_shape_groups`) disposes of them in a
    ``finally`` block, even when a worker raised.
    """
    with _OWNED_LOCK:
        return tuple(sorted(_OWNED))


def purge_owned_segments() -> Tuple[str, ...]:
    """Dispose every segment this process still owns; returns their names.

    Well-behaved steps dispose their segments in ``finally`` blocks, so this
    normally returns ``()``.  Long-lived servers call it anyway after a
    cancelled (timed-out / shut-down) run and at shutdown: a run abandoned
    mid-flight must not leak OS shared memory for the life of the process,
    and a non-empty return value is itself a signal tests assert on.
    """
    with _OWNED_LOCK:
        leaked = dict(_OWNED)
    for batch in leaked.values():
        batch.dispose()
    return tuple(sorted(leaked))


class SharedBlockBatch:
    """A stacked payload array living in OS shared memory.

    Instances come in two flavours: *owners* (built by :meth:`create`,
    responsible for :meth:`unlink`) and *views* (built by :meth:`attach` or by
    unpickling, responsible only for :meth:`close`).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        owner: bool,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._name = shm.name
        self._shape = tuple(int(s) for s in shape)
        self._dtype = np.dtype(dtype)
        self._owner = bool(owner)
        self._unlinked = False
        view = np.ndarray(self._shape, dtype=self._dtype, buffer=shm.buf)
        if not owner:
            view.setflags(write=False)
        self._data: Optional[np.ndarray] = view

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, payload: np.ndarray) -> "SharedBlockBatch":
        """Copy ``payload`` (any 4-D stacked array) into a fresh segment."""
        arr = np.ascontiguousarray(payload)
        if arr.ndim != 4:
            raise ValueError(f"stacked payload must be 4-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("cannot share an empty payload")
        shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        batch = cls(shm, arr.shape, arr.dtype, owner=True)
        assert batch._data is not None
        batch._data[...] = arr
        with _OWNED_LOCK:
            _OWNED[shm.name] = batch
        return batch

    @classmethod
    def attach(cls, handle: ShmBatchHandle) -> "SharedBlockBatch":
        """Map an existing segment by handle (worker side, read-only view)."""
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        except FileNotFoundError:
            raise SharedBatchError(
                f"cannot attach shared batch {handle.name!r}: the segment does "
                "not exist — it was already unlinked by its owner (or never "
                "created in this namespace)"
            ) from None
        return cls(shm, handle.shape, np.dtype(handle.dtype), owner=False)

    # -- access -------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The ``(nblocks, sx, sy, sz)`` payload view backed by the segment."""
        if self._data is None:
            raise SharedBatchError(
                "shared batch is closed; its payload view is no longer mapped"
            )
        return self._data

    @property
    def owner(self) -> bool:
        """Whether this instance created (and must unlink) the segment."""
        return self._owner

    @property
    def name(self) -> str:
        """OS-level segment name."""
        return self._name

    @property
    def nbytes(self) -> int:
        """Payload bytes held by the segment."""
        return int(np.prod(self._shape, dtype=np.int64)) * self._dtype.itemsize

    def handle(self) -> ShmBatchHandle:
        """The picklable descriptor workers use to :meth:`attach`."""
        return ShmBatchHandle(self.name, self._shape, self._dtype.str)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view.  Idempotent."""
        self._data = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only).  Idempotent."""
        if not self._owner:
            raise SharedBatchError(
                "only the creating process may unlink a shared batch; "
                "workers must close() their attached views instead"
            )
        if self._unlinked:
            return
        self._unlinked = True
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        else:
            # Closed before unlink: re-open purely to destroy the name.
            try:
                shm = shared_memory.SharedMemory(name=self._name)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            else:
                shm.unlink()
                shm.close()
        with _OWNED_LOCK:
            _OWNED.pop(self._name, None)

    def dispose(self) -> None:
        """Owner convenience: unlink the segment, then unmap the view."""
        if self._owner:
            self.unlink()
        self.close()

    # -- pickling / context management --------------------------------------

    def __reduce__(self):
        return (SharedBlockBatch.attach, (self.handle(),))

    def __enter__(self) -> "SharedBlockBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.dispose()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._data is None else "open"
        role = "owner" if self._owner else "view"
        return (
            f"SharedBlockBatch({role}, {state}, shape={self._shape}, "
            f"dtype={self._dtype}, nbytes={self.nbytes})"
        )

"""The one fan-out: a row-wise scoring kernel mapped over stacked shape groups.

Batched scoring has the outline every stacked hot path shares — the blocks'
payloads grouped by shape/dtype and stacked into ``(nblocks, sx, sy, sz)``
arrays, a kernel that yields one value per row, the values scattered back to
block order.  The grouping and the stacking happen once per snapshot, in the
decomposition (:class:`~repro.grid.batch.DecomposedField`), or once per
iteration in the columnar state built from block lists
(:class:`~repro.grid.batch.BlockColumns`; list-facing callers use
:func:`~repro.grid.batch.stacked_shape_groups`); :func:`map_shape_groups`
takes the stacked groups and is the rest of the outline, written once, with
the two ways a kernel can be applied:

* inline (the default; what every NumPy kernel gets): one ``kernel(stacked)``
  call per group;
* over the shared process pool (``processes=True``): each group's stacked
  payload is cut into contiguous row chunks — never re-stacked — and every
  chunk is pickled into its pool task beside the kernel.  The kernels that
  take the pool are GIL-bound, so the copy is small beside the scoring it
  overlaps; a chunk's values come back the same way.

Which of the two a kernel gets is not this module's decision and not a user
option: the batched scoring step passes ``processes`` from
:func:`repro.utils.procpool.pool_pays` (a GIL-bound metric, a second worker,
a caller that may fork).  Scoring runs before any reduction, so its groups
are always the dense ``(rows, stacked)`` pairs; counting runs after one and
loops its groups itself
(:meth:`~repro.viz.catalyst.IsosurfaceScript.count_groups`), never over the
pool.  A kernel treats every row independently (the ``score_batch``
contract), so neither the grouping nor the chunk boundaries can change a
value: both bodies return the same array, bit for bit, as a per-block loop
(``tests/test_fanout.py`` drives both directly).
"""

from __future__ import annotations

from concurrent.futures import Future, wait
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.grid.batch import ShapeGroup
from repro.utils.procpool import (
    chunk_bounds,
    default_process_workers,
    shared_process_pool,
)

__all__ = ["map_shape_groups"]

#: ``kernel(stacked) -> (len(stacked),)`` values, one per row.
RowKernel = Callable[[np.ndarray], np.ndarray]


def map_shape_groups(
    groups: Sequence[ShapeGroup],
    kernel: RowKernel,
    dtype: np.dtype,
    processes: bool = False,
) -> np.ndarray:
    """``kernel``'s per-block values over the blocks whose payloads are stacked
    in ``groups`` (together they hold positions ``0 .. n - 1``), in block order.

    With ``processes=True`` the kernel is pickled into every task beside its
    rows, so it must be a module-level function, a ``functools.partial`` of
    one, or a bound method of a picklable object.  The shared pool is always
    :func:`~repro.utils.procpool.default_process_workers` wide and every group
    is split into at most twice that many chunks.
    """
    out = np.empty(sum(len(positions) for positions, _ in groups), dtype=dtype)
    if not processes:
        for positions, stacked in groups:
            out[positions] = kernel(stacked)
        return out
    pool = shared_process_pool()
    nchunks = 2 * default_process_workers()
    pending: List[Tuple[np.ndarray, Future]] = []
    try:
        for positions, stacked in groups:
            for lo, hi in chunk_bounds(len(positions), nchunks):
                future = pool.submit(kernel, stacked[lo:hi])
                pending.append((positions[lo:hi], future))
        for chunk, future in pending:
            out[chunk] = future.result()
    finally:
        # A failed chunk leaves no sibling running behind the caller's back:
        # cancel what has not started and wait for what has.
        started = [future for _, future in pending if not future.cancel()]
        wait(started)
    return out

"""Block I/O: a BIL-like store for pre-generated simulation iterations.

The paper avoids re-running CM1's expensive computation phase for every
experiment by replaying a stored dataset (572 iterations written during a
3-day Blue Waters run) through the in situ kernel, using the Block I/O
Library (BIL) to reload it.  This package plays the same role: a
:class:`DatasetStore` persists iterations of :class:`~repro.grid.domain.Domain`
snapshots to disk (one memory-mappable flat ``.bin`` per iteration, plus a
JSON manifest that also records the grid axes);
:class:`~repro.cm1.dataset.StoredCM1Dataset` feeds them back, subdomain by
subdomain the way a parallel collective read would, and
:func:`~repro.cm1.dataset.equally_spaced` picks which iterations it visits.
"""

from repro.io.store import DatasetStore

__all__ = ["DatasetStore"]

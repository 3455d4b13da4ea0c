"""Block I/O: a BIL-like store for pre-generated simulation iterations.

The paper avoids re-running CM1's expensive computation phase for every
experiment by replaying a stored dataset (572 iterations written during a
3-day Blue Waters run) through the in situ kernel, using the Block I/O
Library (BIL) to reload it.  This package plays the same role: a
:class:`DatasetStore` persists iterations of :class:`~repro.grid.domain.Domain`
snapshots to disk (one compressed ``.npz`` per iteration, or raw
memory-mappable ``.bin`` files, plus a JSON manifest);
:class:`~repro.cm1.dataset.StoredCM1Dataset` feeds them back, subdomain by
subdomain the way a parallel collective read would, and
:func:`~repro.cm1.dataset.equally_spaced` picks which iterations it visits.
"""

from repro.io.manifest import DatasetManifest, IterationRecord
from repro.io.store import DatasetStore

__all__ = ["DatasetManifest", "IterationRecord", "DatasetStore"]

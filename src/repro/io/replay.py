"""Which stored iterations a replay visits.

The paper evaluates its pipeline on 10 (or 30) iterations *equally spaced in
time* out of a 572-iteration stored dataset.  :func:`equally_spaced` is that
selection; :class:`~repro.cm1.dataset.StoredCM1Dataset` (what
``CM1Dataset.load`` returns) applies it and hands each selected iteration to
the pipeline already split into per-rank blocks, the way BIL's collective
read would deliver it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def equally_spaced(available: Sequence[int], count: int) -> List[int]:
    """Pick ``count`` equally spaced entries from ``available`` (keeping order).

    Mirrors the paper's "10 iterations, equally spaced in time" selection.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    available = list(available)
    if not available:
        raise ValueError("no iterations available")
    if count >= len(available):
        return list(available)
    idx = np.linspace(0, len(available) - 1, count).round().astype(int)
    # De-duplicate while preserving order (possible when count ~ len).
    seen = dict.fromkeys(int(i) for i in idx)
    return [available[i] for i in seen]

"""Replaying a stored dataset through the in situ pipeline.

The paper evaluates its pipeline on 10 (or 30) iterations *equally spaced in
time* out of a 572-iteration stored dataset.  :class:`DatasetReplayer`
reproduces that access pattern: pick ``n`` equally spaced iterations and hand
each one to the pipeline, either as a full :class:`Domain` or already split
into per-rank blocks (the way BIL's collective read would deliver it).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.grid.batch import DecomposedField
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.domain import Domain
from repro.io.store import DatasetStore


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


class DatasetReplayer:
    """Feeds stored iterations to the in situ visualization kernel.

    ``mmap=True`` (raw-layout stores only) replays fields as read-only
    memory-mapped views instead of materialised arrays — the decomposition
    gathers the blocks straight off the map, pre-stacked, one
    :class:`~repro.grid.batch.DecomposedField` per selected iteration.
    """

    def __init__(
        self, store: DatasetStore, field_name: str = "dbz", mmap: bool = False
    ) -> None:
        self.store = store
        self.field_name = field_name
        self.mmap = bool(mmap)

    def select_iterations(self, count: int) -> List[int]:
        """Equally spaced selection of ``count`` stored iterations."""
        return equally_spaced(self.store.iterations(), count)

    def domains(self, count: int) -> Iterator[Domain]:
        """Yield ``count`` equally spaced stored iterations as domains."""
        for iteration in self.select_iterations(count):
            yield self.store.load_iteration(
                iteration, fields=[self.field_name], mmap=self.mmap
            )

    def per_rank_blocks(
        self,
        decomposition: CartesianDecomposition,
        count: int,
    ) -> Iterator[DecomposedField]:
        """Yield, per selected iteration, the per-rank block lists (pre-stacked).

        This mimics a BIL-style collective read where each rank ends up with
        the blocks of its own subdomain.
        """
        for domain in self.domains(count):
            yield decomposition.decompose(
                domain.get_field(self.field_name), self.field_name
            )

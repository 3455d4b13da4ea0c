"""Pre-generated CM1 datasets (in-memory or on-disk).

The paper replays a stored 572-iteration dataset instead of running CM1's
computation phase for every experiment.  :class:`CM1Dataset` offers the same
workflow: generate ``n`` snapshots once (optionally persisting them through
:class:`~repro.io.store.DatasetStore`, one memory-mappable flat file per
snapshot), then iterate over them as many times as the experiments need.

The paper evaluates its pipeline on 10 (or 30) iterations *equally spaced in
time* out of that stored dataset.  :func:`equally_spaced` is that selection;
:class:`StoredCM1Dataset` (what ``CM1Dataset.load`` returns) applies it and
hands each selected iteration to the pipeline already split into per-rank
blocks, the way BIL's collective read would deliver it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.cm1.config import CM1Config
from repro.cm1.simulation import CM1Simulation
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


class CM1Dataset:
    """A replayable sequence of synthetic CM1 snapshots.

    Parameters
    ----------
    config:
        CM1 configuration used to generate the snapshots.
    nsnapshots:
        Number of snapshots the dataset holds.
    cache:
        When True (default) generated domains are kept in memory so replaying
        them is free; otherwise they are regenerated on demand.
    """

    def __init__(
        self,
        config: Optional[CM1Config] = None,
        nsnapshots: int = 10,
        cache: bool = True,
    ) -> None:
        if nsnapshots < 1:
            raise ValueError(f"nsnapshots must be >= 1, got {nsnapshots}")
        self.config = config or CM1Config()
        self.simulation = CM1Simulation(self.config)
        self.nsnapshots = int(nsnapshots)
        self._cache_enabled = bool(cache)
        self._cache: dict[int, Domain] = {}

    # -- access ------------------------------------------------------------

    def snapshot(self, index: int) -> Domain:
        """Return snapshot ``index`` (0-based), generating it if needed."""
        if not (0 <= index < self.nsnapshots):
            raise IndexError(f"snapshot index {index} out of range [0, {self.nsnapshots})")
        if index in self._cache:
            return self._cache[index]
        domain = self.simulation.snapshot(index)
        if self._cache_enabled:
            self._cache[index] = domain
        return domain

    def __len__(self) -> int:
        return self.nsnapshots

    def __iter__(self) -> Iterator[Domain]:
        for i in range(self.nsnapshots):
            yield self.snapshot(i)

    def select(self, count: int) -> List[int]:
        """Equally spaced snapshot indices (the paper's iteration selection)."""
        return equally_spaced(list(range(self.nsnapshots)), count)

    def per_rank_blocks(
        self,
        decomposition: CartesianDecomposition,
        index: int,
        field_name: str = "dbz",
    ) -> DecomposedField:
        """Blocks of snapshot ``index`` split across the decomposition's ranks."""
        field = self.snapshot(index).get_field(field_name)
        return decomposition.decompose(field, field_name)

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        directory: Path,
        extra_metadata: Optional[dict] = None,
        layout: str = "raw",
        domains: Optional[Iterable[Domain]] = None,
    ) -> DatasetStore:
        """Persist every snapshot into a :class:`DatasetStore` at ``directory``.

        ``extra_metadata`` entries are merged into the manifest metadata —
        the CLI records the scenario name this way.  The store has one
        layout, memory-mappable flat files, so the replay cache and
        ``CM1Dataset.load(..., mmap=True)`` read what this writes zero-copy.
        ``layout`` names that layout and accepts only ``"raw"``: it stays
        because the tracked benchmark's probes still pass it.  ``domains``
        hands over the snapshots to write, in order, for a caller that already
        holds them (a scenario assembles them from its arrivals); by default
        they are generated.
        """
        if layout != "raw":
            raise ValueError(f"the only dataset layout is 'raw', got {layout!r}")
        metadata = {
            "generator": "repro.cm1.CM1Dataset",
            "shape": list(self.config.shape),
            "seed": self.config.seed,
            "nsnapshots": self.nsnapshots,
        }
        metadata.update(extra_metadata or {})
        store = DatasetStore(Path(directory))
        store.create(self.simulation.grid, metadata=metadata)
        for domain in self if domains is None else domains:
            store.append(domain)
        return store

    @staticmethod
    def load(
        directory: Path, field_name: str = "dbz", mmap: bool = False
    ) -> "StoredCM1Dataset":
        """Open a previously saved dataset for replay."""
        return StoredCM1Dataset(
            DatasetStore(Path(directory)), field_name=field_name, mmap=mmap
        )


class StoredCM1Dataset:
    """Read-only view over a persisted CM1 dataset.

    Mirrors the :class:`CM1Dataset` access surface (``snapshot``,
    ``select``, ``per_rank_blocks``) so experiment scenarios can be backed
    by a stored dataset instead of a live simulation.  With ``mmap=True``
    snapshot fields are read-only memory-mapped views — the decomposition
    gathers the blocks straight off the map; otherwise each load reads them
    into owned arrays.
    """

    def __init__(
        self, store: DatasetStore, field_name: str = "dbz", mmap: bool = False
    ) -> None:
        if not store.exists():
            raise FileNotFoundError(f"no dataset at {store.root}")
        self.store = store
        self.field_name = field_name
        self.mmap = bool(mmap)
        self._iterations = store.iterations()

    def __len__(self) -> int:
        return len(self._iterations)

    @property
    def nsnapshots(self) -> int:
        """Number of stored snapshots (CM1Dataset-compatible alias)."""
        return len(self._iterations)

    def snapshot(self, index: int) -> Domain:
        """Load snapshot ``index`` (0-based position in the stored sequence)."""
        if not (0 <= index < len(self._iterations)):
            raise IndexError(f"snapshot index {index} out of range")
        return self.store.load_iteration(
            self._iterations[index], fields=[self.field_name], mmap=self.mmap
        )

    def __iter__(self) -> Iterator[Domain]:
        for i in range(len(self)):
            yield self.snapshot(i)

    def select(self, count: int) -> List[int]:
        """Equally spaced snapshot indices (CM1Dataset-compatible)."""
        return equally_spaced(list(range(len(self._iterations))), count)

    def per_rank_blocks(
        self,
        decomposition: CartesianDecomposition,
        index: int,
        field_name: str = "dbz",
    ) -> DecomposedField:
        """Blocks of snapshot ``index`` split across the decomposition's ranks."""
        if not (0 <= index < len(self._iterations)):
            raise IndexError(f"snapshot index {index} out of range")
        domain = self.store.load_iteration(
            self._iterations[index], fields=[field_name], mmap=self.mmap
        )
        return decomposition.decompose(domain.get_field(field_name), field_name)

"""On-disk dataset store: one memory-mappable flat file per iteration."""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid
from repro.io.manifest import DatasetManifest, IterationRecord

#: Byte alignment of each field slab in an iteration file.  64 bytes covers
#: every dtype the store sees and matches cache-line / SIMD-load alignment,
#: so a memory-mapped field behaves like a freshly allocated array.
RAW_ALIGNMENT = 64


class DatasetStore:
    """Persist and reload :class:`~repro.grid.domain.Domain` iterations.

    One layout::

        <root>/
            manifest.json            # grid shape and axes, one record per
                                     # iteration (dtypes, offsets, nbytes)
            iter_0000005000.bin      # one flat file per iteration: each field
                                     # a contiguous C-order slab at a 64-byte-
                                     # aligned offset recorded in the manifest

    Fields are stored uncompressed so they can be read zero-copy:
    ``load_iteration(..., mmap=True)`` maps each field straight off disk
    with ``np.memmap`` (no deserialisation, no copy, pages faulted in on
    first touch), which is what lets cached replays and benchmark gates skip
    re-simulating CM1.  Opening a store parses the JSON manifest and nothing
    else.

    The store is append-only: iterations must be written in increasing order,
    mirroring how a running simulation emits them.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._manifest: Optional[DatasetManifest] = None
        self._grid: Optional[RectilinearGrid] = None

    # -- writing -------------------------------------------------------------

    def create(self, grid: RectilinearGrid, metadata: Optional[Dict] = None) -> None:
        """Initialise an empty store for domains on ``grid``."""
        if self.exists():
            raise FileExistsError(f"a dataset already exists at {self.root}")
        self._manifest = DatasetManifest(
            shape=grid.shape,
            axes={"x": grid.x.tolist(), "y": grid.y.tolist(), "z": grid.z.tolist()},
            metadata=metadata or {},
        )
        self._manifest.save(self.root)

    def append(self, domain: Domain) -> IterationRecord:
        """Append one iteration to the store and update the manifest.

        Fields are stored with their *own* dtype (recorded in the manifest),
        so a float64 dataset round-trips bit-exactly instead of being
        silently squeezed through float32.
        """
        manifest = self.manifest()
        if tuple(domain.shape) != tuple(manifest.shape):
            raise ValueError(
                f"domain shape {domain.shape} does not match stored shape {manifest.shape}"
            )
        if not domain.fields:
            raise ValueError("cannot store a domain with no fields")
        arrays = {name: np.asarray(arr) for name, arr in domain.fields.items()}
        filename = f"iter_{domain.iteration:010d}.bin"
        offsets = self._write_raw(self.root / filename, arrays)
        record = IterationRecord(
            iteration=domain.iteration,
            filename=filename,
            fields=sorted(arrays),
            nbytes=int((self.root / filename).stat().st_size),
            dtypes={name: arr.dtype.str for name, arr in arrays.items()},
            offsets=offsets,
        )
        manifest.add_iteration(record)
        manifest.save(self.root)
        return record

    @staticmethod
    def _write_raw(path: Path, arrays: Dict[str, np.ndarray]) -> Dict[str, int]:
        """Write fields as aligned contiguous slabs; return per-field offsets."""
        offsets: Dict[str, int] = {}
        with open(path, "wb") as fh:
            for name in sorted(arrays):
                position = fh.tell()
                padding = (-position) % RAW_ALIGNMENT
                if padding:
                    fh.write(b"\0" * padding)
                offsets[name] = position + padding
                fh.write(np.ascontiguousarray(arrays[name]).tobytes())
        return offsets

    # -- reading --------------------------------------------------------------

    def exists(self) -> bool:
        """True if a manifest is present under the store root."""
        return (self.root / "manifest.json").exists()

    def nbytes(self) -> int:
        """Total on-disk bytes of the store (manifest and every iteration).

        Measured from the filesystem rather than the manifest's per-record
        ``nbytes`` so it also accounts for the manifest itself — this is the
        number the replay cache's ``max_bytes`` bound charges a cached entry
        for.
        """
        if not self.root.exists():
            return 0
        return sum(
            path.stat().st_size for path in self.root.rglob("*") if path.is_file()
        )

    def delete(self) -> None:
        """Remove the store directory and everything in it (idempotent).

        Open readers survive on POSIX: an ``np.memmap`` holds the inode
        alive until it is unmapped, so eviction of a store that a replay is
        still streaming from only unlinks the names — which is why the
        replay cache additionally refuses to evict entries with registered
        in-flight readers.
        """
        self._manifest = self._grid = None
        shutil.rmtree(self.root, ignore_errors=True)

    def manifest(self) -> DatasetManifest:
        """Return (and cache) the manifest."""
        if self._manifest is None:
            self._manifest = DatasetManifest.load(self.root)
        return self._manifest

    def grid(self) -> RectilinearGrid:
        """Return (and cache) the rectilinear grid; its axes are read-only,
        every loaded iteration shares them."""
        if self._grid is None:
            axes = self.manifest().axes
            grid = RectilinearGrid(axes["x"], axes["y"], axes["z"])
            for axis in (grid.x, grid.y, grid.z):
                axis.flags.writeable = False
            self._grid = grid
        return self._grid

    def iterations(self) -> List[int]:
        """Iteration numbers available in the store."""
        return [rec.iteration for rec in self.manifest().iterations]

    def load_iteration(
        self,
        iteration: int,
        fields: Optional[Iterable[str]] = None,
        mmap: bool = False,
    ) -> Domain:
        """Load one stored iteration as a :class:`Domain`.

        Parameters
        ----------
        iteration:
            Iteration number (as recorded, not a positional index).
        fields:
            Optional subset of field names to load; all stored fields when
            omitted.
        mmap:
            When True, fields are returned as read-only ``np.memmap`` views
            straight off disk — zero copy, zero deserialisation; when False,
            as owned arrays read into memory.
        """
        manifest = self.manifest()
        record = manifest.find(iteration)
        if record is None:
            raise KeyError(f"iteration {iteration} not present in {self.root}")
        wanted = set(fields) if fields is not None else set(record.fields)
        missing = wanted - set(record.fields)
        if missing:
            raise KeyError(f"fields {sorted(missing)} not stored for iteration {iteration}")
        path = self.root / record.filename
        shape = tuple(manifest.shape)
        out: Dict[str, np.ndarray] = {}
        for name in sorted(wanted):
            dtype = np.dtype(record.dtypes[name])
            offset = record.offsets[name]
            if mmap:
                out[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            else:
                out[name] = np.fromfile(
                    path, dtype=dtype, count=int(np.prod(shape)), offset=offset
                ).reshape(shape)
        return Domain(grid=self.grid(), fields=out, iteration=iteration)

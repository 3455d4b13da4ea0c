"""On-disk dataset store (compressed ``.npz`` or mmap-friendly raw layout)."""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid
from repro.io.manifest import LAYOUTS, DatasetManifest, IterationRecord

#: Byte alignment of each field slab in the raw layout.  64 bytes covers
#: every dtype the store sees and matches cache-line / SIMD-load alignment,
#: so a memory-mapped field behaves like a freshly allocated array.
RAW_ALIGNMENT = 64

#: Held around every ``.npz`` read.  ``np.load`` parses each ``.npy`` header
#: with ``ast.literal_eval``, and CPython before 3.11.8 / 3.12.2 keeps the AST
#: converter's recursion depth in interpreter-wide state (gh-106905): two
#: threads parsing at different stack depths fail each other with ``SystemError:
#: AST constructor recursion depth mismatch`` — the thread tier's one-in-
#: thousands ``error`` reply.
_NPZ_READ_LOCK = threading.Lock()


class DatasetStore:
    """Persist and reload :class:`~repro.grid.domain.Domain` iterations.

    Two layouts, recorded in the manifest:

    ``"npz"`` (default)::

        <root>/
            manifest.json
            grid_axes.npz            # x, y, z axes
            iter_0000005000.npz      # one file per iteration, fields as arrays

    ``"raw"``::

        <root>/
            manifest.json
            grid_axes.npz
            iter_0000005000.bin      # one flat file per iteration: each field
                                     # a contiguous C-order slab at a 64-byte-
                                     # aligned offset recorded in the manifest

    The raw layout trades compression for zero-copy reads:
    ``load_iteration(..., mmap=True)`` maps each field straight off disk
    with ``np.memmap`` (no deserialisation, no copy, pages faulted in on
    first touch), which is what lets cached replays and benchmark gates skip
    re-simulating CM1.

    The store is append-only: iterations must be written in increasing order,
    mirroring how a running simulation emits them.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._manifest: Optional[DatasetManifest] = None
        self._grid: Optional[RectilinearGrid] = None

    # -- writing -------------------------------------------------------------

    def create(
        self,
        grid: RectilinearGrid,
        metadata: Optional[Dict] = None,
        layout: str = "npz",
    ) -> None:
        """Initialise an empty store for domains on ``grid``.

        ``layout`` selects the on-disk format (one of
        :data:`~repro.io.manifest.LAYOUTS`); it applies to every iteration
        appended later and is recorded in the manifest.
        """
        if self.exists():
            raise FileExistsError(f"a dataset already exists at {self.root}")
        if layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        self.root.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(self.root / "grid_axes.npz", x=grid.x, y=grid.y, z=grid.z)
        self._manifest = DatasetManifest(
            shape=grid.shape, metadata=metadata or {}, layout=layout
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
        if manifest.layout == "raw":
            filename = f"iter_{domain.iteration:010d}.bin"
            offsets = self._write_raw(self.root / filename, arrays)
        else:
            filename = f"iter_{domain.iteration:010d}.npz"
            np.savez_compressed(self.root / filename, **arrays)
            offsets = {}
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
        """Total on-disk bytes of the store (manifest, grid, every iteration).

        Measured from the filesystem rather than the manifest's per-record
        ``nbytes`` so it also accounts for the manifest and grid files —
        this is the number the replay cache's ``max_bytes`` bound charges a
        cached entry for.
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
            path = self.root / self.manifest().grid_axes_file
            with _NPZ_READ_LOCK, np.load(path) as data:
                grid = RectilinearGrid(data["x"], data["y"], data["z"])
            for axis in (grid.x, grid.y, grid.z):
                axis.flags.writeable = False
            self._grid = grid
        return self._grid

    def iterations(self) -> List[int]:
        """Iteration numbers available in the store."""
        return [rec.iteration for rec in self.manifest().iterations]

    @property
    def layout(self) -> str:
        """On-disk layout of the store ("npz" or "raw")."""
        return self.manifest().layout

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
            When True and the store uses the ``"raw"`` layout, fields are
            returned as read-only ``np.memmap`` views straight off disk —
            zero copy, zero deserialisation.  Compressed ``"npz"`` stores
            cannot be mapped (the archive is zipped), so the flag raises
            there rather than silently degrading.
        """
        manifest = self.manifest()
        record = manifest.find(iteration)
        if record is None:
            raise KeyError(f"iteration {iteration} not present in {self.root}")
        wanted = set(fields) if fields is not None else set(record.fields)
        missing = wanted - set(record.fields)
        if missing:
            raise KeyError(f"fields {sorted(missing)} not stored for iteration {iteration}")
        if mmap and manifest.layout != "raw":
            raise ValueError(
                f"mmap loads require the 'raw' layout, this store uses "
                f"{manifest.layout!r}"
            )
        grid = self.grid()
        if manifest.layout == "raw":
            out = self._load_raw_fields(record, sorted(wanted), manifest.shape, mmap)
        else:
            out = self._load_npz_fields(record, sorted(wanted))
        return Domain(grid=grid, fields=out, iteration=iteration)

    def _load_npz_fields(
        self, record: IterationRecord, names: List[str]
    ) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        with _NPZ_READ_LOCK, np.load(self.root / record.filename) as data:
            for name in names:
                arr = np.asarray(data[name])
                stored_dtype = record.dtypes.get(name)
                if stored_dtype is not None and arr.dtype != np.dtype(stored_dtype):
                    arr = arr.astype(np.dtype(stored_dtype))
                out[name] = arr
        return out

    def _load_raw_fields(
        self,
        record: IterationRecord,
        names: List[str],
        shape: tuple,
        mmap: bool,
    ) -> Dict[str, np.ndarray]:
        path = self.root / record.filename
        out: Dict[str, np.ndarray] = {}
        for name in names:
            stored_dtype = record.dtypes.get(name)
            offset = record.offsets.get(name)
            if stored_dtype is None or offset is None:
                raise ValueError(
                    f"raw-layout record for iteration {record.iteration} lacks "
                    f"dtype/offset for field {name!r}"
                )
            dtype = np.dtype(stored_dtype)
            if mmap:
                out[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=tuple(shape)
                )
            else:
                count = int(np.prod(shape))
                out[name] = np.fromfile(
                    path, dtype=dtype, count=count, offset=offset
                ).reshape(tuple(shape))
        return out

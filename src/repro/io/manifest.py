"""Dataset manifest: the grid, iterations and fields a stored dataset contains."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MANIFEST_FILENAME = "manifest.json"
#: Version 2 records the grid axes in the manifest and knows one layout (one
#: flat ``.bin`` per iteration); version-1 stores are refused, not migrated.
FORMAT_VERSION = 2


@dataclass
class IterationRecord:
    """One stored iteration: a flat binary file of contiguous field slabs.

    ``dtypes`` maps every field name to its NumPy dtype string as stored on
    disk (``np.dtype.str``, e.g. ``"<f8"``), so a load reproduces each
    field's dtype exactly.  ``offsets`` maps every field name to the byte
    offset of its C-order slab inside ``filename`` (aligned for mmap-friendly
    access); the manifest is the sole source of truth for where it starts.
    ``nbytes`` is the file's size, which the replay cache checks before it
    adopts a store.
    """

    iteration: int
    filename: str
    fields: List[str]
    nbytes: int
    dtypes: Dict[str, str]
    offsets: Dict[str, int]

    def validate(self) -> None:
        """Basic consistency checks; raises ``ValueError`` on problems."""
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {self.iteration}")
        if not self.filename:
            raise ValueError("filename must not be empty")
        if not self.fields:
            raise ValueError("an iteration record must list at least one field")
        for name, mapping in (("dtypes", self.dtypes), ("offsets", self.offsets)):
            if set(mapping) != set(self.fields):
                raise ValueError(
                    f"{name} must name exactly the fields {sorted(self.fields)}, "
                    f"got {sorted(mapping)}"
                )
        if any(offset < 0 for offset in self.offsets.values()):
            raise ValueError("field offsets must be >= 0")


@dataclass
class DatasetManifest:
    """Manifest describing a stored dataset.

    Attributes
    ----------
    shape:
        Grid shape shared by every field of every iteration.
    axes:
        The rectilinear grid's ``"x"``, ``"y"`` and ``"z"`` coordinates as
        float lists (JSON floats round-trip float64 bitwise).
    iterations:
        Records of the stored iterations, in storage order.
    metadata:
        Free-form provenance (config used to generate the data, seed, ...).
    """

    shape: Tuple[int, int, int]
    axes: Dict[str, List[float]]
    iterations: List[IterationRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        lengths = tuple(len(self.axes[name]) for name in ("x", "y", "z"))
        if lengths != tuple(self.shape):
            raise ValueError(f"axis lengths {lengths} do not match shape {self.shape}")

    def add_iteration(self, record: IterationRecord) -> None:
        """Append a record, enforcing strictly increasing iteration numbers."""
        record.validate()
        if self.iterations and record.iteration <= self.iterations[-1].iteration:
            raise ValueError(
                f"iteration {record.iteration} is not greater than the last stored "
                f"iteration {self.iterations[-1].iteration}"
            )
        self.iterations.append(record)

    def find(self, iteration: int) -> Optional[IterationRecord]:
        """Return the record for ``iteration`` or ``None``."""
        for rec in self.iterations:
            if rec.iteration == iteration:
                return rec
        return None

    @property
    def niterations(self) -> int:
        """Number of stored iterations."""
        return len(self.iterations)

    # -- (de)serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        payload = asdict(self)
        payload["shape"] = list(self.shape)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        """Parse a manifest from its JSON representation.

        Raises ``ValueError`` for another format version and for a record
        missing one of its fields.
        """
        payload = json.loads(text)
        version = int(payload.get("version", 0))
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported manifest version {version}, expected {FORMAT_VERSION}"
            )
        try:
            iterations = [IterationRecord(**rec) for rec in payload["iterations"]]
        except TypeError as exc:
            raise ValueError(f"malformed iteration record: {exc}") from None
        for record in iterations:
            record.validate()
        return cls(
            shape=tuple(int(v) for v in payload["shape"]),
            axes=payload["axes"],
            iterations=iterations,
            metadata=payload.get("metadata", {}),
            version=version,
        )

    def save(self, directory: Path) -> Path:
        """Write the manifest into ``directory`` and return its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MANIFEST_FILENAME
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, directory: Path) -> "DatasetManifest":
        """Read the manifest stored in ``directory``."""
        path = Path(directory) / MANIFEST_FILENAME
        if not path.exists():
            raise FileNotFoundError(f"no dataset manifest at {path}")
        return cls.from_json(path.read_text())

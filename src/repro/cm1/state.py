"""Model state container for one CM1 iteration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

#: Storage dtype of every model field, hence of every full block payload.
FIELD_DTYPE = np.dtype(np.float32)

#: Field names a full state may carry, with a one-line description each.
KNOWN_FIELDS: Dict[str, str] = {
    "dbz": "simulated radar reflectivity (dBZ)",
    "qr": "rain water mixing ratio (kg/kg)",
    "qs": "snow mixing ratio (kg/kg)",
    "qg": "graupel/hail mixing ratio (kg/kg)",
    "u": "zonal wind (m/s)",
    "v": "meridional wind (m/s)",
    "w": "vertical wind (m/s)",
    "theta": "potential temperature perturbation (K)",
    "prs": "pressure perturbation (Pa)",
}


@dataclass
class ModelState:
    """The prognostic/diagnostic fields of one iteration of the synthetic model.

    Attributes
    ----------
    iteration:
        Simulation iteration number (in internal model iterations, i.e. the
        paper-style counter that starts around 5,000 for the stored dataset).
    shape:
        Grid shape shared by all fields.
    fields:
        Mapping of field name to 3-D float32 array.
    """

    iteration: int
    shape: Tuple[int, int, int]
    fields: Dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, values: np.ndarray) -> None:
        """Add a field, validating its shape and converting to float32."""
        arr = np.asarray(values, dtype=FIELD_DTYPE)
        if tuple(arr.shape) != tuple(self.shape):
            raise ValueError(
                f"field {name!r} has shape {arr.shape}, expected {self.shape}"
            )
        self.fields[name] = arr

    def get(self, name: str) -> np.ndarray:
        """Return field ``name`` (raises ``KeyError`` if missing)."""
        return self.fields[name]

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def names(self):
        """Names of the fields present in this state."""
        return list(self.fields.keys())

    def nbytes(self) -> int:
        """Total memory footprint of the stored fields."""
        return int(sum(a.nbytes for a in self.fields.values()))

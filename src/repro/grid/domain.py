"""The domain container.

A :class:`Domain` bundles the rectilinear grid geometry with one or more named
full-domain field arrays (the way a single CM1 iteration looks once written
out).  A process's share of a field is cut out by
:class:`~repro.grid.decomposition.CartesianDecomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.grid.rectilinear import RectilinearGrid


@dataclass
class Domain:
    """The full 3-D domain produced by the simulation at one iteration.

    Attributes
    ----------
    grid:
        Rectilinear grid geometry for the whole domain.
    fields:
        Mapping field name -> full-domain array of shape ``grid.shape``.
    iteration:
        Simulation iteration number this snapshot corresponds to.
    """

    grid: RectilinearGrid
    fields: Dict[str, np.ndarray] = field(default_factory=dict)
    iteration: int = 0

    def __post_init__(self) -> None:
        for name, arr in list(self.fields.items()):
            self.fields[name] = self._validate_field(name, arr)

    def _validate_field(self, name: str, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if tuple(arr.shape) != self.grid.shape:
            raise ValueError(
                f"field {name!r} has shape {arr.shape}, expected {self.grid.shape}"
            )
        return arr

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Shape of the domain (number of grid points per axis)."""
        return self.grid.shape

    def get_field(self, name: str) -> np.ndarray:
        """Return the array for field ``name`` (raises ``KeyError`` if absent)."""
        return self.fields[name]

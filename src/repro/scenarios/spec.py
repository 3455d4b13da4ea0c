"""The parameter record of one workload.

:class:`ScenarioConfig` is the canonical parameter record of one workload —
rank count, grid shape, block decomposition, snapshot count, and the storm
structure driving the synthetic CM1 data.  The named ones are the rows of
:data:`~repro.scenarios.catalog.CATALOGUE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["TINY_SHAPE", "ScenarioConfig"]

#: The unit-test grid of the catalogue's ``tiny`` workload; tests shrink any
#: workload to it.
TINY_SHAPE: Tuple[int, int, int] = (44, 44, 12)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of an experiment scenario.

    Hashable (the storm override is a frozen dataclass), so a fully resolved
    config is usable as a cache key — scenario identity *is* the config.
    """

    ncores: int = 64
    shape: Tuple[int, int, int] = (220, 220, 38)
    blocks_per_subdomain: Tuple[int, int, int] = (2, 2, 2)
    nsnapshots: int = 10
    isosurface_level: float = 45.0
    field_name: str = "dbz"
    seed: int = 2016
    #: Optional storm-structure override (None = CM1Config's default supercell).
    storm: Optional[object] = None
    #: Catalogue name the config was built from ("" for ad-hoc configs).
    name: str = ""

    def __post_init__(self) -> None:
        if self.ncores < 1:
            raise ValueError(f"ncores must be >= 1, got {self.ncores}")
        if self.nsnapshots < 1:
            raise ValueError(f"nsnapshots must be >= 1, got {self.nsnapshots}")


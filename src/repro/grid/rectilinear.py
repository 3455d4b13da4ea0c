"""Rectilinear grid geometry.

CM1 simulates its phenomena on a fixed 3-D *rectilinear* grid: axis
coordinates are monotonically increasing but not necessarily uniformly spaced
(the paper notes that border blocks look longer in the scoremaps because the
grid is stretched near the domain boundary).  This module provides that
geometry: per-axis coordinate arrays plus helpers to build uniform or
boundary-stretched axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def uniform_axis(n: int, extent: float, origin: float = 0.0) -> np.ndarray:
    """Return ``n`` uniformly spaced coordinates spanning ``extent`` from ``origin``."""
    if n < 1:
        raise ValueError(f"axis must have at least 1 point, got {n}")
    if extent <= 0:
        raise ValueError(f"extent must be > 0, got {extent}")
    return origin + np.linspace(0.0, extent, n)


def stretched_axis(
    n: int,
    inner_extent: float,
    stretch_factor: float = 3.0,
    stretch_fraction: float = 0.15,
    origin: float = 0.0,
) -> np.ndarray:
    """Return a CM1-style stretched axis.

    The central ``1 - 2*stretch_fraction`` of the points are uniformly spaced
    over ``inner_extent``; the outer points on each side use geometrically
    growing spacing up to ``stretch_factor`` times the inner spacing.  This
    mimics CM1's practice of using a fine uniform mesh around the storm and a
    coarser mesh toward the lateral boundaries.
    """
    if n < 4:
        raise ValueError(f"stretched axis needs at least 4 points, got {n}")
    if not (0.0 <= stretch_fraction < 0.5):
        raise ValueError(f"stretch_fraction must be in [0, 0.5), got {stretch_fraction}")
    if stretch_factor < 1.0:
        raise ValueError(f"stretch_factor must be >= 1, got {stretch_factor}")
    n_outer = int(round(n * stretch_fraction))
    n_inner = n - 2 * n_outer
    if n_inner < 2:
        n_inner = 2
        n_outer = (n - n_inner) // 2
    dx = inner_extent / max(n_inner - 1, 1)
    inner = np.arange(n_inner) * dx
    if n_outer == 0:
        return origin + inner
    # Geometric growth of spacing from dx to stretch_factor*dx over n_outer cells.
    ratios = np.linspace(1.0, stretch_factor, n_outer)
    outer_spacing = dx * ratios
    right = inner[-1] + np.cumsum(outer_spacing)
    left = inner[0] - np.cumsum(outer_spacing[::-1])[::-1]
    axis = np.concatenate([left, inner, right])
    return origin + (axis - axis[0])


@dataclass(frozen=True)
class RectilinearGrid:
    """A 3-D rectilinear grid defined by per-axis coordinate arrays.

    Attributes
    ----------
    x, y, z:
        Monotonically increasing coordinate arrays.  The grid has
        ``(len(x), len(y), len(z))`` points.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        for name, axis in (("x", self.x), ("y", self.y), ("z", self.z)):
            arr = np.asarray(axis, dtype=np.float64)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} axis must be a non-empty 1-D array")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} axis must be strictly increasing")
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(
        cls,
        shape: Tuple[int, int, int],
        extent: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> "RectilinearGrid":
        """Build a uniform grid with ``shape`` points spanning ``extent``."""
        nx, ny, nz = shape
        ex, ey, ez = extent
        return cls(uniform_axis(nx, ex), uniform_axis(ny, ey), uniform_axis(nz, ez))

    @classmethod
    def cm1_like(
        cls,
        shape: Tuple[int, int, int],
        horizontal_extent_km: float = 120.0,
        vertical_extent_km: float = 20.0,
        stretch_factor: float = 3.0,
        stretch_fraction: float = 0.12,
    ) -> "RectilinearGrid":
        """Build a CM1-like grid: stretched horizontally, uniform vertically."""
        nx, ny, nz = shape
        return cls(
            stretched_axis(nx, horizontal_extent_km, stretch_factor, stretch_fraction),
            stretched_axis(ny, horizontal_extent_km, stretch_factor, stretch_fraction),
            uniform_axis(nz, vertical_extent_km),
        )

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Number of grid points along each axis."""
        return (self.x.size, self.y.size, self.z.size)

    @property
    def npoints(self) -> int:
        """Total number of grid points."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def extent(self) -> Tuple[float, float, float]:
        """Physical extent spanned along each axis."""
        return (
            float(self.x[-1] - self.x[0]),
            float(self.y[-1] - self.y[0]),
            float(self.z[-1] - self.z[0]),
        )

    def spacing(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis spacing arrays (each of length ``n-1``)."""
        return (np.diff(self.x), np.diff(self.y), np.diff(self.z))

    def meshgrid(self, indexing: str = "ij"):
        """Return the full 3-D coordinate mesh (memory: 3 × npoints floats)."""
        return np.meshgrid(self.x, self.y, self.z, indexing=indexing)

    def cell_volumes(self) -> np.ndarray:
        """Volumes of the ``(nx-1, ny-1, nz-1)`` cells of the grid."""
        dx, dy, dz = self.spacing()
        return dx[:, None, None] * dy[None, :, None] * dz[None, None, :]

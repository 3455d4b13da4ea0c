"""Colormaps for 2-D scalar images."""

from __future__ import annotations

from typing import Optional

import numpy as np


def _normalise(values: np.ndarray, vmin: Optional[float], vmax: Optional[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    lo = float(arr.min()) if vmin is None else float(vmin)
    hi = float(arr.max()) if vmax is None else float(vmax)
    if hi <= lo:
        return np.zeros_like(arr)
    return np.clip((arr - lo) / (hi - lo), 0.0, 1.0)


def grayscale(
    values: np.ndarray, vmin: Optional[float] = None, vmax: Optional[float] = None
) -> np.ndarray:
    """Map a scalar array to greyscale intensities in [0, 1]."""
    return _normalise(values, vmin, vmax)


#: Control points (position, r, g, b) of a perceptually-ordered colormap
#: approximating viridis.
_VIRIDIS_POINTS = np.array(
    [
        (0.00, 0.267, 0.005, 0.329),
        (0.25, 0.229, 0.322, 0.546),
        (0.50, 0.128, 0.567, 0.551),
        (0.75, 0.369, 0.789, 0.383),
        (1.00, 0.993, 0.906, 0.144),
    ]
)


def viridis_like(
    values: np.ndarray, vmin: Optional[float] = None, vmax: Optional[float] = None
) -> np.ndarray:
    """Map a scalar array to RGB in [0, 1] with a viridis-like colormap.

    Returns an array of shape ``values.shape + (3,)``.
    """
    norm = _normalise(values, vmin, vmax)
    positions = _VIRIDIS_POINTS[:, 0]
    out = np.empty(norm.shape + (3,), dtype=np.float64)
    for c in range(3):
        out[..., c] = np.interp(norm, positions, _VIRIDIS_POINTS[:, c + 1])
    return out


def apply_colormap(
    values: np.ndarray,
    cmap: str = "gray",
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> np.ndarray:
    """Apply a named colormap (``"gray"`` or ``"viridis"``) to a scalar array."""
    if cmap == "gray":
        return grayscale(values, vmin, vmax)
    if cmap == "viridis":
        return viridis_like(values, vmin, vmax)
    raise ValueError(f"unknown colormap {cmap!r}; available: 'gray', 'viridis'")

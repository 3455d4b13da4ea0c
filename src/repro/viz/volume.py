"""A volume-rendering-style projection.

The paper's Figure 1(a,b) shows a volume rendering of the reflectivity; the
Figure 1 reproduction draws it as a maximum-intensity projection along a
principal axis, fully vectorised.  The expensive scenario the adaptive
pipeline controls remains the isosurface rendering.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def volume_max_projection(
    field: np.ndarray,
    axis: int = 2,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> np.ndarray:
    """Maximum-intensity projection of ``field`` along ``axis``, normalised to [0, 1]."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError(f"field must be 3-D, got shape {f.shape}")
    if not (0 <= axis <= 2):
        raise ValueError(f"axis must be 0, 1, or 2, got {axis}")
    mip = f.max(axis=axis)
    lo = float(f.min()) if vmin is None else float(vmin)
    hi = float(f.max()) if vmax is None else float(vmax)
    if hi <= lo:
        return np.zeros_like(mip)
    return np.clip((mip - lo) / (hi - lo), 0.0, 1.0)


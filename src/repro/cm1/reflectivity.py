"""Radar reflectivity diagnostic.

CM1 derives its ``dbz`` output from the rain, snow, and hail/graupel mixing
ratios ("It derives from a calculation based on cloud rain, hail, and snow
microphysical variables", Section II-A).  We follow the same structure as
CM1's ``dbzcalc`` (itself based on Smith, Myers & Orville 1975): each species
contributes an equivalent reflectivity factor ``Z`` proportional to a power of
its rain-water content, the contributions are summed, and the result is
converted to decibels.

The exact coefficients matter less than the structural properties the paper
relies on:

* values fall in a **known physical range** ([-60, 80] dBZ) — required by the
  histogram-entropy metric, which needs a common histogram range across all
  processes;
* the logarithmic transform compresses the quiet background to a constant
  floor (-60 dBZ) while the storm interior spans tens of dBZ, reproducing the
  strong contrast between interesting and uninteresting blocks.

Both functions are elementwise over their inputs, so a caller may convert a
snapshot slab by slab (as :meth:`~repro.cm1.simulation.CM1Simulation.snapshot`
does) and get the bytes the whole grid gives.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Physical clipping range of the reflectivity field (dBZ), as in the paper.
DBZ_MIN: float = -60.0
DBZ_MAX: float = 80.0

# Z = a * (rho * q)^b  with q in kg/kg and rho in kg/m^3 (so rho*q in kg/m^3,
# converted to g/m^3 inside).  The air density is taken as 1 kg/m^3, so the
# content is q itself.  Coefficients follow the classic Smith et al.
# formulation used by CM1 and WRF's dbzcalc for rain, dry snow, and hail.
_SPECIES_COEFFS = {
    "qr": (3.63e9, 1.75),   # rain
    "qs": (9.80e8, 1.75),   # dry snow (scaled for density ratio)
    "qg": (4.33e10, 1.75),  # hail / graupel
}


def equivalent_reflectivity(mixing_ratios: Dict[str, np.ndarray]) -> np.ndarray:
    """Sum the per-species equivalent reflectivity factors (mm^6/m^3).

    Unknown species names in ``mixing_ratios`` are ignored so callers can pass
    a full state dictionary.  The species arrays may have different
    broadcastable shapes; they are never written to.
    """
    z_total: np.ndarray | None = None
    for name, (a, b) in _SPECIES_COEFFS.items():
        q = mixing_ratios.get(name)
        if q is None:
            continue
        # a * clip(q, 0) ** b, in one fresh buffer.
        z = np.clip(np.asarray(q, dtype=np.float64), 0.0, None, out=np.empty(np.shape(q)))
        np.power(z, b, out=z)
        z *= a
        if z_total is None:
            z_total = z
        elif z_total.shape == np.broadcast_shapes(z_total.shape, z.shape):
            z_total += z
        else:
            z_total = z_total + z
    if z_total is None:
        raise ValueError(
            f"no known hydrometeor species found; expected one of {list(_SPECIES_COEFFS)}"
        )
    return z_total


def reflectivity_dbz(mixing_ratios: Dict[str, np.ndarray]) -> np.ndarray:
    """Convert mixing ratios to radar reflectivity in dBZ, clipped to the
    physical [-60, 80] dBZ range.

    Parameters
    ----------
    mixing_ratios:
        Mapping with any of ``"qr"``, ``"qs"``, ``"qg"`` arrays (kg/kg).

    Returns
    -------
    numpy.ndarray
        dBZ field with the same shape as the inputs (float64).
    """
    # The Z field is a fresh buffer: 10 * log10(max(Z, floor)) is computed
    # in place.  The floor is the value of DBZ_MIN, which avoids log10(0).
    dbz = equivalent_reflectivity(mixing_ratios)
    z_floor = 10.0 ** (DBZ_MIN / 10.0)
    np.maximum(dbz, z_floor, out=dbz)
    np.log10(dbz, out=dbz)
    dbz *= 10.0
    np.clip(dbz, DBZ_MIN, DBZ_MAX, out=dbz)
    return dbz

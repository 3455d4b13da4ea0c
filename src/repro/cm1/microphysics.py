"""Synthetic microphysics: hydrometeor mixing ratios from storm envelopes.

Real CM1 predicts rain, snow, graupel/hail mixing ratios through a bulk
microphysics scheme.  Here the mixing ratios are *diagnosed* from the storm
envelope functions plus seeded, band-limited turbulence, calibrated so that
the resulting reflectivity spans the physical dBZ range and is spatially
turbulent inside the storm (high entropy / variance / poor compressibility)
and quiet outside — which is what the scoring metrics key on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import ndimage

from repro.cm1.config import StormConfig
from repro.cm1.storm import SupercellStorm
from repro.utils.random import derive_seed, rng_from_seed


def correlated_noise(
    shape: Tuple[int, int, int], sigma_points: float, seed: int
) -> np.ndarray:
    """Band-limited (Gaussian-smoothed) unit-variance noise field.

    Parameters
    ----------
    shape:
        Output grid shape.
    sigma_points:
        Smoothing length in grid points; larger values give smoother fields.
    seed:
        RNG seed; the same seed always yields the same field.
    """
    rng = rng_from_seed(seed)
    white = rng.standard_normal(shape)
    if sigma_points > 0:
        smooth = ndimage.gaussian_filter(white, sigma=sigma_points, mode="nearest")
    else:
        smooth = white
    std = smooth.std()
    if std > 0:
        smooth /= std
    return smooth


def perturb(
    envelope: np.ndarray, noise: np.ndarray, turbulence: float, peak: float
) -> np.ndarray:
    """``peak * clip(envelope * (1 + turbulence * noise), 0)``, in place.

    A multiplicative perturbation confined to where the envelope is
    significant, so the far field stays exactly quiet.  ``noise`` is a
    float64 field the caller owns (a :func:`correlated_noise` draw), at least
    as large as ``envelope``: it is overwritten with the result and returned.
    ``envelope`` is only read.
    """
    noise *= turbulence
    noise += 1.0
    noise *= envelope
    np.clip(noise, 0.0, None, out=noise)
    noise *= peak
    return noise


class Microphysics:
    """Diagnoses hydrometeor mixing ratios for the synthetic supercell."""

    #: Peak rain mixing ratio inside the core (kg/kg).
    QR_MAX = 8.0e-3
    #: Peak snow mixing ratio in the anvil (kg/kg).
    QS_MAX = 3.0e-3
    #: Peak graupel/hail mixing ratio in the core (kg/kg).
    QG_MAX = 10.0e-3

    def __init__(self, storm: SupercellStorm, seed: int = 2016) -> None:
        self.storm = storm
        self.seed = int(seed)

    def mixing_ratios(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> Dict[str, np.ndarray]:
        """Return ``{"qr", "qs", "qg"}`` mixing-ratio fields on the mesh.

        ``xn, yn, zn`` are broadcastable normalised coordinates, typically the
        open mesh ``np.meshgrid(..., indexing="ij", sparse=True)``; every field
        comes back with the full shape ``np.broadcast(xn, yn, zn).shape``.
        The fields are non-negative, zero (to machine precision) far from the
        storm, and turbulent inside it.
        """
        cfg: StormConfig = self.storm.config
        env = self.storm.envelopes(xn, yn, zn, iteration)
        shape = np.broadcast(xn, yn, zn).shape
        geo = self.storm.geometry(iteration)

        # Turbulence correlation length in grid points along the first axis.
        sigma = max(1.0, cfg.turbulence_scale * geo.radius * shape[0])
        turb_r = correlated_noise(shape, sigma, derive_seed(self.seed, "qr", iteration))
        turb_s = correlated_noise(shape, sigma * 1.5, derive_seed(self.seed, "qs", iteration))
        turb_g = correlated_noise(shape, sigma * 0.7, derive_seed(self.seed, "qg", iteration))

        # core * (1 - 0.85 * weak_echo), in one buffer.
        core = env["weak_echo"] * -0.85
        core += 1.0
        core *= env["core"]
        hook = env["hook"]
        anvil = env["anvil"]

        t = cfg.turbulence
        qr = perturb(core + 0.8 * hook, turb_r, t, self.QR_MAX)
        qs = perturb(anvil + 0.15 * core, turb_s, t, self.QS_MAX)
        qg = perturb(0.75 * core + 0.5 * hook, turb_g, t, self.QG_MAX)
        return {"qr": qr, "qs": qs, "qg": qg}

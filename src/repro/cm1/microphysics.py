"""Synthetic microphysics: hydrometeor mixing ratios from storm envelopes.

Real CM1 predicts rain, snow, graupel/hail mixing ratios through a bulk
microphysics scheme.  Here the mixing ratios are *diagnosed* from the storm
envelope functions plus seeded, band-limited turbulence, calibrated so that
the resulting reflectivity spans the physical dBZ range and is spatially
turbulent inside the storm (high entropy / variance / poor compressibility)
and quiet outside — which is what the scoring metrics key on.

The contract splits a snapshot in two.  The turbulence is global:
:meth:`Microphysics.turbulence` draws three whole-grid fields, because the
RNG stream, the Gaussian filter and the normalising ``std`` each depend on
the whole grid.  Everything else is elementwise:
:meth:`Microphysics.mixing_ratios` evaluates the envelopes and perturbs the
turbulence on any mesh slab it is handed, so a caller may walk the grid slab
by slab and get the bytes the whole grid gives.

SciPy is imported inside :func:`correlated_noise`, the one place that filters,
so ``import repro`` maps none of it: a process that only replays stored
snapshots, such as a pool worker of ``repro serve --execution process``, never
loads SciPy, and a process that draws CM1 loads it on its first snapshot.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.cm1.storm import SupercellStorm
from repro.utils.random import derive_seed, rng_from_seed


def correlated_noise(
    shape: Tuple[int, int, int],
    sigma_points: float,
    seed: int,
    out: Optional[np.ndarray] = None,
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
    out:
        Optional C-contiguous float64 array of ``shape`` to draw into; it is
        returned.  The field is the same either way.
    """
    from scipy import ndimage  # here, not at the top: see the module docstring

    # One buffer: the filter runs in place, as scipy runs its second and
    # third axis passes anyway.
    noise = rng_from_seed(seed).standard_normal(shape, out=out)
    if sigma_points > 0:
        ndimage.gaussian_filter(noise, sigma=sigma_points, mode="nearest", output=noise)
    std = noise.std()
    if std > 0:
        noise /= std
    return noise


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

    def turbulence(self, shape: Tuple[int, int, int], iteration: int) -> np.ndarray:
        """The ``qr``, ``qs`` and ``qg`` turbulence fields of the whole grid,
        stacked as one ``(3, *shape)`` float64 array.

        The one global step of a snapshot: each field is a
        :func:`correlated_noise` draw of the full ``shape``, smoothed over a
        correlation length taken from the full grid's ``shape[0]``.
        """
        geo = self.storm.geometry(iteration)
        # Turbulence correlation length in grid points along the first axis.
        sigma = max(1.0, self.storm.config.turbulence_scale * geo.radius * shape[0])
        # One allocation, not three: on a blue_waters_64 grid it is 44 MB,
        # above glibc's 32 MB ceiling for serving a request from the heap, so
        # it is mapped and handed back whole when freed.  Three 15 MB fields
        # left freed holes in the heap: insitu_adaptive's peak RSS then read
        # 172-179 or 203-206 MB by run (10 runs), and 164.7-165.1 MB on each
        # of 10 runs with the one buffer.
        fields = np.empty((3, *shape))
        for field, name, factor in zip(fields, ("qr", "qs", "qg"), (1.0, 1.5, 0.7)):
            correlated_noise(shape, sigma * factor, derive_seed(self.seed, name, iteration), field)
        return fields

    def mixing_ratios(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
        turbulence: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Return ``{"qr", "qs", "qg"}`` mixing-ratio fields on the mesh.

        ``xn, yn, zn`` are broadcastable normalised coordinates, typically a
        slab of the open mesh ``np.meshgrid(..., indexing="ij", sparse=True)``;
        ``turbulence`` is the matching slab of :meth:`turbulence`'s three
        fields (``turbulence[:, lo:hi]``), each of the full shape
        ``np.broadcast(xn, yn, zn).shape``.  Every step is elementwise, and
        the turbulence fields are overwritten with the mixing ratios, which
        are returned.  The fields are non-negative, zero (to machine
        precision) far from the storm, and turbulent inside it.
        """
        env = self.storm.envelopes(xn, yn, zn, iteration)
        turb_r, turb_s, turb_g = turbulence

        # core * (1 - 0.85 * weak_echo), in one buffer.
        core = env["weak_echo"] * -0.85
        core += 1.0
        core *= env["core"]
        hook = env["hook"]
        anvil = env["anvil"]

        t = self.storm.config.turbulence
        qr = perturb(core + 0.8 * hook, turb_r, t, self.QR_MAX)
        qs = perturb(anvil + 0.15 * core, turb_s, t, self.QS_MAX)
        qg = perturb(0.75 * core + 0.5 * hook, turb_g, t, self.QG_MAX)
        return {"qr": qr, "qs": qs, "qg": qg}

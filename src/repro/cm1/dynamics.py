"""Synthetic wind and thermodynamic fields.

The paper mentions streamline visualization of wind vectors as one of the 3-D
scenarios scientists use (Section IV-B); the wind field here provides that
capability for the examples.  The construction is
a storm-relative flow: low-level inflow, a rotating updraft column (Rankine
vortex) collocated with the mesocyclone, and upper-level outflow feeding the
anvil.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cm1.storm import SupercellStorm


class WindField:
    """Diagnoses (u, v, w) and buoyancy-related fields from the storm structure."""

    #: Peak updraft speed (m/s) — strong supercell updrafts reach 50+ m/s.
    W_MAX = 55.0
    #: Environmental low-level inflow speed (m/s).
    INFLOW = 12.0
    #: Peak tangential speed of the mesocyclone (m/s).
    V_ROT = 35.0
    #: Peak potential-temperature perturbation in the updraft core (K).
    THETA_MAX = 8.0

    def __init__(self, storm: SupercellStorm) -> None:
        self.storm = storm

    def winds(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> Dict[str, np.ndarray]:
        """Return ``{"u", "v", "w", "theta"}`` on the normalised mesh.

        ``xn, yn, zn`` are broadcastable normalised coordinates, typically the
        open mesh ``np.meshgrid(..., indexing="ij", sparse=True)``: the vortex
        is computed on ``(nx, ny, 1)``, the environmental profiles on
        ``(1, 1, nz)``, and every field comes back with the full shape
        ``np.broadcast(xn, yn, zn).shape``.
        """
        geo = self.storm.geometry(iteration)
        env = self.storm.envelopes(xn, yn, zn, iteration)
        cx, cy = geo.center
        r_core = max(geo.radius * 0.45, 1e-6)

        dx = xn - cx
        dy = yn - cy
        rho = np.sqrt(dx**2 + dy**2)

        # Rankine vortex: solid-body rotation inside r_core, 1/r decay outside.
        with np.errstate(divide="ignore", invalid="ignore"):
            tangential = np.where(
                rho <= r_core,
                self.V_ROT * rho / r_core,
                self.V_ROT * r_core / np.maximum(rho, 1e-12),
            )
        # Rotation confined to low/mid levels, scaled by storm intensity.
        rot_profile = np.exp(-((zn / 0.5) ** 2)) * geo.intensity
        with np.errstate(divide="ignore", invalid="ignore"):
            ct = np.where(rho > 1e-12, dx / np.maximum(rho, 1e-12), 0.0)
            st = np.where(rho > 1e-12, dy / np.maximum(rho, 1e-12), 0.0)
        u_rot = -tangential * st * rot_profile
        v_rot = tangential * ct * rot_profile

        # Environmental inflow: easterly at low levels veering with height.
        u_env = -self.INFLOW * np.exp(-((zn / 0.3) ** 2)) + 18.0 * zn
        v_env = 6.0 * np.sin(np.pi * zn)

        # Updraft and compensating anvil outflow.
        w = self.W_MAX * env["updraft"]
        u_out = 20.0 * env["anvil"]

        theta = self.THETA_MAX * env["updraft"]

        return {
            "u": u_rot + u_env + u_out,
            "v": v_rot + v_env,
            "w": w,
            "theta": theta,
        }

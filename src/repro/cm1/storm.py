"""Analytic descriptions of time-evolving storm structures.

Every storm family is described in *normalised* coordinates (the horizontal
domain is the unit square, the vertical axis the unit interval) by a set of
smooth envelope functions:

* a precipitation **core** centred at the (moving) storm centre;
* a **hook echo** — a curved appendage wrapping around the mesocyclone,
  characteristic of supercells and of the vortex region the paper's
  scientists care about;
* a **weak echo region** (bounded weak echo vault) — a reflectivity minimum
  just above the low-level inflow, carved out of the core (the 45 dBZ
  isosurface around it is exactly what the paper renders);
* an **anvil** — upper-level reflectivity spread downwind of the core.

These envelopes are combined by the microphysics into hydrometeor mixing
ratios.  All functions broadcast over an open coordinate mesh
(``np.meshgrid(..., indexing="ij", sparse=True)``): horizontal terms are
evaluated on ``(nx, ny, 1)``, vertical profiles on ``(1, 1, nz)``, and only
their products fill the full grid.

Beyond the paper's single supercell, this module provides parameterised
generators for other storm *families* — a squall line
(:class:`SquallLineStorm`), a multi-cell cluster (:class:`MultiCellStorm`),
a turbulence-only field (:class:`TurbulenceFieldStorm`), and a decaying
supercell (:class:`DecayingStorm`) — all sharing the supercell's envelope
contract, so the microphysics and every downstream pipeline step work
unchanged on any family.  :func:`make_storm` dispatches a
:class:`~repro.cm1.config.StormConfig` (or subclass) to its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

import numpy as np

from repro.cm1.config import (
    DecayingStormConfig,
    MultiCellConfig,
    SquallLineConfig,
    StormConfig,
    TurbulenceFieldConfig,
)
from repro.utils.random import derive_seed, rng_from_seed


@dataclass(frozen=True)
class StormGeometry:
    """The storm's geometric state at one iteration."""

    center: Tuple[float, float]
    radius: float
    intensity: float
    rotation_angle: float


class SupercellStorm:
    """Time-evolving synthetic supercell.

    Parameters
    ----------
    config:
        Storm parameters (initial position, motion, growth, rotation, ...).
    """

    def __init__(self, config: StormConfig) -> None:
        self.config = config

    # -- geometric evolution -------------------------------------------------

    def geometry(self, iteration: int) -> StormGeometry:
        """Return the storm geometry at ``iteration`` (0-based snapshot index)."""
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        cfg = self.config
        cx = cfg.initial_center[0] + cfg.motion_per_iteration[0] * iteration
        cy = cfg.initial_center[1] + cfg.motion_per_iteration[1] * iteration
        # Keep the storm inside the domain: reflect at the borders.
        cx = float(np.clip(cx, 0.1, 0.9))
        cy = float(np.clip(cy, 0.1, 0.9))
        radius = min(
            cfg.max_radius,
            cfg.initial_radius + cfg.radius_growth_per_iteration * iteration,
        )
        # Intensity ramps up over the first iterations then saturates.
        intensity = float(1.0 - np.exp(-(iteration + 5) / 12.0))
        rotation_angle = 0.15 * iteration
        return StormGeometry((cx, cy), float(radius), intensity, float(rotation_angle))

    # -- envelope fields -------------------------------------------------------

    def envelopes(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> dict:
        """Evaluate the storm envelope fields on a normalised coordinate mesh.

        Parameters
        ----------
        xn, yn, zn:
            Broadcastable normalised coordinates in [0, 1], typically the
            open mesh ``np.meshgrid(..., indexing="ij", sparse=True)`` on
            normalised axes (a dense mesh gives the same values).
        iteration:
            Snapshot index.

        Returns
        -------
        dict
            ``{"core", "hook", "weak_echo", "anvil"}`` — each in
            [0, 1] and each of the full shape ``np.broadcast(xn, yn, zn).shape``
            even when it does not vary along some axis (callers combine them
            with ``out=`` ufuncs).  Every family keeps this contract.
        """
        geo = self.geometry(iteration)
        cfg = self.config
        cx, cy = geo.center
        r = geo.radius

        dx = xn - cx
        dy = yn - cy
        rho = np.sqrt(dx**2 + dy**2)
        theta = np.arctan2(dy, dx)

        # Vertical profile: maximum at core_height, decaying over core_depth.
        zprof = np.exp(-(((zn - cfg.core_height) / (0.5 * cfg.core_depth)) ** 2))
        # Low-level profile used by the hook (hook echoes are low-level features).
        zlow = np.exp(-((zn / (0.35 * cfg.core_depth)) ** 2))
        # Upper-level profile for the anvil.
        zhigh = np.exp(-(((zn - 0.8) / 0.18) ** 2))

        # Precipitation core: smooth radial falloff.
        core = np.exp(-((rho / r) ** 2)) * zprof

        # Hook echo: a logarithmic-spiral ridge wrapping around the mesocyclone.
        spiral_r = r * (0.55 + 0.35 * ((theta + geo.rotation_angle) % (2 * np.pi)) / (2 * np.pi))
        hook = (
            cfg.rotation_strength
            * np.exp(-(((rho - spiral_r) / (0.25 * r)) ** 2))
            * np.exp(-((rho / (1.6 * r)) ** 2))
            * zlow
        )

        # Weak echo region: a vault carved out on the inflow flank, slightly
        # below the core maximum.
        wx = cx + 0.35 * r
        wy = cy - 0.2 * r
        wrad = cfg.weak_echo_radius * r
        wdist2 = ((xn - wx) ** 2 + (yn - wy) ** 2) / max(wrad**2, 1e-12)
        wvert = np.exp(-(((zn - 0.22) / 0.16) ** 2))
        weak_echo = np.exp(-wdist2) * wvert

        # Anvil: elongated downwind (positive x) at upper levels.
        anvil = (
            cfg.anvil_strength
            * np.exp(-((dy / (1.2 * r)) ** 2))
            * np.exp(-(((dx - 1.2 * r) / (2.5 * r)) ** 2))
            * zhigh
        )

        scale = geo.intensity
        return {
            "core": scale * core,
            "hook": scale * hook,
            "weak_echo": weak_echo,
            "anvil": scale * anvil,
        }


class SquallLineStorm(SupercellStorm):
    """An elongated multi-core band (squall line).

    The precipitation core is a flat-topped band through the storm centre,
    oriented at ``config.orientation_deg``, with ``config.ncells``
    reflectivity maxima embedded along it.  The weak echo region sits along
    the band's leading edge (the squall line's inflow notch), and the anvil
    trails behind the band as a stratiform region.
    """

    config: SquallLineConfig

    def envelopes(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> dict:
        geo = self.geometry(iteration)
        cfg = self.config
        cx, cy = geo.center

        phi = np.deg2rad(cfg.orientation_deg)
        cphi, sphi = np.cos(phi), np.sin(phi)
        # Along-band (s) and across-band (t) coordinates.
        s = (xn - cx) * cphi + (yn - cy) * sphi
        t = -(xn - cx) * sphi + (yn - cy) * cphi

        half = 0.5 * cfg.line_length
        # Flat-topped along-band envelope (quartic falloff past the ends).
        along = np.exp(-((s / (0.8 * half)) ** 4))
        across = np.exp(-((t / cfg.line_width) ** 2))

        zprof = np.exp(-(((zn - cfg.core_height) / (0.5 * cfg.core_depth)) ** 2))
        zlow = np.exp(-((zn / (0.35 * cfg.core_depth)) ** 2))
        zhigh = np.exp(-(((zn - 0.8) / 0.18) ** 2))

        # Embedded cores: a cosine modulation drifting slowly along the band
        # (new cells form at one end as old ones decay, as real lines do).
        cell_phase = 2.0 * np.pi * cfg.ncells * (s + half) / cfg.line_length
        cells = 0.5 * (1.0 + np.cos(cell_phase - 0.4 * geo.rotation_angle))
        core = along * across * zprof * (1.0 - cfg.cell_contrast * (1.0 - cells))

        # Weak mesocyclones on the embedded cores (line-end vortices).
        hook = cfg.rotation_strength * core * cells * zlow

        # Inflow notch ahead of the band (positive t side), low levels.
        notch = np.exp(-(((t - 2.0 * cfg.line_width) / cfg.line_width) ** 2))
        weak_echo = notch * along * np.exp(-(((zn - 0.22) / 0.16) ** 2))

        # Trailing stratiform anvil behind the band (negative t side).
        anvil = (
            cfg.anvil_strength
            * along
            * np.exp(-(((t + 3.0 * cfg.line_width) / (4.0 * cfg.line_width)) ** 2))
            * zhigh
        )

        scale = geo.intensity
        return {
            "core": scale * core,
            "hook": scale * hook,
            "weak_echo": weak_echo,
            "anvil": scale * anvil,
        }


class MultiCellStorm(SupercellStorm):
    """``config.ncells`` displaced supercells evolving as one cluster.

    Each cell is a full :class:`SupercellStorm` whose centre, radius, and
    intensity are drawn deterministically from ``config.placement_seed``;
    the cluster shares the configured storm motion, so the cells translate
    together while keeping their relative offsets.  Envelopes are combined
    with an elementwise maximum, which keeps them in [0, 1] and preserves
    each cell's internal structure (hook, vault) where cells do not overlap.
    """

    config: MultiCellConfig

    def __init__(self, config: MultiCellConfig) -> None:
        super().__init__(config)
        self._cells = self._build_cells(config)

    @staticmethod
    def _build_cells(cfg: MultiCellConfig) -> List[SupercellStorm]:
        rng = rng_from_seed(derive_seed(cfg.placement_seed, "multicell", cfg.ncells))
        cells: List[SupercellStorm] = []
        for index in range(cfg.ncells):
            # Scatter cell centres over a disc around the cluster centre.
            angle = rng.uniform(0.0, 2.0 * np.pi)
            dist = cfg.cluster_radius * np.sqrt(rng.uniform(0.0, 1.0))
            center = (
                float(np.clip(cfg.initial_center[0] + dist * np.cos(angle), 0.12, 0.88)),
                float(np.clip(cfg.initial_center[1] + dist * np.sin(angle), 0.12, 0.88)),
            )
            radius_factor = 1.0 + cfg.cell_radius_spread * rng.uniform(-1.0, 1.0)
            intensity = 1.0 + cfg.cell_intensity_spread * rng.uniform(-1.0, 1.0)
            cell_cfg = StormConfig(
                initial_center=center,
                motion_per_iteration=cfg.motion_per_iteration,
                initial_radius=cfg.initial_radius * radius_factor,
                radius_growth_per_iteration=cfg.radius_growth_per_iteration,
                max_radius=cfg.max_radius,
                core_height=cfg.core_height,
                core_depth=cfg.core_depth,
                # Only the strongest-rotation cell develops a real hook.
                rotation_strength=cfg.rotation_strength * (1.0 if index == 0 else 0.4),
                weak_echo_radius=cfg.weak_echo_radius,
                # _ScaledCell already multiplies the cell intensity into
                # every envelope (anvil included) — scale it exactly once.
                anvil_strength=cfg.anvil_strength,
                turbulence=cfg.turbulence,
                turbulence_scale=cfg.turbulence_scale,
            )
            cells.append(_ScaledCell(cell_cfg, intensity=float(np.clip(intensity, 0.3, 1.5))))
        return cells

    def envelopes(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> dict:
        combined: Dict[str, np.ndarray] = {}
        for cell in self._cells:
            env = cell.envelopes(xn, yn, zn, iteration)
            for name, arr in env.items():
                if name in combined:
                    np.maximum(combined[name], arr, out=combined[name])
                else:
                    combined[name] = np.array(arr, copy=True)
        return combined


class _ScaledCell(SupercellStorm):
    """A supercell whose overall intensity is scaled by a constant factor."""

    def __init__(self, config: StormConfig, intensity: float) -> None:
        super().__init__(config)
        self._intensity_factor = float(intensity)

    def geometry(self, iteration: int) -> StormGeometry:
        base = super().geometry(iteration)
        return StormGeometry(
            base.center,
            base.radius,
            base.intensity * self._intensity_factor,
            base.rotation_angle,
        )


class TurbulenceFieldStorm(SupercellStorm):
    """A structureless turbulence field: reflectivity without a storm.

    The core envelope is a flat plateau filling ``config.fill_fraction`` of
    the horizontal domain (smooth taper at the borders) through most of the
    vertical column; hook, vault and anvil are all zero.  The
    microphysics' turbulence then dominates the field completely, which
    makes every block carry a similar score — the degenerate input for the
    sort/reduce/redistribute machinery.
    """

    config: TurbulenceFieldConfig

    def geometry(self, iteration: int) -> StormGeometry:
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        # Static and at full intensity from the first snapshot: no growth
        # transient, so consecutive snapshots differ only by their turbulence.
        return StormGeometry(
            (0.5, 0.5), 0.5 * self.config.fill_fraction, 1.0, 0.0
        )

    @staticmethod
    def _taper(coord: np.ndarray, margin: float, softness: float) -> np.ndarray:
        """Smoothstep from 0 at ``margin`` to 1 at ``margin + softness``."""
        t = np.clip((coord - margin) / softness, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def envelopes(
        self,
        xn: np.ndarray,
        yn: np.ndarray,
        zn: np.ndarray,
        iteration: int,
    ) -> dict:
        self.geometry(iteration)  # validates the iteration index
        cfg = self.config
        margin = 0.5 * (1.0 - cfg.fill_fraction)
        soft = cfg.edge_softness
        plateau = (
            self._taper(xn, margin, soft)
            * self._taper(1.0 - xn, margin, soft)
            * self._taper(yn, margin, soft)
            * self._taper(1.0 - yn, margin, soft)
        )
        # Flat through the vertical column too (thin taper at the model top
        # and bottom): blocks at every height carry the same signal, which is
        # what makes the block scores near-uniform.
        zprof = self._taper(zn, 0.0, 0.15) * self._taper(1.0 - zn, 0.0, 0.15)
        core = plateau * zprof
        zero = np.zeros(np.broadcast(xn, yn, zn).shape)
        return {
            "core": core,
            "hook": zero,
            "weak_echo": zero,
            "anvil": zero,
        }


class DecayingStorm(SupercellStorm):
    """A supercell past its peak: intensity and radius shrink over time.

    The geometric evolution replaces the growth law of the parent class
    with exponential intensity decay and linear radius contraction past
    ``config.peak_iteration``; the envelope structure is inherited
    unchanged, so the storm keeps its hook and vault while fading.
    """

    config: DecayingStormConfig

    def geometry(self, iteration: int) -> StormGeometry:
        base = super().geometry(iteration)
        cfg = self.config
        age = max(0, iteration - cfg.peak_iteration)
        intensity = float(np.exp(-cfg.decay_rate * age))
        radius = max(
            cfg.min_radius,
            cfg.initial_radius - cfg.radius_shrink_per_iteration * age,
        )
        return StormGeometry(base.center, float(radius), intensity, base.rotation_angle)


#: Storm-config types mapped to their generator classes; :func:`make_storm`
#: walks the config's MRO so a subclassed config inherits its parent's
#: generator unless it registers its own.
STORM_FAMILIES: Dict[Type[StormConfig], Type[SupercellStorm]] = {
    StormConfig: SupercellStorm,
    SquallLineConfig: SquallLineStorm,
    MultiCellConfig: MultiCellStorm,
    TurbulenceFieldConfig: TurbulenceFieldStorm,
    DecayingStormConfig: DecayingStorm,
}


def make_storm(config: StormConfig) -> SupercellStorm:
    """Build the storm generator matching ``config``'s family."""
    for cls in type(config).__mro__:
        generator = STORM_FAMILIES.get(cls)
        if generator is not None:
            return generator(config)
    raise TypeError(
        f"no storm family registered for config type {type(config).__name__}"
    )

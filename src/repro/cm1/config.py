"""Configuration objects for the synthetic CM1 model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.validation import ensure_in_range, ensure_positive


@dataclass(frozen=True)
class StormConfig:
    """Parameters of the synthetic supercell.

    All positions and radii are in *normalised domain units*: the horizontal
    domain is [0, 1] × [0, 1], the vertical extent is [0, 1].  This keeps the
    storm description independent of the grid resolution so the same storm
    can be generated at the paper's 2200×2200×380 scale or at laptop scale.
    """

    #: Initial horizontal position of the storm core (normalised).
    initial_center: Tuple[float, float] = (0.42, 0.5)
    #: Horizontal storm motion per iteration (normalised units).
    motion_per_iteration: Tuple[float, float] = (0.0012, 0.0004)
    #: Initial horizontal radius of the precipitation core.
    initial_radius: float = 0.085
    #: Radius growth per iteration (the storm strengthens over time).
    radius_growth_per_iteration: float = 0.0009
    #: Maximum radius the storm saturates at.
    max_radius: float = 0.22
    #: Height (normalised) of the reflectivity maximum.
    core_height: float = 0.35
    #: Depth of the storm (vertical extent of significant reflectivity).
    core_depth: float = 0.55
    #: Strength of the mesocyclone rotation (controls the hook echo).
    rotation_strength: float = 1.0
    #: Normalised radius of the weak echo region (bounded weak echo vault).
    weak_echo_radius: float = 0.25
    #: Amplitude of the anvil (upper-level downwind spread), 0 disables it.
    anvil_strength: float = 0.6
    #: Turbulence intensity inside the storm (relative perturbation).
    turbulence: float = 0.35
    #: Correlation length of the turbulence, as a fraction of the core radius.
    turbulence_scale: float = 0.3

    def __post_init__(self) -> None:
        ensure_in_range(self.initial_center[0], (0.0, 1.0), "initial_center[0]")
        ensure_in_range(self.initial_center[1], (0.0, 1.0), "initial_center[1]")
        ensure_positive(self.initial_radius, "initial_radius")
        ensure_positive(self.max_radius, "max_radius")
        ensure_in_range(self.core_height, (0.0, 1.0), "core_height")
        ensure_positive(self.core_depth, "core_depth")
        if self.radius_growth_per_iteration < 0:
            raise ValueError("radius_growth_per_iteration must be >= 0")
        ensure_in_range(self.turbulence, (0.0, 2.0), "turbulence")
        ensure_positive(self.turbulence_scale, "turbulence_scale")


@dataclass(frozen=True)
class SquallLineConfig(StormConfig):
    """A squall line: an elongated band of embedded convective cores.

    The band is centred on the (moving) storm centre, oriented at
    ``orientation_deg`` from the x axis, ``line_length`` long and
    ``line_width`` wide (normalised units), with ``ncells`` reflectivity
    maxima embedded along it.  Mesocyclone rotation is weak (squall lines
    are multicellular, not supercellular), and the anvil spreads as a
    trailing stratiform region behind the band.
    """

    initial_center: Tuple[float, float] = (0.38, 0.5)
    rotation_strength: float = 0.15
    anvil_strength: float = 0.45
    #: Angle of the band relative to the x axis, degrees.
    orientation_deg: float = 25.0
    #: Length of the band along its axis (normalised units).
    line_length: float = 0.7
    #: Half-width scale of the band across its axis.
    line_width: float = 0.07
    #: Number of embedded convective cores along the band.
    ncells: int = 5
    #: Depth of the reflectivity modulation between cores (0 = uniform band).
    cell_contrast: float = 0.45

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_positive(self.line_length, "line_length")
        ensure_positive(self.line_width, "line_width")
        if self.ncells < 1:
            raise ValueError(f"ncells must be >= 1, got {self.ncells}")
        ensure_in_range(self.cell_contrast, (0.0, 1.0), "cell_contrast")


@dataclass(frozen=True)
class MultiCellConfig(StormConfig):
    """A cluster of ``ncells`` displaced supercells.

    Cell positions, sizes, and strengths are drawn deterministically from
    ``placement_seed`` (independent of the grid resolution and of the
    turbulence seed), so the same cluster is generated at any scale and a
    different ``placement_seed`` rearranges the cells.
    """

    initial_center: Tuple[float, float] = (0.5, 0.5)
    initial_radius: float = 0.07
    #: Number of cells in the cluster.
    ncells: int = 4
    #: Radius of the disc the cell centres are scattered over.
    cluster_radius: float = 0.26
    #: Relative spread of the per-cell core radii (0 = identical cells).
    cell_radius_spread: float = 0.35
    #: Relative spread of the per-cell intensities.
    cell_intensity_spread: float = 0.3
    #: Seed of the deterministic cell placement.
    placement_seed: int = 7

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ncells < 1:
            raise ValueError(f"ncells must be >= 1, got {self.ncells}")
        ensure_positive(self.cluster_radius, "cluster_radius")
        ensure_in_range(self.cell_radius_spread, (0.0, 1.0), "cell_radius_spread")
        ensure_in_range(self.cell_intensity_spread, (0.0, 1.0), "cell_intensity_spread")


@dataclass(frozen=True)
class TurbulenceFieldConfig(StormConfig):
    """A turbulence-only field: no coherent storm structure at all.

    Reflectivity fills ``fill_fraction`` of the horizontal domain with a
    flat envelope (smooth ``edge_softness`` taper at the borders) and is
    dominated by fine-grained turbulence, so every block carries a similar
    amount of information.  This is the adversarial workload for the
    score-sort-reduce machinery: with near-uniform scores the sorted order
    is decided by tie-breaking and the redistribution step has almost no
    load imbalance to exploit.
    """

    turbulence: float = 1.5
    turbulence_scale: float = 0.05
    rotation_strength: float = 0.0
    anvil_strength: float = 0.0
    #: Fraction of the horizontal domain the reflectivity fills.
    fill_fraction: float = 0.85
    #: Width of the smooth taper at the envelope borders (normalised units).
    edge_softness: float = 0.08

    def __post_init__(self) -> None:
        super().__post_init__()
        ensure_in_range(self.fill_fraction, (0.1, 1.0), "fill_fraction")
        ensure_positive(self.edge_softness, "edge_softness")


@dataclass(frozen=True)
class DecayingStormConfig(StormConfig):
    """A supercell past its peak: reflectivity shrinks across snapshots.

    Intensity decays exponentially (``decay_rate`` per iteration after
    ``peak_iteration``) and the core radius contracts towards
    ``min_radius``, so the rendering load falls over the course of a run —
    the mirror image of the growing storm the adaptation controller is
    usually tuned against.
    """

    initial_radius: float = 0.16
    radius_growth_per_iteration: float = 0.0
    #: Iteration at which the decay starts.
    peak_iteration: int = 0
    #: Exponential decay rate of the intensity per iteration past the peak.
    decay_rate: float = 0.18
    #: Core radius contraction per iteration past the peak.
    radius_shrink_per_iteration: float = 0.006
    #: Radius floor the storm decays towards.
    min_radius: float = 0.03

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.peak_iteration < 0:
            raise ValueError(f"peak_iteration must be >= 0, got {self.peak_iteration}")
        ensure_positive(self.decay_rate, "decay_rate")
        if self.radius_shrink_per_iteration < 0:
            raise ValueError("radius_shrink_per_iteration must be >= 0")
        ensure_positive(self.min_radius, "min_radius")


@dataclass(frozen=True)
class CM1Config:
    """Configuration of a synthetic CM1 run.

    Attributes
    ----------
    shape:
        Grid points along x, y, z.  The paper's dataset is 2200×2200×380; the
        default here is a laptop-scale 220×220×38 with the same aspect ratio.
    horizontal_extent_km, vertical_extent_km:
        Physical extents used to build the CM1-like stretched grid.
    start_iteration:
        Iteration number of the first produced snapshot (the paper's stored
        dataset starts after ~5,000 simulation iterations).
    iteration_stride:
        Number of internal model iterations between two produced snapshots.
    seed:
        Base seed for all stochastic components (turbulence phases).
    """

    shape: Tuple[int, int, int] = (220, 220, 38)
    horizontal_extent_km: float = 120.0
    vertical_extent_km: float = 20.0
    start_iteration: int = 5000
    iteration_stride: int = 1
    seed: int = 2016
    storm: StormConfig = field(default_factory=StormConfig)

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(int(s) < 4 for s in self.shape):
            raise ValueError(f"shape must be 3 values >= 4, got {self.shape}")
        ensure_positive(self.horizontal_extent_km, "horizontal_extent_km")
        ensure_positive(self.vertical_extent_km, "vertical_extent_km")
        if self.start_iteration < 0:
            raise ValueError("start_iteration must be >= 0")
        if self.iteration_stride < 1:
            raise ValueError("iteration_stride must be >= 1")

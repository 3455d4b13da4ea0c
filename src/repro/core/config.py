"""Configuration of the adaptive pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.backends import ENGINE_BACKENDS
from repro.core.redistribution import STRATEGIES
from repro.core.reduction_step import validate_quality_ladder
from repro.utils.validation import ensure_in_range, ensure_positive
from repro.viz.catalyst import RENDER_MODES


@dataclass(frozen=True)
class AdaptationConfig:
    """Configuration of the Algorithm 1 controller.

    Attributes
    ----------
    enabled:
        Whether the percentage of reduced blocks is adapted at all (the
        fixed-percentage experiments of Figures 6–9 disable it).
    target_seconds:
        The performance constraint: required run time of the full pipeline
        per iteration, in modelled platform seconds.
    initial_percent:
        Percentage used for the first iteration.  The paper starts at 0 ("the
        first output of the simulation is not reduced").
    max_percent:
        Optional user bound on the percentage of reduced blocks (the paper
        notes the maximum "could easily be bounded by the user").
    """

    enabled: bool = True
    target_seconds: float = 30.0
    initial_percent: float = 0.0
    max_percent: float = 100.0

    def __post_init__(self) -> None:
        if self.enabled:
            ensure_positive(self.target_seconds, "target_seconds")
        ensure_in_range(self.initial_percent, (0.0, 100.0), "initial_percent")
        ensure_in_range(self.max_percent, (0.0, 100.0), "max_percent")
        if self.initial_percent > self.max_percent:
            raise ValueError(
                f"initial_percent ({self.initial_percent}) exceeds max_percent "
                f"({self.max_percent})"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of one pipeline run.

    Attributes
    ----------
    metric:
        Name of the block-scoring metric (a key of
        :data:`repro.metrics.registry.METRICS`: "VAR", "LEA", "FPZIP", ...).
    redistribution:
        ``"none"``, ``"shuffle"`` (random), or ``"round_robin"`` (the keys of
        :data:`repro.core.redistribution.STRATEGIES`).
    isosurface_level:
        Isovalue of the rendered isosurface (45 dBZ in the paper).
    render_mode:
        ``"count"`` (cheap load proxy, default for large rank counts) or
        ``"mesh"`` (real marching-cubes geometry).
    adaptation:
        Algorithm 1 configuration.
    shuffle_seed:
        Seed shared by all ranks for the random-shuffle strategy.
    quality_ladder:
        How the reduction step distributes the selected (lowest-scored)
        blocks over the reduction ladder, as ordered ``(level, fraction)``
        rungs applied to the ascending-score prefix: the first rung's
        fraction of the selected blocks — the very lowest scores — goes to
        that rung's level, the next fraction to the next rung, and so on
        (fractions must sum to 1; per-rung counts are rounded half-up, the
        last rung absorbing the remainder).  Levels are rungs of the ladder
        in :mod:`repro.grid.reduction`: 1 = strided 1/8-ish downsample with
        corners preserved, 2 = the paper's 2×2×2 corner reduction.  The
        default ``((2, 1.0),)`` sends every selected block to the corner
        rung — bit-for-bit the pre-ladder binary behavior.
    engine:
        Which step classes the one
        :class:`~repro.core.engine.ExecutionEngine` runs — the engine always
        runs iterations strictly in sequence on one communicator:
        ``"vectorized"`` (default, the batched classes) or ``"serial"`` (the
        per-block oracle); ``"parallel"`` and ``"process"`` are accepted as
        aliases of ``"vectorized"`` (:mod:`repro.core.backends` says why).
        Taking the process pool is not an option: the scoring step takes it
        for a metric that declares ``gil_bound`` when it pays.
        All backends produce identical scores, sort orders, reduction and
        redistribution decisions, active-cell/triangle counts, and modelled
        timings; only measured wall-clock differs.
    """

    metric: str = "VAR"
    redistribution: str = "none"
    isosurface_level: float = 45.0
    render_mode: str = "count"
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    shuffle_seed: int = 2016
    engine: str = "vectorized"
    quality_ladder: Tuple[Tuple[int, float], ...] = ((2, 1.0),)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "quality_ladder", validate_quality_ladder(self.quality_ladder)
        )
        if self.redistribution not in STRATEGIES:
            raise ValueError(
                f"redistribution must be one of {tuple(STRATEGIES)}, "
                f"got {self.redistribution!r}"
            )
        if self.engine not in ENGINE_BACKENDS:
            raise ValueError(
                f"engine must be one of {ENGINE_BACKENDS}, got {self.engine!r}"
            )
        if self.render_mode not in RENDER_MODES:
            raise ValueError(
                f"render_mode must be one of {RENDER_MODES}, got {self.render_mode!r}"
            )
        if not self.metric:
            raise ValueError("metric name must not be empty")

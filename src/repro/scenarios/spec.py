"""Scenario specifications: workload parameters plus registry metadata.

:class:`ScenarioConfig` is the canonical parameter record of one workload —
rank count, grid shape, block decomposition, snapshot count, and the storm
structure driving the synthetic CM1 data.

:class:`ScenarioSpec` is a registry entry wrapping a config *factory* with
the metadata the CLI and the test sweeps need: a name, a one-line
description, tags, and default rank/snapshot counts.  ``spec.build(...)``
produces a :class:`ScenarioConfig` with any subset of the parameters
overridden — which is how one registered workload family serves paper-scale
benchmarks and tiny-scale parity tests alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

__all__ = ["TINY_SHAPE", "ScenarioConfig", "ScenarioFactory", "ScenarioSpec"]

#: The unit-test grid: shared by the registered ``tiny`` workload and by
#: :meth:`ScenarioSpec.tiny`, which shrinks any workload to this scale.
TINY_SHAPE: Tuple[int, int, int] = (44, 44, 12)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of an experiment scenario.

    Hashable (the storm override is a frozen dataclass), so a fully resolved
    config is usable as a cache key — scenario identity *is* the config.
    """

    ncores: int = 64
    shape: Tuple[int, int, int] = (220, 220, 38)
    blocks_per_subdomain: Tuple[int, int, int] = (2, 2, 2)
    nsnapshots: int = 10
    isosurface_level: float = 45.0
    field_name: str = "dbz"
    seed: int = 2016
    #: Optional storm-structure override (None = CM1Config's default supercell).
    storm: Optional[object] = None
    #: Registry name the config was built from ("" for ad-hoc configs).
    name: str = ""

    def __post_init__(self) -> None:
        if self.ncores < 1:
            raise ValueError(f"ncores must be >= 1, got {self.ncores}")
        if self.nsnapshots < 1:
            raise ValueError(f"nsnapshots must be >= 1, got {self.nsnapshots}")


#: A scenario factory accepts keyword overrides (``ncores``, ``nsnapshots``,
#: ``shape``, ``blocks_per_subdomain``, ``seed``, ...) and returns the
#: resolved :class:`ScenarioConfig`.
ScenarioFactory = Callable[..., ScenarioConfig]


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered workload family.

    Attributes
    ----------
    name:
        Registry key (lower-case, unique).
    factory:
        Builds the family's :class:`ScenarioConfig`; keyword overrides are
        forwarded verbatim.
    description:
        One-line description shown by ``python -m repro list``.
    tags:
        Free-form labels ("paper", "storm-family", "stress", ...).
    default_ranks, default_snapshots:
        Scale the factory produces when called without overrides.
    """

    name: str
    factory: ScenarioFactory
    description: str = ""
    tags: Tuple[str, ...] = ()
    default_ranks: int = 64
    default_snapshots: int = 10

    def build(self, **overrides) -> ScenarioConfig:
        """Build the scenario config, applying non-None keyword overrides."""
        clean = {key: value for key, value in overrides.items() if value is not None}
        config = self.factory(**clean)
        if config.name != self.name:
            config = replace(config, name=self.name)
        return config

    def tiny(self, nranks: int = 4, nsnapshots: int = 2) -> ScenarioConfig:
        """The family at unit-test scale: a 44×44×12 grid on ``nranks`` ranks.

        Only the grid and rank/snapshot counts shrink; the storm structure
        and the family's block decomposition are preserved, so tiny-scale
        tests exercise the same workload shape the full scenario has.
        """
        return self.build(ncores=nranks, nsnapshots=nsnapshots, shape=TINY_SHAPE)

"""The workload catalogue: one ordered table of named scenario configs.

Each row of :data:`CATALOGUE` is name → (:class:`ScenarioConfig` with that
name set, one-line description, tags); adding a workload is adding a row.
Three entries reproduce the configurations the repository always had — the
paper's two Blue Waters scales and the unit-test ``tiny`` — and the rest
exercise the pipeline on storm structures the paper never ran:

* ``squall_line`` — an elongated multi-core band: the interesting region is
  a long thin stripe crossing many subdomains, so scores are high along one
  diagonal band instead of one compact blob;
* ``multicell_cluster`` — several displaced supercells: multiple disjoint
  high-score regions, the workload redistribution balances best;
* ``turbulence_field`` — turbulence with no coherent storm: near-uniform
  scores stress sorting tie-breaking and give redistribution almost no
  imbalance to exploit;
* ``decaying_storm`` — reflectivity shrinks across snapshots: the
  adaptation controller has to *lower* the reduction percentage over time,
  the opposite trajectory of the growing-storm figures;
* ``blue_waters_64_fine`` — the speedup-gate configuration (64 ranks, 64
  blocks per rank), listed so the benchmarks resolve it by name.

Every consumer — :class:`~repro.scenarios.scenario.ExperimentScenario`
callers, ``python -m repro list/run``, ``repro serve``'s ``POST /run`` and
the parity sweep of ``tests/test_scenarios.py`` — reads this table through
:func:`create_scenario_config` and :func:`scenario_names`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.cm1.config import (
    DecayingStormConfig,
    MultiCellConfig,
    SquallLineConfig,
    StormConfig,
    TurbulenceFieldConfig,
)
from repro.scenarios.spec import TINY_SHAPE, ScenarioConfig

__all__ = ["CATALOGUE", "create_scenario_config", "scenario_names"]


def experiment_storm() -> StormConfig:
    """Storm used by the figure-reproduction scenarios.

    Compared with the CM1 default it has stronger, finer-grained turbulence
    so that the 45 dBZ isosurface crosses many blocks — at 1/10 of the
    paper's resolution this is what keeps the per-block rendering load
    fine-grained enough for the redistribution step to balance it, as it
    does at full scale in the paper.
    """
    return StormConfig(turbulence=1.2, turbulence_scale=0.08)


_PAPER_SHAPE = (220, 220, 38)
_FAMILY_SHAPE = (88, 88, 24)

#: name -> (resolved config, description, tags), in listing order.
CATALOGUE: Dict[str, Tuple[ScenarioConfig, str, Tuple[str, ...]]] = {
    config.name: (config, description, tags)
    for config, description, tags in (
        (
            ScenarioConfig(
                name="blue_waters_64", ncores=64, shape=_PAPER_SHAPE,
                blocks_per_subdomain=(2, 2, 8), storm=experiment_storm(),
            ),
            "The paper's 64-core supercell run at laptop scale (32 blocks/rank)",
            ("paper", "supercell"),
        ),
        (
            ScenarioConfig(
                name="blue_waters_400", ncores=400, shape=_PAPER_SHAPE,
                blocks_per_subdomain=(2, 2, 4), storm=experiment_storm(),
            ),
            "The paper's 400-core supercell run at laptop scale (16 blocks/rank)",
            ("paper", "supercell"),
        ),
        (
            ScenarioConfig(
                name="tiny", ncores=4, shape=TINY_SHAPE,
                blocks_per_subdomain=(2, 2, 1), nsnapshots=2,
            ),
            "Unit-test-sized supercell (4 ranks, 44x44x12 grid)",
            ("test", "supercell"),
        ),
        (
            # Deliberately the CM1 default storm (no experiment_storm
            # override): the configuration the speedup gates always measured.
            ScenarioConfig(
                name="blue_waters_64_fine", ncores=64, shape=_PAPER_SHAPE,
                blocks_per_subdomain=(4, 4, 4), nsnapshots=1,
            ),
            "64-core supercell with 64 blocks/rank (the speedup-gate scale)",
            ("paper", "supercell", "benchmark"),
        ),
        (
            ScenarioConfig(
                name="squall_line", ncores=16, shape=_FAMILY_SHAPE,
                storm=SquallLineConfig(turbulence=1.0, turbulence_scale=0.08),
            ),
            "Elongated multi-core band crossing the domain diagonally",
            ("storm-family", "squall-line"),
        ),
        (
            ScenarioConfig(
                name="multicell_cluster", ncores=16, shape=_FAMILY_SHAPE,
                storm=MultiCellConfig(turbulence=1.0, turbulence_scale=0.1),
            ),
            "Cluster of displaced supercells (disjoint interest regions)",
            ("storm-family", "multicell"),
        ),
        (
            ScenarioConfig(
                name="turbulence_field", ncores=16, shape=_FAMILY_SHAPE,
                storm=TurbulenceFieldConfig(),
            ),
            "No coherent storm: near-uniform block scores (sorting stress)",
            ("storm-family", "stress", "uniform-scores"),
        ),
        (
            ScenarioConfig(
                name="decaying_storm", ncores=16, shape=_FAMILY_SHAPE,
                nsnapshots=12,
                storm=DecayingStormConfig(turbulence=1.0, turbulence_scale=0.08),
            ),
            "Supercell past its peak: rendering load falls every snapshot",
            ("storm-family", "adaptive", "decaying"),
        ),
    )
}


def scenario_names() -> Tuple[str, ...]:
    """Catalogue names, in listing order."""
    return tuple(CATALOGUE)


def create_scenario_config(name: str, **overrides) -> ScenarioConfig:
    """The config of the workload named ``name`` (case-insensitive).

    Keyword overrides (``ncores``, ``nsnapshots``, ``shape``,
    ``blocks_per_subdomain``, ``seed``, ...) replace the row's values;
    ``None`` values are ignored so CLI arguments can be forwarded directly.
    Raises ``KeyError`` naming the available workloads when unknown — the
    message the CLI surfaces on a typo.
    """
    row = CATALOGUE.get(name.strip().lower())
    if row is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return replace(row[0], **{k: v for k, v in overrides.items() if v is not None})

"""The built-in workload catalogue.

Importing :mod:`repro.scenarios` registers these entries.  Three
entries reproduce the configurations the repository always had — the
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
  blocks per rank), registered so the benchmarks resolve it by name.
"""

from __future__ import annotations

from typing import Dict

from repro.cm1.config import (
    DecayingStormConfig,
    MultiCellConfig,
    SquallLineConfig,
    StormConfig,
    TurbulenceFieldConfig,
)
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import TINY_SHAPE, ScenarioConfig, ScenarioFactory


def experiment_storm() -> StormConfig:
    """Storm used by the figure-reproduction scenarios.

    Compared with the CM1 default it has stronger, finer-grained turbulence
    so that the 45 dBZ isosurface crosses many blocks — at 1/10 of the
    paper's resolution this is what keeps the per-block rendering load
    fine-grained enough for the redistribution step to balance it, as it
    does at full scale in the paper.
    """
    return StormConfig(turbulence=1.2, turbulence_scale=0.08)


def _family_factory(**defaults) -> ScenarioFactory:
    """A factory building :class:`ScenarioConfig` from defaults + overrides."""

    def factory(**overrides) -> ScenarioConfig:
        params: Dict[str, object] = dict(defaults)
        params.update(overrides)
        return ScenarioConfig(**params)

    return factory


register_scenario(
    "blue_waters_64",
    _family_factory(
        ncores=64,
        shape=(220, 220, 38),
        blocks_per_subdomain=(2, 2, 8),
        storm=experiment_storm(),
    ),
    description="The paper's 64-core supercell run at laptop scale (32 blocks/rank)",
    tags=("paper", "supercell"),
)

register_scenario(
    "blue_waters_400",
    _family_factory(
        ncores=400,
        shape=(220, 220, 38),
        blocks_per_subdomain=(2, 2, 4),
        storm=experiment_storm(),
    ),
    description="The paper's 400-core supercell run at laptop scale (16 blocks/rank)",
    tags=("paper", "supercell"),
)

register_scenario(
    "tiny",
    _family_factory(
        ncores=4,
        shape=TINY_SHAPE,
        blocks_per_subdomain=(2, 2, 1),
        nsnapshots=2,
    ),
    description="Unit-test-sized supercell (4 ranks, 44x44x12 grid)",
    tags=("test", "supercell"),
)

register_scenario(
    "blue_waters_64_fine",
    # Deliberately the CM1 default storm (no experiment_storm override):
    # this reproduces byte-for-byte the configuration the speedup gates
    # have always measured.
    _family_factory(
        ncores=64,
        shape=(220, 220, 38),
        blocks_per_subdomain=(4, 4, 4),
        nsnapshots=1,
    ),
    description="64-core supercell with 64 blocks/rank (the speedup-gate scale)",
    tags=("paper", "supercell", "benchmark"),
)

register_scenario(
    "squall_line",
    _family_factory(
        ncores=16,
        shape=(88, 88, 24),
        blocks_per_subdomain=(2, 2, 2),
        storm=SquallLineConfig(turbulence=1.0, turbulence_scale=0.08),
    ),
    description="Elongated multi-core band crossing the domain diagonally",
    tags=("storm-family", "squall-line"),
)

register_scenario(
    "multicell_cluster",
    _family_factory(
        ncores=16,
        shape=(88, 88, 24),
        blocks_per_subdomain=(2, 2, 2),
        storm=MultiCellConfig(turbulence=1.0, turbulence_scale=0.1),
    ),
    description="Cluster of displaced supercells (disjoint interest regions)",
    tags=("storm-family", "multicell"),
)

register_scenario(
    "turbulence_field",
    _family_factory(
        ncores=16,
        shape=(88, 88, 24),
        blocks_per_subdomain=(2, 2, 2),
        storm=TurbulenceFieldConfig(),
    ),
    description="No coherent storm: near-uniform block scores (sorting stress)",
    tags=("storm-family", "stress", "uniform-scores"),
)

register_scenario(
    "decaying_storm",
    _family_factory(
        ncores=16,
        shape=(88, 88, 24),
        blocks_per_subdomain=(2, 2, 2),
        nsnapshots=12,
        storm=DecayingStormConfig(turbulence=1.0, turbulence_scale=0.08),
    ),
    description="Supercell past its peak: rendering load falls every snapshot",
    tags=("storm-family", "adaptive", "decaying"),
)

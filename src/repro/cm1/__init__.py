"""Synthetic CM1-like atmospheric model.

The paper drives its pipeline with the CM1 cloud model (Bryan & Fritsch 2002)
simulating a supercell thunderstorm, and in particular with CM1's simulated
radar **reflectivity** (dBZ) field, whose 45 dBZ isosurface reveals the weak
echo region associated with storm onset.

Running the real CM1 (Fortran, petascale data) is out of scope here, so this
package provides a synthetic but physically structured substitute:

* a time-evolving **supercell storm** description (precipitation core,
  weak echo vault, hook echo, anvil, storm motion) — :mod:`repro.cm1.storm` — plus
  parameterised **storm families** sharing its envelope contract: a squall
  line, a multi-cell cluster, a turbulence-only field, and a decaying storm
  (dispatched from their configs by :func:`~repro.cm1.storm.make_storm`);
* **microphysics** fields (rain / snow / graupel-hail mixing ratios) built
  from the storm structure plus seeded turbulence — :mod:`repro.cm1.microphysics`;
* the **reflectivity diagnostic** converting mixing ratios to dBZ in the
  physical [-60, 80] range — :mod:`repro.cm1.reflectivity`;
* a stepping :class:`~repro.cm1.simulation.CM1Simulation`, whose snapshots
  carry the one field the pipeline visualises, the float32 reflectivity, and
  a replayable :class:`~repro.cm1.dataset.CM1Dataset` standing in for the
  paper's stored 572-iteration Blue Waters dataset.

What matters for the reproduction is preserved: the interesting region is a
small, localised, turbulent fraction of a large mostly-quiet domain, its
values span the full dBZ range, and it grows/moves over iterations.
"""

from repro.cm1.config import (
    CM1Config,
    DecayingStormConfig,
    MultiCellConfig,
    SquallLineConfig,
    StormConfig,
    TurbulenceFieldConfig,
)
from repro.cm1.reflectivity import DBZ_MIN, DBZ_MAX
from repro.cm1.simulation import CM1Simulation
from repro.cm1.dataset import CM1Dataset

__all__ = [
    "CM1Config",
    "StormConfig",
    "SquallLineConfig",
    "MultiCellConfig",
    "TurbulenceFieldConfig",
    "DecayingStormConfig",
    "DBZ_MIN",
    "DBZ_MAX",
    "CM1Simulation",
    "CM1Dataset",
]

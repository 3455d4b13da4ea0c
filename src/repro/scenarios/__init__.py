"""The scenario subsystem: a named registry of workload families.

The paper's evaluation is one supercell at two core counts; this package
makes workloads first-class instead.  A *scenario* is a named, tagged,
parameterised workload family — storm structure, grid shape, rank count,
block decomposition — registered in a global registry
(:func:`register_scenario`, the convention of the metric registry) and
resolvable by every consumer:

* :class:`ExperimentScenario` (:mod:`repro.scenarios.scenario`) makes a
  resolved config runnable — dataset, decomposition, calibrated platform,
  ``build_pipeline`` — and its ``blue_waters`` / ``tiny`` / ``from_name``
  constructors resolve through the registry;
* ``python -m repro list`` / ``python -m repro run <scenario>`` and
  ``repro serve``'s ``POST /run`` expose the catalogue;
* ``tests/test_scenarios.py`` parameterises its backend parity sweep over
  :func:`scenario_names` and ``engine_backends()``, so every newly
  registered workload is parity-tested for free.

Importing this package registers the built-in catalogue
(:mod:`repro.scenarios.catalog`): the paper's two Blue Waters scales, the
test-sized ``tiny``, the benchmark-scale ``blue_waters_64_fine``, and four
storm families the paper never ran (``squall_line``, ``multicell_cluster``,
``turbulence_field``, ``decaying_storm``).
"""

from repro.scenarios.registry import (
    create_scenario_config,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_specs,
)
from repro.scenarios.scenario import ExperimentScenario, scenario_decomposition
from repro.scenarios.spec import ScenarioConfig

# Importing the catalogue registers the built-in workloads.
import repro.scenarios.catalog  # noqa: E402,F401  (registration side effect)

__all__ = [
    "ExperimentScenario",
    "ScenarioConfig",
    "create_scenario_config",
    "get_scenario",
    "register_scenario",
    "scenario_decomposition",
    "scenario_names",
    "scenario_specs",
]

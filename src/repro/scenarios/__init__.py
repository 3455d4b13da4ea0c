"""The scenario subsystem: a catalogue of named workloads.

The paper's evaluation is one supercell at two core counts; this package
names those two and a few more workloads in one ordered table,
:data:`~repro.scenarios.catalog.CATALOGUE` (name → config, description,
tags), read by every consumer:

* :class:`ExperimentScenario` (:mod:`repro.scenarios.scenario`) makes a
  resolved config runnable — dataset, decomposition, calibrated platform,
  ``build_pipeline``: ``ExperimentScenario(create_scenario_config(name,
  **overrides))``, or ``ExperimentScenario.from_store`` to replay a stored
  dataset;
* ``python -m repro list`` / ``python -m repro run <scenario>`` and
  ``repro serve``'s ``POST /run`` expose the catalogue;
* ``tests/test_scenarios.py`` parameterises its backend parity sweep over
  :func:`scenario_names` and ``engine_backends()``, so every workload added
  as a row is parity-tested for free.

The catalogue holds the paper's two Blue Waters scales, the test-sized
``tiny``, the benchmark-scale ``blue_waters_64_fine``, and four storm
families the paper never ran (``squall_line``, ``multicell_cluster``,
``turbulence_field``, ``decaying_storm``).
"""

from repro.scenarios.catalog import CATALOGUE, create_scenario_config, scenario_names
from repro.scenarios.scenario import ExperimentScenario, scenario_decomposition
from repro.scenarios.spec import ScenarioConfig

__all__ = [
    "CATALOGUE",
    "ExperimentScenario",
    "ScenarioConfig",
    "create_scenario_config",
    "scenario_decomposition",
    "scenario_names",
]

"""repro — Adaptive Performance-Constrained In Situ Visualization (CLUSTER 2016).

A from-scratch Python reproduction of Dorier et al., "Adaptive
Performance-Constrained In Situ Visualization of Atmospheric Simulations"
(IEEE CLUSTER 2016), with every substrate the paper's pipeline depends on:

* :mod:`repro.core` — the adaptive pipeline (score → sort → reduce →
  redistribute → render → adapt, Algorithm 1): composable
  :class:`~repro.core.step.PipelineStep` objects run by one
  :class:`~repro.core.engine.ExecutionEngine` on one communicator, as the
  per-block ``serial`` oracle or the batched ``vectorized`` classes
  (``PipelineConfig(engine=...)``), which give bitwise-identical runs;
* :mod:`repro.grid` — rectilinear grids, the Cartesian domain decomposition,
  :class:`~repro.grid.block.Block` and the reduction ladder; its
  :mod:`~repro.grid.batch` module holds the two columnar layouts the batched
  backends run on — ``DecomposedField``, a snapshot as the decomposition hands
  it over (pre-stacked), and ``BlockColumns``, the iteration state;
* :mod:`repro.simmpi` — the pipeline's modelled communication: a
  latency/bandwidth cost model, the driver-side communicator that issues and
  prices the sort's gather and broadcast and the redistribution's all-to-all,
  and the two implementations of that sort;
* :mod:`repro.cm1` — a synthetic CM1-like supercell simulation and its
  reflectivity (dBZ) diagnostic;
* :mod:`repro.metrics` — the block-scoring metrics (RANGE, VAR, ITL, LEA,
  FPZIP, TRILIN, ...);
* :mod:`repro.compress` — the encoded sizes of the fpzip- and lz-like coders;
* :mod:`repro.viz` — marching cubes, the in situ isosurface script the
  rendering step calls, and a software rasterizer;
* :mod:`repro.perfmodel` — the "Blue Waters seconds" cost model calibrated
  against the paper's published numbers;
* :mod:`repro.io` — a BIL-like dataset store;
* :mod:`repro.scenarios` — the workload catalogue, one table of named
  configs: the paper's two Blue Waters configurations plus storm families
  the paper never ran (squall line, multi-cell cluster, turbulence-only
  field, decaying storm);
* :mod:`repro.serve` — the streaming NDJSON service and its replay cache;
* :mod:`repro.experiments` — drivers regenerating every table and figure of
  the paper's evaluation section.

The catalogue's workloads are also runnable from the command line::

    python -m repro list
    python -m repro run squall_line --output out.json

Quickstart
----------

>>> from repro import quickstart_pipeline
>>> result = quickstart_pipeline(nranks=4, nsnapshots=2)
>>> result.niterations
2
"""

from repro.core import (
    AdaptationConfig,
    AdaptationController,
    ExecutionEngine,
    InSituPipeline,
    PipelineConfig,
    StepReport,
    adapt_percent,
)
from repro.cm1 import CM1Config, CM1Dataset, CM1Simulation
from repro.perfmodel import PlatformModel
from repro.metrics import create_metric
from repro.scenarios import (
    ExperimentScenario,
    ScenarioConfig,
    create_scenario_config,
    scenario_names,
)

__version__ = "14.0.0"

__all__ = [
    "AdaptationConfig",
    "AdaptationController",
    "ExecutionEngine",
    "InSituPipeline",
    "PipelineConfig",
    "StepReport",
    "adapt_percent",
    "CM1Config",
    "CM1Dataset",
    "CM1Simulation",
    "PlatformModel",
    "ScenarioConfig",
    "create_metric",
    "create_scenario_config",
    "scenario_names",
    "quickstart_pipeline",
    "__version__",
]


def quickstart_pipeline(
    nranks: int = 4,
    nsnapshots: int = 2,
    target_seconds: float = 20.0,
    metric: str = "VAR",
    redistribution: str = "round_robin",
    engine: str = "vectorized",
):
    """Run a tiny end-to-end adaptive pipeline and return its run result.

    This is the programmatic equivalent of ``examples/quickstart.py``: a small
    synthetic storm, a handful of virtual ranks, and the full six-step
    pipeline with adaptation enabled.  ``engine`` selects the step classes
    ("vectorized", or the "serial" oracle; "parallel" and "process" are
    aliases of "vectorized"); all give identical results.
    """
    scenario = ExperimentScenario(
        create_scenario_config("tiny", ncores=nranks, nsnapshots=nsnapshots)
    )
    pipeline = scenario.build_pipeline(
        metric=metric,
        redistribution=redistribution,
        adaptation=AdaptationConfig(enabled=True, target_seconds=target_seconds),
        engine=engine,
    )
    return pipeline.run(scenario.stream_iteration_blocks())

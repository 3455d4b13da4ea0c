"""The benchmark's only door into ``repro``.

No other file under ``bench/`` imports the program.  Everything the harness
calls is resolved here, by name, from a list of places it lives or is planned
to live (ROADMAP moves ``ExperimentScenario`` out of ``experiments.common``
and may delete a backend, the ``pipelined`` flag or the ``process`` tier).  A
surface that is gone resolves to ``None``; the probe that needed it then
reports its metric as absent instead of breaking a benchmark that later
changes are not allowed to edit.

The program measured is always the ``src/`` tree beside ``bench/`` — never an
installed copy — so a checkout without ``src/`` fails here, before any result
is printed.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"bench: no program to measure at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

import repro  # noqa: E402  (needs the path above)

if Path(repro.__file__).resolve().parent.parent != SRC:
    raise SystemExit(
        f"bench: imported repro from {repro.__file__}, expected the tree at {SRC}"
    )


def _resolve(*candidates: str) -> Any:
    """First importable ``module:attribute`` of ``candidates``, else ``None``."""
    for candidate in candidates:
        module_name, _, attribute = candidate.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        found = getattr(module, attribute, None)
        if found is not None:
            return found
    return None


def _require(*candidates: str) -> Any:
    found = _resolve(*candidates)
    if found is None:
        raise SystemExit(f"bench: none of {candidates} can be imported")
    return found


# -- the surfaces every workload needs (absence is fatal) ----------------------

ExperimentScenario = _require(
    "repro.experiments.common:ExperimentScenario",
    "repro.scenarios:ExperimentScenario",
    "repro.scenarios.scenario:ExperimentScenario",
    "repro:ExperimentScenario",
)
#: ``scenario_config(name, **overrides)``: resolved config of a registered workload.
scenario_config = _require(
    "repro.scenarios:create_scenario_config", "repro:create_scenario_config"
)
AdaptationConfig = _require("repro.core.config:AdaptationConfig", "repro:AdaptationConfig")
AdaptationController = _require(
    "repro.core.adaptation:AdaptationController", "repro:AdaptationController"
)
engine_backends = _require("repro.core.backends:engine_backends")
create_metric = _require("repro.metrics.registry:create_metric", "repro:create_metric")
iteration_row = _require(
    "repro.serve.procrun:iteration_row", "repro.serve.server:iteration_row"
)

# -- optional surfaces (``None`` when a later change removed them) -------------

BlockBatch = _resolve("repro.grid.batch:BlockBatch", "repro:BlockBatch")
reduce_to_level_batch = _resolve("repro.grid.reduction:reduce_to_level_batch")
reduce_to_corners_batch = _resolve("repro.grid.reduction:reduce_to_corners_batch")
SharedBlockBatch = _resolve("repro.grid.shm:SharedBlockBatch")
live_owned_segments = _resolve("repro.grid.shm:live_owned_segments")
IsosurfaceScript = _resolve("repro.viz.catalyst:IsosurfaceScript")
CM1Dataset = _resolve("repro.cm1.dataset:CM1Dataset", "repro:CM1Dataset")
ReplayCache = _resolve("repro.serve.cache:ReplayCache")
RunRequest = _resolve("repro.serve.server:RunRequest")
execution_tiers = _resolve("repro.serve.server:EXECUTION_TIERS") or ()
warm_shared_pool = _resolve("repro.utils.procpool:warm_shared_pool")
shared_process_pool = _resolve("repro.utils.procpool:shared_process_pool")
shared_manager = _resolve("repro.utils.procpool:shared_manager")
shutdown_shared_pool = _resolve("repro.utils.procpool:shutdown_shared_pool")


def fresh_dataset(scenario, nsnapshots: int):
    """A new live CM1 dataset generating the same data as ``scenario``'s."""
    live = scenario.dataset
    return type(live)(live.config, nsnapshots=nsnapshots, cache=True)


def build_pipeline(
    scenario,
    metric: str = "VAR",
    redistribution: str = "none",
    target: Optional[float] = None,
    engine: Optional[str] = None,
    pipelined: Optional[bool] = None,
    quality_ladder: Optional[tuple] = None,
):
    """``scenario.build_pipeline`` with optional features probed, not assumed.

    Returns ``None`` when ``engine``, ``pipelined`` or ``quality_ladder`` is
    asked for and the program no longer has it.
    """
    accepted = inspect.signature(scenario.build_pipeline).parameters
    kwargs: Dict[str, Any] = {"metric": metric, "redistribution": redistribution}
    if target is not None:
        kwargs["adaptation"] = AdaptationConfig(enabled=True, target_seconds=target)
    if engine is not None:
        if engine not in engine_backends():
            return None
        kwargs["engine"] = engine
    for name, value in (("pipelined", pipelined), ("quality_ladder", quality_ladder)):
        if value is None:
            continue
        if name not in accepted:
            return None
        kwargs[name] = value
    return scenario.build_pipeline(**kwargs)


def pipeline_steps(pipeline) -> Sequence[Any]:
    """The five Figure-2 step objects (``.name``, ``.execute(context)``)."""
    return pipeline.engine.steps


def open_store(directory: Path, field_name: str):
    """A stored dataset opened through read-only memory maps."""
    return CM1Dataset.load(Path(directory), field_name=field_name, mmap=True)


def serve_command(
    tier: str, workers: int, cache_dir: Path, grace: float, extra: Sequence[str] = ()
) -> Tuple[List[str], Dict[str, str]]:
    """Command line and environment of ``python -m repro serve`` on a free port."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--execution", tier,
        "--workers", str(workers),
        "--cache-dir", str(cache_dir),
        "--shutdown-grace", str(grace),
        *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return command, env

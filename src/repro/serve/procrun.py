"""Worker-process side of the serve mode's process execution tier.

``ServeApp(execution="process")`` dispatches each ``POST /run`` to a worker
process from the shared :func:`~repro.utils.procpool.shared_process_pool`.
The task shipped to the worker is deliberately tiny: the request fields, the
resolved :class:`~repro.scenarios.ScenarioConfig`, and the *path* of the
replay-cache store — never snapshot arrays.  The worker re-opens the store's
raw layout through read-only ``np.memmap`` views (:func:`CM1Dataset.load`
with ``mmap=True``), so parent and workers share the same physical page
cache and the handoff stays zero-copy no matter how large the dataset is.

Two proxy objects from the shared :func:`~repro.utils.procpool.shared_manager`
connect the run back to the server:

``events``
    A queue the worker pushes one ``iteration`` event dict onto per
    completed pipeline iteration, as it completes — the server forwards
    them straight onto the NDJSON stream, so latency-to-first-event is the
    first iteration's latency, not the whole run's.
``cancel``
    An event the server sets to abort the run (request timeout, server
    shutdown, client gone).  The worker checks it — and its wall-clock
    deadline — between iterations and unwinds with :class:`RunCancelled`;
    the pipeline's ``finally`` blocks plus a defensive
    :func:`~repro.grid.shm.purge_owned_segments` guarantee a cancelled run
    leaks no shared-memory segments.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional

from repro.cm1.dataset import CM1Dataset
from repro.core.config import AdaptationConfig
from repro.core.results import IterationResult
from repro.grid.shm import purge_owned_segments
from repro.scenarios import ScenarioConfig

__all__ = ["RunCancelled", "iteration_row", "run_scenario_in_worker"]


class RunCancelled(Exception):
    """A run aborted before completing (deadline, shutdown, or disconnect).

    ``reason`` becomes the terminal NDJSON error event's ``reason`` field
    (``"timeout"`` / ``"shutdown"`` / ``"disconnect"``).  Carries its reason
    through ``args`` so instances survive the pool's pickle round-trip.
    """

    def __init__(self, reason: str = "timeout") -> None:
        super().__init__(reason)
        self.reason = reason


def iteration_row(result: IterationResult) -> Dict[str, object]:
    """Per-iteration JSON row — same shape as ``python -m repro run``."""
    return {
        "iteration": result.iteration,
        "percent_reduced": result.percent_reduced,
        "nblocks": result.nblocks,
        "nreduced": result.nreduced,
        "moved_bytes": result.moved_bytes,
        "modelled_steps": dict(result.modelled_steps),
        "modelled_total": result.modelled_total,
        "load_imbalance": result.load_imbalance,
    }


def run_scenario_in_worker(
    request: Dict[str, object],
    config: ScenarioConfig,
    store_dir: str,
    events,
    cancel,
    deadline: Optional[float],
) -> Dict[str, object]:
    """Execute one scenario run inside a pool worker; returns the summary.

    Parameters
    ----------
    request:
        The validated ``RunRequest`` fields as a plain dict (kept free of
        server-module types so the task pickles without importing the
        server).
    config:
        The fully resolved scenario config (identity of the cached data).
    store_dir:
        Path of the raw-layout replay store the parent pinned for the
        duration of this run; re-opened here with ``mmap=True``.
    events, cancel:
        Manager proxies (see module docstring).
    deadline:
        Absolute ``time.time()`` deadline, or ``None``.  Wall-clock rather
        than monotonic so the value is meaningful across processes on every
        platform.
    """
    def check() -> None:
        if cancel.is_set():
            raise RunCancelled("timeout")
        if deadline is not None and time.time() > deadline:
            raise RunCancelled("timeout")

    try:
        check()
        dataset = CM1Dataset.load(
            Path(store_dir), field_name=config.field_name, mmap=True
        )
        # Import deferred: the experiments layer is heavy, and fork-started
        # workers inherit the parent's modules anyway.
        from repro.experiments.common import ExperimentScenario

        scenario = ExperimentScenario(config, dataset=dataset)
        adaptation = None
        if request.get("target") is not None:
            adaptation = AdaptationConfig(
                enabled=True, target_seconds=float(request["target"])
            )
        pipeline = scenario.build_pipeline(
            metric=request.get("metric", "VAR"),
            redistribution=request.get("redistribution", "none"),
            adaptation=adaptation,
            render_mode=request.get("render_mode", "count"),
            # No pool inside this pool worker: pool_pays() refuses it.
            engine=request.get("backend"),
        )

        def on_iteration(result: IterationResult) -> None:
            check()
            events.put({"type": "iteration", **iteration_row(result)})

        run = pipeline.run(
            scenario.stream_iteration_blocks(),
            percent_override=request.get("percent"),
            on_iteration=on_iteration,
        )
        check()
        return {
            "type": "summary",
            "scenario": {
                "name": config.name or request.get("scenario"),
                "ncores": config.ncores,
                "shape": list(config.shape),
                "nsnapshots": config.nsnapshots,
                "seed": config.seed,
            },
            "config": pipeline.config_summary(),
            "run": run.summary(),
        }
    finally:
        # A cancelled/failed run must not leak shm segments in this worker.
        purge_owned_segments()

"""The run: one validated request, one body, and the pool worker's door to it.

``python -m repro run``, the serve mode's thread tier and its process tier
answer the same question — run this registered scenario with these options
and report every iteration — so they share everything but the transport:

:class:`RunRequest`
    The single validator.  A ``POST /run`` body and the CLI's argparse
    namespace both become one through :meth:`RunRequest.from_payload`; a
    refused value is a ``ValueError`` naming the field (``400`` from the
    server, ``error: ...`` and exit 2 from the CLI), and
    :meth:`RunRequest.scenario_config` resolves the workload before anything
    is written or simulated.
:func:`execute_run`
    The run body: builds the pipeline once, hands ``emit`` one ``iteration``
    event per iteration *as it completes*, calls ``check`` (the door's
    deadline / cancellation hook) between iterations, returns the summary.
:func:`run_scenario_in_worker`
    The process tier's door, run inside a worker of the shared
    :func:`~repro.utils.procpool.shared_process_pool`.  The task shipped to it
    is deliberately tiny — the request, the resolved config and the *path* of
    the replay cache's store, never snapshot arrays: the worker re-opens the
    store through read-only ``np.memmap`` views, so parent and workers
    share one page cache.  One per-run channel — two proxies of the shared
    :func:`~repro.utils.procpool.shared_manager`, reused from run to run —
    connects it to the server: the ``events`` queue its ``emit`` puts onto
    and that it closes with :data:`END_OF_STREAM`, and the ``cancel`` event
    the server sets (timeout, shutdown, client gone), which its ``check``
    reads together with a wall-clock deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

from repro.core.backends import engine_backends
from repro.core.config import AdaptationConfig
from repro.core.redistribution import STRATEGIES
from repro.core.results import IterationResult, PipelineRunResult
from repro.grid.shm import purge_owned_segments
from repro.metrics.registry import default_registry
from repro.scenarios import ExperimentScenario, ScenarioConfig, get_scenario
from repro.viz.catalyst import RENDER_MODES

__all__ = [
    "END_OF_STREAM",
    "RunCancelled",
    "RunRequest",
    "execute_run",
    "iteration_row",
    "run_scenario_in_worker",
]

#: The last item a worker puts on its run's ``events`` queue, whether the run
#: finished, failed or was cancelled.  Every other item is an event dict.
END_OF_STREAM = None


class RunCancelled(Exception):
    """A run aborted before completing (deadline, shutdown, or disconnect).

    ``reason`` becomes the terminal NDJSON error event's ``reason`` field
    (``"timeout"`` / ``"shutdown"`` / ``"disconnect"``).  Carries its reason
    through ``args`` so instances survive the pool's pickle round-trip.
    """

    def __init__(self, reason: str = "timeout") -> None:
        super().__init__(reason)
        self.reason = reason


def _numeric(name: str, value: object, kind: type):
    """``value`` as ``kind`` (``int`` or ``float``), ``None`` passed through.

    Booleans are refused, and so is anything an ``int`` would truncate.
    """
    if value is None:
        return None
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        word = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {word}, got {value!r}") from None
    return number


@dataclass(frozen=True)
class RunRequest:
    """One validated run request — whichever door it came through."""

    scenario: str
    ranks: Optional[int] = None
    snapshots: Optional[int] = None
    seed: Optional[int] = None
    metric: str = "VAR"
    redistribution: str = "none"
    percent: Optional[float] = None
    target: Optional[float] = None
    render_mode: str = "count"
    backend: Optional[str] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("ranks", "snapshots"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.metric.strip().upper() not in default_registry():
            raise ValueError(
                f"unknown metric {self.metric!r}; available: "
                f"{', '.join(default_registry().names())}"
            )
        if self.redistribution not in STRATEGIES:
            raise ValueError(
                f"redistribution must be one of {tuple(STRATEGIES)}, "
                f"got {self.redistribution!r}"
            )
        if self.percent is not None and not 0.0 <= self.percent <= 100.0:
            raise ValueError(f"percent must be in [0, 100], got {self.percent}")
        if self.target is not None and not self.target > 0:
            raise ValueError(f"target must be > 0, got {self.target}")
        if self.render_mode not in RENDER_MODES:
            raise ValueError(
                f"render_mode must be one of {RENDER_MODES}, got {self.render_mode!r}"
            )
        if self.backend is not None and self.backend not in engine_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; available: "
                f"{', '.join(engine_backends())}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunRequest":
        """Build a request from a decoded JSON body; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario.strip():
            raise ValueError("'scenario' (a registered name) is required")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        backend = payload.get("backend")
        return cls(
            scenario=scenario.strip(),
            ranks=_numeric("ranks", payload.get("ranks"), int),
            snapshots=_numeric("snapshots", payload.get("snapshots"), int),
            seed=_numeric("seed", payload.get("seed"), int),
            metric=str(payload.get("metric", "VAR")),
            redistribution=str(payload.get("redistribution", "none")),
            percent=_numeric("percent", payload.get("percent"), float),
            target=_numeric("target", payload.get("target"), float),
            render_mode=str(payload.get("render_mode", "count")),
            backend=None if backend is None else str(backend).strip().lower(),
            timeout_s=_numeric("timeout_s", payload.get("timeout_s"), float),
        )

    def scenario_config(self) -> ScenarioConfig:
        """The workload this request runs; ``KeyError`` for an unregistered name."""
        return get_scenario(self.scenario).build(
            ncores=self.ranks, nsnapshots=self.snapshots, seed=self.seed
        )


def _json_default(value):
    """Coerce NumPy scalars/arrays hiding in results into plain JSON types.

    ``tolist`` must be tried first: it handles arrays of any size (and
    returns a plain scalar for 0-d arrays and NumPy scalars), whereas
    ``item`` raises on multi-element arrays.
    """
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def iteration_row(result: IterationResult) -> Dict[str, object]:
    """Per-iteration JSON row of ``repro run`` and of an ``iteration`` event."""
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


def execute_run(
    request: RunRequest,
    scenario: ExperimentScenario,
    emit: Callable[[Dict[str, object]], None],
    check: Callable[[], None],
) -> Tuple[Dict[str, object], PipelineRunResult]:
    """Run ``request`` on the opened ``scenario``; the body behind every door.

    ``emit`` receives one ``iteration`` event per completed iteration, after
    ``check`` let the run continue — so a cancelled run stops between
    iterations and what was emitted stays well-formed.  Returns the
    ``summary`` event and the run it summarises (whose step reports only
    ``repro run`` reads).
    """
    config = scenario.config
    adaptation = None
    if request.target is not None:
        adaptation = AdaptationConfig(enabled=True, target_seconds=request.target)
    pipeline = scenario.build_pipeline(
        metric=request.metric,
        redistribution=request.redistribution,
        adaptation=adaptation,
        render_mode=request.render_mode,
        engine=request.backend,
    )

    def on_iteration(result: IterationResult) -> None:
        check()
        emit({"type": "iteration", **iteration_row(result)})

    run = pipeline.run(
        scenario.stream_iteration_blocks(),
        percent_override=request.percent,
        on_iteration=on_iteration,
    )
    check()
    summary = {
        "type": "summary",
        "scenario": {
            "name": config.name or request.scenario,
            "ncores": config.ncores,
            "shape": list(config.shape),
            "nsnapshots": config.nsnapshots,
            "seed": config.seed,
        },
        "config": pipeline.config_summary(),
        "run": run.summary(),
    }
    return summary, run


def run_scenario_in_worker(
    request: RunRequest,
    config: ScenarioConfig,
    store_dir: str,
    events,
    cancel,
    deadline: Optional[float],
) -> Dict[str, object]:
    """Execute one run inside a pool worker; returns the summary event.

    ``store_dir`` is the replay store the parent pinned for the
    duration of this run.  ``deadline`` is an absolute ``time.time()`` value
    or ``None`` — wall-clock rather than monotonic so that it means the same
    in every process.  Whatever the outcome, the last thing put on
    ``events`` is :data:`END_OF_STREAM`, after this worker's segments are
    purged: the parent stops relaying on it, then reads the future.
    """

    def check() -> None:
        if cancel.is_set() or (deadline is not None and time.time() > deadline):
            raise RunCancelled("timeout")

    try:
        check()
        scenario = ExperimentScenario.from_store(config, store_dir)
        return execute_run(request, scenario, events.put, check)[0]
    finally:
        # A cancelled/failed run must not leak shm segments in this worker.
        purge_owned_segments()
        events.put(END_OF_STREAM)

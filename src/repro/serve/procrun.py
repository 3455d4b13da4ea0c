"""The run: one validated request, one body, and the pool worker's door to it.

``python -m repro run``, the serve mode's thread tier and its process tier
answer the same question — run this catalogue scenario with these options
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
    is deliberately tiny — the request, the resolved config, the *path* of
    the replay cache's store and a run id, never snapshot arrays: the worker opens the
    store through read-only ``np.memmap`` views, so parent and workers
    share one page cache.  Each worker keeps the scenario it last opened —
    calibrated platform and decomposed snapshots included — and runs the
    next request for the same config, path and manifest stamp
    (``st_dev``, ``st_ino``, ``st_mtime_ns``, ``st_size`` of
    ``manifest.json``) over it without opening anything; any other request
    drops it *before* opening its own store, so a worker holds at most one
    store.  A store deleted and rebuilt at the same path has a new manifest
    inode and is opened afresh; an evicted store's maps live until that
    worker's next run.  It talks to the server over the channel its pool
    generation gave it (:func:`~repro.utils.procpool.worker_channel`): every
    message on its slot's pipe is ``(run_id, item)``, tagged with the run id
    the server assigned — first its slot number, then one ``iteration``
    event per iteration, last :data:`END_OF_STREAM` — and its ``check``
    stops the run when its slot's cancel word equals that run id (timeout,
    shutdown, client gone) or the wall-clock deadline passed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import AdaptationConfig
from repro.core.redistribution import STRATEGIES
from repro.core.results import IterationResult, PipelineRunResult
from repro.metrics.registry import METRICS
from repro.scenarios import (
    ExperimentScenario,
    ScenarioConfig,
    create_scenario_config,
    scenario_decomposition,
)
from repro.utils.procpool import worker_channel
from repro.viz.catalyst import RENDER_MODES

__all__ = [
    "END_OF_STREAM",
    "RunCancelled",
    "RunRequest",
    "execute_run",
    "iteration_row",
    "run_scenario_in_worker",
]

#: The last item a worker sends for a run, whether the run finished, failed or
#: was cancelled.  The first is the worker's slot number; every other item is
#: an event dict.
END_OF_STREAM = None


#: This worker's resident scenario: ``(config, store_dir, stamp, scenario)``
#: of the store it opened last, or ``None`` (see :func:`_resident_scenario`).
_RESIDENT: Optional[
    Tuple[ScenarioConfig, str, Tuple[int, ...], ExperimentScenario]
] = None


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
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("ranks", "snapshots"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.metric.strip().upper() not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; available: "
                f"{', '.join(sorted(METRICS))}"
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
            timeout_s=_numeric("timeout_s", payload.get("timeout_s"), float),
        )

    def scenario_config(self) -> ScenarioConfig:
        """The workload this request runs; ``KeyError`` for a name not in the
        catalogue, ``ValueError`` for a rank count the workload's grid cannot host."""
        config = create_scenario_config(
            self.scenario, ncores=self.ranks, nsnapshots=self.snapshots, seed=self.seed
        )
        try:
            scenario_decomposition(config)
        except ValueError as exc:
            raise ValueError(
                f"ranks={config.ncores} do not fit the {config.shape} grid of "
                f"{self.scenario!r}: {exc}"
            ) from None
        return config


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


def _manifest_stamp(store_dir: str) -> Tuple[int, ...]:
    """Device, inode, mtime and size of the store's manifest — what a store
    deleted and rebuilt at the same path does not keep."""
    stat = os.stat(os.path.join(store_dir, "manifest.json"))
    return (stat.st_dev, stat.st_ino, stat.st_mtime_ns, stat.st_size)


def _resident_scenario(config: ScenarioConfig, store_dir: str) -> ExperimentScenario:
    """The worker's scenario for ``config`` at ``store_dir``, opened at most
    once per residency.

    Runs never write into a scenario, so the held one serves every later run
    of the same config, path and manifest stamp.  Anything else drops it
    first and opens the store afresh: never two opened stores at once.
    """
    global _RESIDENT
    stamp = _manifest_stamp(store_dir)
    if _RESIDENT is not None and _RESIDENT[:3] == (config, store_dir, stamp):
        return _RESIDENT[3]
    _RESIDENT = None
    scenario = ExperimentScenario.from_store(config, store_dir)
    _RESIDENT = (config, store_dir, stamp, scenario)
    return scenario


def run_scenario_in_worker(
    request: RunRequest,
    config: ScenarioConfig,
    store_dir: str,
    run_id: int,
    deadline: Optional[float],
) -> Dict[str, object]:
    """Execute one run inside a pool worker; returns the summary event.

    ``store_dir`` is the replay store the parent pinned for the
    duration of this run; it is opened only if this worker does not hold it
    already (:func:`_resident_scenario`).  ``run_id`` (>= 1) tags every
    message on this worker's pipe, and the run is cancelled only when the
    slot's cancel word equals it, so a word left by an earlier run never
    cancels a later one.  ``deadline`` is an absolute ``time.time()`` value
    or ``None`` — wall-clock rather than monotonic so that it means the same
    in every process.  The first message announces the slot; whatever the
    outcome, the last is :data:`END_OF_STREAM`: the parent stops relaying on
    it, then reads the future.
    """
    slot, sender, cancel = worker_channel()

    def emit(item) -> None:
        sender.send((run_id, item))

    def check() -> None:
        if cancel[slot] == run_id or (deadline is not None and time.time() > deadline):
            raise RunCancelled("timeout")

    try:
        emit(slot)
        check()
        scenario = _resident_scenario(config, store_dir)
        return execute_run(request, scenario, emit, check)[0]
    finally:
        emit(END_OF_STREAM)

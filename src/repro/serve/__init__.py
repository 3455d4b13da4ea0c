"""Service mode: the pipeline as a long-running local endpoint.

``python -m repro serve`` turns the one-shot CLI into a small asyncio HTTP
service.  Clients POST scenario-run requests to ``/run``; the server
multiplexes runs over a shared worker pool — a thread pool by default, or
GIL-free worker processes with zero-copy mmap data handoff under
``--execution process`` — streams one JSON line per completed iteration
(NDJSON), enforces per-request deadlines (``timeout_s`` and the server's
``--max-run-seconds`` cap), and caches each resolved scenario's snapshots on
disk as a raw-layout :class:`~repro.io.store.DatasetStore` keyed by the full
:class:`~repro.scenarios.ScenarioConfig` — so a repeated request
memory-maps the stored snapshots instead of re-simulating CM1.  The cache is
LRU-bounded via ``--cache-max-entries`` / ``--cache-max-bytes``.

:mod:`repro.serve.cache` holds the replay cache, :mod:`repro.serve.server`
the protocol and the two tiers' transports, :mod:`repro.serve.procrun` the
request validator and the run body both tiers share with ``python -m repro
run``, plus the worker-process door of the process tier.
"""

from repro.serve.cache import ReplayCache, scenario_cache_key
from repro.serve.procrun import RunCancelled
from repro.serve.server import EXECUTION_TIERS, RunRequest, ServeApp, serve_forever

__all__ = [
    "EXECUTION_TIERS",
    "ReplayCache",
    "RunCancelled",
    "RunRequest",
    "ServeApp",
    "scenario_cache_key",
    "serve_forever",
]

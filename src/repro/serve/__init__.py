"""Service mode: the pipeline as a long-running local endpoint.

``python -m repro serve`` turns the one-shot CLI into a small asyncio HTTP
service: clients POST scenario-run requests to ``/run`` and read one JSON line
per completed iteration (NDJSON) under a per-request deadline, run on a
thread pool or, under ``--execution process``, on GIL-free worker processes.
Each resolved scenario's snapshots are cached on disk, LRU-bounded, and a
repeated request memory-maps them instead of re-simulating CM1.

:mod:`repro.serve.protocol` holds the HTTP protocol as pure functions,
:mod:`repro.serve.server` the two tiers' transports, :mod:`repro.serve.cache`
the replay cache, and :mod:`repro.serve.procrun` the request validator and
the run body both tiers share with ``python -m repro run``, plus the
worker-process door of the process tier.
"""

from repro.serve.server import RunRequest, ServeApp, serve_forever

__all__ = ["RunRequest", "ServeApp", "serve_forever"]

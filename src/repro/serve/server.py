"""The asyncio scenario-run service behind ``python -m repro serve``.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server``
plus hand-rolled request parsing — no web framework in the image), because
the protocol is tiny:

``GET /health``
    ``{"status": "ok", "execution": ..., "cache": {...}, "executor": {...}}``
    — liveness plus cache counters (hits/misses/evictions/occupancy, and
    ``resident``: entries holding an open scenario) and executor depth
    (active runs, queued runs, worker count, execution tier).

``GET /scenarios``
    The registered workload names.

``POST /run``
    JSON body selecting a registered scenario and optional overrides
    (``ranks``, ``snapshots``, ``seed``, ``metric``, ``redistribution``,
    ``percent``, ``target``, ``render_mode``, ``backend``, ``timeout_s``),
    validated by :class:`~repro.serve.procrun.RunRequest` — the validator
    ``python -m repro run`` uses.  A request it refuses is answered ``400``
    (``404`` for an unregistered scenario) before the streaming header, so
    no ``200`` is ever followed by a validation failure; a ``Content-Length``
    that is not a plain number is ``400`` and one above
    :data:`MAX_BODY_BYTES` is ``413``, unread.
    The response streams NDJSON: one ``start`` event (with
    the cache verdict), one ``iteration`` event per completed pipeline
    iteration *as it completes*, and a final ``summary`` event matching
    ``python -m repro run``'s machine-readable contract — or a terminal
    ``error`` event whose ``reason`` distinguishes a ``"timeout"`` (the
    request's ``timeout_s`` or the server's ``--max-run-seconds`` cap
    expired), a ``"shutdown"`` (the server is draining), and an
    ``"exception"``.

Two execution tiers (``ServeApp(execution=...)``, CLI ``--execution``), which
differ in where :func:`repro.serve.procrun.execute_run` — the one run body,
also behind ``python -m repro run`` — executes and how its events travel:

``"thread"`` (default)
    Runs execute on a shared :class:`~concurrent.futures.ThreadPoolExecutor`
    — many concurrent requests multiplex over a bounded pool while the
    event loop keeps streaming.  A hit runs the pipeline and nothing else:
    :meth:`~repro.serve.cache.ReplayCache.acquire` hands every run of a
    resident key the same opened scenario, so the store is not re-opened,
    the platform not re-calibrated and no snapshot decomposed twice.
    NumPy-heavy runs overlap well; runs dominated by *GIL-bound* Python
    (scalar user metrics like ``PYVAR``) serialise on one core — a request
    thread never forks, so the scoring step scores them inline here
    (:func:`repro.utils.procpool.pool_pays`).

``"process"``
    Each run executes in a worker process from the shared
    :func:`~repro.utils.procpool.shared_process_pool`, GIL-free.  Snapshot
    data is never pickled to workers: the worker re-opens the replay
    cache's store by path through read-only memory maps (see
    :mod:`repro.serve.procrun`), and iteration events stream back over a
    manager queue, so NDJSON latency-to-first-event stays flat.  The stream
    ends on the worker's end-of-stream mark, not on a poll time-out, and its
    manager channel (event queue + cancel flag) is reused by the next run
    unless this one was cancelled or lost its worker.

Scenario data resolves through the :class:`~repro.serve.cache.ReplayCache`:
the first request for a config simulates CM1 and persists the snapshots,
every identical request after it replays them via read-only memory maps.
The cache entry stays pinned (eviction-exempt) for the duration of each run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import queue as queue_module
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.grid.shm import purge_owned_segments
from repro.scenarios import ScenarioConfig, scenario_names
from repro.serve.cache import ReplayCache, scenario_cache_key
from repro.serve.procrun import (
    END_OF_STREAM,
    RunCancelled,
    RunRequest,
    _json_default,
    execute_run,
    run_scenario_in_worker,
)
from repro.utils.procpool import (
    default_process_workers,
    shared_manager,
    shared_process_pool,
    warm_shared_pool,
)

__all__ = ["EXECUTION_TIERS", "RunRequest", "ServeApp", "serve_forever"]

_SENTINEL = object()
#: Silent on every healthy request; with no handler configured the stdlib's
#: last-resort handler writes ERROR records to stderr.
_LOG = logging.getLogger("repro.serve")

#: Valid values of ``ServeApp(execution=...)`` / ``serve --execution``.
EXECUTION_TIERS = ("thread", "process")

#: Seconds past a request deadline before the *streaming* side force-closes
#: the response.  The cooperative cancel normally fires first (between
#: iterations); this watchdog only catches a run stuck inside one iteration.
STREAM_GRACE_SECONDS = 2.0

#: Poll interval of the process tier's cancellation / dead-worker poll and of
#: the shutdown drain.
_POLL_SECONDS = 0.05

#: Largest request body read; a longer ``Content-Length`` is answered ``413``.
MAX_BODY_BYTES = 64 * 1024


class _RunScope:
    """Cancellation scope of one run: deadline + cancel flag + shutdown.

    Shared between the streaming coroutine (which enforces the hard stream
    deadline), the runner thread (which checks cooperatively between
    iterations via :meth:`check`), and — in the process tier — a manager
    Event proxy mirrored into the worker process.
    """

    def __init__(
        self, timeout_s: Optional[float], shutdown: threading.Event
    ) -> None:
        self.timeout_s = timeout_s
        self.started = time.monotonic()
        self.deadline = None if timeout_s is None else self.started + timeout_s
        self._shutdown = shutdown
        self._cancel = threading.Event()
        self._reason: Optional[str] = None
        self._remote_cancel = None  # manager Event proxy (process tier)
        self._remote_lock = threading.Lock()

    def attach_remote_cancel(self, remote) -> None:
        with self._remote_lock:
            self._remote_cancel = remote
            if self.cancelled() is not None:
                remote.set()

    def detach_remote_cancel(self) -> bool:
        """Stop mirroring into the remote flag; ``True`` if never cancelled.

        After a ``True`` no later :meth:`request_cancel` can reach the flag,
        so its channel is clean for another run.
        """
        with self._remote_lock:
            self._remote_cancel = None
            return self.cancelled() is None

    def request_cancel(self, reason: str) -> None:
        if self._reason is None:
            self._reason = reason
        self._cancel.set()
        with self._remote_lock:
            if self._remote_cancel is not None:
                self._remote_cancel.set()

    def cancelled(self) -> Optional[str]:
        """The cancel reason if this run should stop, else ``None``."""
        if self._cancel.is_set():
            return self._reason or "timeout"
        if self._shutdown.is_set():
            return "shutdown"
        if self.deadline is not None and time.monotonic() > self.deadline:
            return "timeout"
        return None

    def check(self) -> None:
        """Raise :class:`RunCancelled` when the run should stop."""
        reason = self.cancelled()
        if reason is not None:
            self.request_cancel(reason)
            raise RunCancelled(reason)

    def stream_expired(self) -> bool:
        """Whether the streaming side should give up on the runner."""
        return (
            self.deadline is not None
            and time.monotonic() > self.deadline + STREAM_GRACE_SECONDS
        )


class ServeApp:
    """The service: cache + worker pools + request handling.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk replay cache.
    max_workers:
        Number of scenario runs that can execute concurrently (further
        requests queue).  In the process tier this bounds the server-side
        streaming threads; worker processes are bounded by the shared
        process pool (:func:`default_process_workers`).
    execution:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
    max_run_seconds:
        Server-side cap on each run's duration.  A request's ``timeout_s``
        can only tighten it; the effective deadline is the minimum of both.
    cache_max_entries, cache_max_bytes:
        LRU bounds forwarded to :class:`~repro.serve.cache.ReplayCache`.
    shutdown_grace:
        Seconds :meth:`close` waits for cancelled in-flight runs to drain
        before abandoning them.
    """

    def __init__(
        self,
        cache_dir: Path,
        max_workers: int = 8,
        execution: str = "thread",
        max_run_seconds: Optional[float] = None,
        cache_max_entries: Optional[int] = None,
        cache_max_bytes: Optional[int] = None,
        shutdown_grace: float = 10.0,
    ) -> None:
        if execution not in EXECUTION_TIERS:
            raise ValueError(
                f"execution must be one of {EXECUTION_TIERS}, got {execution!r}"
            )
        if max_run_seconds is not None and not max_run_seconds > 0:
            raise ValueError(
                f"max_run_seconds must be > 0, got {max_run_seconds}"
            )
        self.execution = execution
        self.max_run_seconds = max_run_seconds
        self.shutdown_grace = float(shutdown_grace)
        self.cache = ReplayCache(
            Path(cache_dir),
            max_entries=cache_max_entries,
            max_bytes=cache_max_bytes,
        )
        self.max_workers = int(max_workers)
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        self._shutdown = threading.Event()
        self._runs_lock = threading.Lock()
        self._submitted = 0
        self._active = 0
        self._completed = 0
        #: Process tier: clean per-run channels, see :meth:`_take_channel`.
        self._free_channels: List[Tuple[object, object]] = []
        if execution == "process":
            # Fork the worker processes (and the manager daemon) during
            # single-threaded startup, not from the first request thread.
            shared_manager()
            warm_shared_pool()

    # -- run accounting ------------------------------------------------------

    def _run_submitted(self) -> None:
        with self._runs_lock:
            self._submitted += 1

    def _run_started(self) -> None:
        with self._runs_lock:
            self._active += 1

    def _run_finished(self) -> None:
        with self._runs_lock:
            self._active -= 1
            self._completed += 1

    def executor_stats(self) -> Dict[str, object]:
        """Executor depth for ``GET /health``."""
        with self._runs_lock:
            active = self._active
            queued = max(0, self._submitted - self._completed - active)
            completed = self._completed
        workers = (
            default_process_workers()
            if self.execution == "process"
            else self.max_workers
        )
        return {
            "execution": self.execution,
            "workers": workers,
            "active": active,
            "queued": queued,
            "completed": completed,
        }

    def _timeout_for(self, request: RunRequest) -> Optional[float]:
        """Effective run timeout: request ``timeout_s`` ∧ server cap."""
        bounds = [
            t for t in (request.timeout_s, self.max_run_seconds) if t is not None
        ]
        return min(bounds) if bounds else None

    # -- run execution -------------------------------------------------------

    def _execute_run(
        self, request: RunRequest, config, emit, scope: _RunScope
    ) -> Dict[str, object]:
        """Blocking scenario run (worker-pool side), either tier.

        ``emit(event_dict)`` is called for the start event and every
        completed iteration; the returned dict is the final summary event.
        Raises :class:`RunCancelled` when the scope's deadline expires or a
        cancellation (shutdown, disconnect) is requested — always between
        iterations, so partial NDJSON output stays well-formed.
        """
        if self.execution == "process":
            return self._execute_process_run(request, config, emit, scope)
        with self.cache.acquire(config) as (scenario, was_hit):
            emit(self._start_event(request, config, was_hit))
            scope.check()
            summary, _ = execute_run(request, scenario, emit, scope.check)
            summary["cache"] = self.cache.stats()
            return summary

    def _execute_process_run(
        self, request: RunRequest, config, emit, scope: _RunScope
    ) -> Dict[str, object]:
        """Dispatch one run to a worker process and relay its event stream.

        The cache entry stays pinned (``acquire_store``) while the worker
        re-opens the store by path; iteration events arrive over the run's
        channel queue and are forwarded as they land, until the worker's
        :data:`~repro.serve.procrun.END_OF_STREAM` mark.  Cancellation mirrors
        the scope into the worker through the channel's Event — the worker
        aborts between iterations and its ``finally`` purges any shm
        segments.  The poll only notices a cancellation or a worker that died
        before its mark.
        """
        with self.cache.acquire_store(config) as (store_dir, was_hit):
            emit(self._start_event(request, config, was_hit))
            channel = self._take_channel()
            events, remote_cancel = channel
            scope.attach_remote_cancel(remote_cancel)
            ended = False
            try:
                scope.check()
                deadline_wall = (
                    None
                    if scope.deadline is None
                    else time.time() + max(0.0, scope.deadline - time.monotonic())
                )
                future = shared_process_pool().submit(
                    run_scenario_in_worker,
                    request,
                    config,
                    str(store_dir),
                    events,
                    remote_cancel,
                    deadline_wall,
                )
                while True:
                    reason = scope.cancelled()
                    if reason is not None:
                        scope.request_cancel(reason)  # mirrors to the worker
                        future.cancel()  # no-op once running; frees a queued task
                        raise RunCancelled(reason)
                    try:
                        event = events.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        if future.done() and future.exception() is not None:
                            break  # the worker died before its mark
                        continue
                    if event is END_OF_STREAM:
                        ended = True
                        break
                    emit(event)
                summary = future.result()
                summary["cache"] = self.cache.stats()
                return summary
            finally:
                # Only a stream read to its mark, of a run never cancelled,
                # leaves the channel empty and its flag clear.
                if scope.detach_remote_cancel() and ended:
                    self._free_channels.append(channel)
                # A cancelled parent never leaks segments of its own, and a
                # cancelled worker purges its side (procrun's finally).
                if scope.cancelled() is not None:
                    purge_owned_segments()

    def _take_channel(self) -> Tuple[object, object]:
        """A clean ``(events queue, cancel event)`` pair of manager proxies.

        Reused from :attr:`_free_channels` when one is free, else created:
        the list grows to the peak number of concurrent process-tier runs.
        """
        try:
            return self._free_channels.pop()
        except IndexError:
            manager = shared_manager()
            return manager.Queue(), manager.Event()

    def _start_event(
        self, request: RunRequest, config, was_hit: bool
    ) -> Dict[str, object]:
        return {
            "type": "start",
            "scenario": config.name or request.scenario,
            "cache": "hit" if was_hit else "miss",
            "cache_key": scenario_cache_key(config),
            "iterations": config.nsnapshots,
            "execution": self.execution,
        }

    async def stream_run(
        self, request: RunRequest, config: ScenarioConfig, write_line
    ) -> None:
        """Run a request on the pool, awaiting ``write_line`` per event."""
        loop = asyncio.get_running_loop()
        out_queue: asyncio.Queue = asyncio.Queue()
        scope = _RunScope(self._timeout_for(request), self._shutdown)

        def emit(event: Dict[str, object]) -> None:
            loop.call_soon_threadsafe(out_queue.put_nowait, event)

        def runner() -> None:
            self._run_started()
            try:
                summary = self._execute_run(request, config, emit, scope)
                emit(summary)
            except RunCancelled as exc:
                emit(self._cancel_event(exc.reason, scope))
            except Exception as exc:  # surfaced as an error event, and logged
                _LOG.exception(
                    "run failed with %s (scenario=%s seed=%s metric=%s tier=%s)",
                    type(exc).__name__,
                    request.scenario,
                    request.seed,
                    request.metric,
                    self.execution,
                )
                emit({"type": "error", "reason": "exception", "error": str(exc)})
            finally:
                self._run_finished()
                loop.call_soon_threadsafe(out_queue.put_nowait, _SENTINEL)

        self._run_submitted()
        future = loop.run_in_executor(self.executor, runner)
        finished = False
        try:
            while True:
                try:
                    event = await asyncio.wait_for(
                        out_queue.get(), timeout=_POLL_SECONDS * 5
                    )
                except asyncio.TimeoutError:
                    # Watchdog: the cooperative cancel normally ends the
                    # stream via the runner's error event; this only fires
                    # for a run wedged inside a single iteration.
                    if scope.stream_expired():
                        scope.request_cancel("timeout")
                        await write_line(
                            json.dumps(self._cancel_event("timeout", scope))
                        )
                        return
                    continue
                if event is _SENTINEL:
                    finished = True
                    break
                await write_line(json.dumps(event, default=_json_default))
        finally:
            if not finished:
                # Client gone or stream abandoned: stop the run promptly.
                if scope.cancelled() is None:
                    scope.request_cancel("disconnect")
                # Waiting for the runner must never mask the original error.
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await future

    @staticmethod
    def _cancel_event(reason: str, scope: _RunScope) -> Dict[str, object]:
        """The terminal ``error`` event of a run cancelled for ``reason``."""
        if reason == "timeout":
            bound = scope.timeout_s
            message = (
                f"run exceeded its deadline of {bound:.3f}s"
                if bound is not None
                else "run cancelled by deadline"
            )
        elif reason == "shutdown":
            message = "server is shutting down"
        else:
            message = f"run cancelled ({reason})"
        return {"type": "error", "reason": reason, "error": message}

    # -- protocol ------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (the server always closes after it)."""
        try:
            method, path, headers = await _read_request_head(reader)
            length = headers.get("content-length") or "0"
            if not (length.isascii() and length.isdigit()):
                await _respond_json(
                    writer, 400, {"error": f"malformed Content-Length {length!r}"}
                )
            elif int(length) > MAX_BODY_BYTES:
                await _respond_json(
                    writer,
                    413,
                    {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
                )
            else:
                body = await reader.readexactly(int(length))
                await self._dispatch(writer, method, path, body)
        except (asyncio.IncompleteReadError, ConnectionResetError, ValueError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if method == "GET" and path == "/health":
            await _respond_json(
                writer,
                200,
                {
                    "status": "ok",
                    "execution": self.execution,
                    "cache": self.cache.stats(),
                    "executor": self.executor_stats(),
                },
            )
            return
        if method == "GET" and path == "/scenarios":
            await _respond_json(writer, 200, {"scenarios": scenario_names()})
            return
        if method == "POST" and path == "/run":
            await self._handle_run(writer, body)
            return
        await _respond_json(writer, 404, {"error": f"no route {method} {path}"})

    async def _handle_run(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        # Everything that can refuse the request does so here, before the
        # streaming header commits the reply to ``200``.
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = RunRequest.from_payload(payload)
            config = request.scenario_config()
        except ValueError as exc:  # includes a body that is not UTF-8 JSON
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        except KeyError:
            await _respond_json(
                writer,
                404,
                {
                    "error": f"unknown scenario {request.scenario!r}",
                    "available": scenario_names(),
                },
            )
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

        async def write_line(line: str) -> None:
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()

        await self.stream_run(request, config, write_line)

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and return the listening server (``port=0`` picks a free one)."""
        return await asyncio.start_server(self.handle_connection, host, port)

    def close(self, grace_s: Optional[float] = None) -> None:
        """Shut down, cancelling in-flight runs within a bounded grace.

        Sets the shutdown flag every run scope observes (thread-tier runs
        abort at their next iteration boundary, process-tier drains mirror
        the cancel into their workers), waits up to ``grace_s`` (default:
        the configured ``shutdown_grace``) for active runs to drain, then
        abandons whatever is left rather than blocking exit on it.
        """
        grace = self.shutdown_grace if grace_s is None else float(grace_s)
        self._shutdown.set()
        deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < deadline:
            with self._runs_lock:
                drained = self._active == 0 and self._submitted == self._completed
            if drained:
                break
            time.sleep(_POLL_SECONDS)
        self.executor.shutdown(wait=False, cancel_futures=True)
        purge_owned_segments()


async def _read_request_head(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str]]:
    """Parse the request line + headers; raises ``ValueError`` on garbage."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
) -> None:
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
    }
    body = json.dumps(payload, default=_json_default).encode("utf-8") + b"\n"
    writer.write(
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n".encode("latin-1")
        + body
    )
    await writer.drain()


async def serve_forever(
    host: str,
    port: int,
    cache_dir: Path,
    max_workers: int = 8,
    execution: str = "thread",
    max_run_seconds: Optional[float] = None,
    cache_max_entries: Optional[int] = None,
    cache_max_bytes: Optional[int] = None,
    shutdown_grace: float = 10.0,
    ready_message: bool = True,
) -> None:
    """Run the service until cancelled (the ``python -m repro serve`` body)."""
    app = ServeApp(
        cache_dir,
        max_workers=max_workers,
        execution=execution,
        max_run_seconds=max_run_seconds,
        cache_max_entries=cache_max_entries,
        cache_max_bytes=cache_max_bytes,
        shutdown_grace=shutdown_grace,
    )
    server = await app.start(host, port)
    try:
        bound = server.sockets[0].getsockname()
        if ready_message:
            print(f"repro serve listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            sys.stderr.flush()
        async with server:
            await server.serve_forever()
    finally:
        app.close()

"""The asyncio scenario-run service behind ``python -m repro serve``.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server``,
no web framework in the image).  Every protocol decision — the routes, the
refusals and the NDJSON framing — is a pure function of
:mod:`repro.serve.protocol`; :meth:`ServeApp.handle_connection` only moves
bytes between the socket and them, and streams an accepted run.

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

    The tier's Python runs on one CPU, the last of the process's
    (:data:`~repro.utils.procpool.PROCESS_CPUS`), chosen when the app is
    built: each runner thread binds itself as it starts, and
    :func:`serve_forever` binds the event loop's thread while it serves.
    Two runs in one interpreter take turns holding the GIL, and on two cores
    every NumPy call that releases it hands it to a thread on the other core
    — a cross-core wake that costs more than the overlap it buys (CPython's
    convoy effect).  Measured in-process on a 2-CPU box (VAR, 50 %,
    ``round_robin``, one resident scenario, p50 per hit):

    ====================  ==========  ==================  ==================
    scenario              one run     two in flight       two in flight,
                          alone       (both cores)        bound to one CPU
    ====================  ==========  ==================  ==================
    ``decaying_storm``    12–15 ms    33–38 ms            26–31 ms
    ``blue_waters_64``    24–26 ms    47–53 ms            48–55 ms
    ====================  ==========  ==================  ==================

    Rejected: a turnstile passing one iteration at a time between threads
    (each turn is a cross-core wake), one lock around whole runs (a second
    client's first event waits a whole run), ``sys.setswitchinterval`` (no
    effect), binding misses too and binding the process tier (both lose
    throughput).  So a miss widens its runner to every CPU while
    :meth:`~repro.serve.cache.ReplayCache.acquire` simulates CM1, and the
    process tier binds nothing.  Two thread-tier servers on one host share
    that CPU.  Through the real server, the bound loop is what brings a
    run's first event forward (runners bound alone: later than unbound),
    and ``blue_waters_64`` hits lose nothing (README, "Execution tiers").
    Measured on 2 CPUs only: hosts with more, where unbound runs could also
    overlap their GIL-free NumPy, are unverified.  Python that holds the GIL throughout (scalar user metrics
    like ``PYVAR``) serialises here either way: a request thread never
    forks, so the scoring step scores it inline
    (:func:`repro.utils.procpool.pool_pays`).

``"process"``
    Each run executes in a worker process from the shared
    :func:`~repro.utils.procpool.shared_process_pool`, GIL-free.  Snapshot
    data is never pickled to workers: the worker opens the replay cache's
    store by path through read-only memory maps, and keeps the scenario it
    opened, so a hit on the store a worker ran last runs the pipeline and
    nothing else — as on the thread tier, but per worker, holding at most
    one store each (see :mod:`repro.serve.procrun`).  Iteration events
    stream back as they complete over the pipe of the worker's slot, which
    its pool generation created before the worker forked, so NDJSON
    latency-to-first-event stays flat.  One router thread per generation
    reads every worker pipe and puts each event on the inbox of the run
    whose id it carries; the stream ends on the worker's end-of-stream mark,
    not on a poll time-out, or when the run's future says its worker died.  A cancel
    writes the run's id into its slot's cancel word, which only that run
    obeys.

Who writes a stream: the event loop reads the request, answers a refusal and
writes an accepted run's reply head; then the run's runner thread writes every
event through one :class:`_Stream` — on the process tier it reads them off the
run's inbox, so a slow client blocks only its own runner, never the router.
The loop is woken once per run, at its end, and keeps the watchdog: when the
wait expires it ends the stream without waiting for the runner, which may be
blocked in a send to a client that stopped reading.  A helper thread writes
the ``timeout`` event once no send is in progress; the loop awaits it for at
most one more grace, then shuts the socket down, so the client reads EOF and
a blocked send fails at once.  A failed send cancels the run (``"disconnect"``).

Scenario data resolves through the :class:`~repro.serve.cache.ReplayCache`:
the first request for a config simulates CM1 and persists the snapshots,
every identical request after it replays them via read-only memory maps.
The cache entry stays pinned (eviction-exempt) for the duration of each run.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import os
import queue as queue_module
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from pathlib import Path
from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.scenarios import ScenarioConfig
from repro.serve import protocol
from repro.serve.cache import ReplayCache, scenario_cache_key
from repro.serve.procrun import (
    END_OF_STREAM,
    RunCancelled,
    RunRequest,
    execute_run,
    run_scenario_in_worker,
)
from repro.utils.procpool import (
    PROCESS_CPUS,
    WorkerChannels,
    default_process_workers,
    shared_pool_channels,
    warm_shared_pool,
)

__all__ = ["EXECUTION_TIERS", "RunRequest", "ServeApp", "serve_forever"]

#: What a process-tier run's future puts on its inbox when it completes.
_WORKER_DONE = object()
#: Silent on every healthy request; with no handler configured the stdlib's
#: last-resort handler writes ERROR records to stderr.
_LOG = logging.getLogger(__name__)

#: Valid values of ``ServeApp(execution=...)`` / ``serve --execution``.
EXECUTION_TIERS = ("thread", "process")

#: Seconds past a request deadline before the *streaming* side writes the
#: ``timeout`` event and closes the response.  The cooperative cancel normally
#: fires first (between iterations); this watchdog only catches a run stuck
#: inside one iteration.
STREAM_GRACE_SECONDS = 2.0

#: Poll interval of the process tier's cancellation / dead-worker poll and of
#: the shutdown drain.
_POLL_SECONDS = 0.05

#: Seconds a send waits on a full socket buffer (a client that stopped
#: reading; a run's few kilobytes never fill it) before the run counts it gone.
_SEND_SECONDS = 10.0


class _RunScope:
    """Cancellation scope of one run: deadline + cancel flag + shutdown.

    Shared between the streaming coroutine (which enforces the hard stream
    deadline), the runner thread (which checks cooperatively between
    iterations via :meth:`check`), and — in the process tier — the worker
    running it, through the cancel word of its slot.
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
        #: Process tier: ``(cancel words, slot, run id)`` of the worker.
        self._worker: Optional[Tuple[Sequence[int], int, int]] = None
        self._worker_lock = threading.Lock()

    def attach_worker(self, cancel: Sequence[int], slot: int, run_id: int) -> None:
        """Mirror cancels into the worker at ``slot``, from now on and at once
        if this run is already cancelled."""
        with self._worker_lock:
            self._worker = (cancel, slot, run_id)
            if self.cancelled() is not None:
                cancel[slot] = run_id

    def detach_worker(self) -> None:
        """Stop mirroring: the slot may be running a later run by now."""
        with self._worker_lock:
            self._worker = None

    def request_cancel(self, reason: str) -> None:
        if self._reason is None:
            self._reason = reason
        self._cancel.set()
        with self._worker_lock:
            if self._worker is not None:
                cancel, slot, run_id = self._worker
                cancel[slot] = run_id

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

    def stream_wait(self) -> Optional[float]:
        """Seconds the streaming side still waits for the runner (the
        watchdog), or ``None`` for a run without a deadline."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline + STREAM_GRACE_SECONDS - time.monotonic())


@contextlib.contextmanager
def _confined(cpus: Optional[AbstractSet[int]]) -> Iterator[None]:
    """Run the calling thread on ``cpus`` inside the block (``None``: leave
    it as it is), then give it back its own mask.  On Linux pid 0 is the
    calling thread, not the process."""
    if cpus is None:
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


class _Stream:
    """The one writer of a run's NDJSON reply, on whichever thread has an event.

    ``sock`` duplicates the connection's socket; its send timeout keeps the
    shared descriptor non-blocking for asyncio.  A line goes out whole, only
    from the thread that holds ``_lock``; nothing goes out after the stream
    is closed, and nothing at all once it has ended.  ``_fd`` orders the
    loop's shutdown and the close once the runner is done; it is never held
    across a send.  The event loop never waits for ``_lock``
    (:meth:`abandon`).
    """

    def __init__(self, sock: socket.socket, scope: _RunScope) -> None:
        sock.settimeout(_SEND_SECONDS)
        self._sock = sock
        self._scope = scope
        self._lock = threading.Lock()
        self._fd = threading.Lock()
        self._closed = False  # the runner writes no further line
        self._ended = False  # no line at all: terminal line out, send failed, shut

    def emit(self, event: Dict[str, object]) -> None:
        line = protocol.encode_event(event)
        with self._lock:
            if self._closed:
                return
            try:
                self._sock.sendall(line)
            except OSError:  # client gone: stop the run at its next boundary
                self._closed = self._ended = True
                self._scope.request_cancel("disconnect")
                return
            self._ended = event["type"] in ("summary", "error")

    async def abandon(self, last: Dict[str, object]) -> None:
        """End the stream from the event loop while its runner may still run.

        The runner writes no further line; one it is sending finishes.  Then
        a helper thread sends ``last``, whole, unless the run's own terminal
        line went out or a send failed.  The loop awaits it for at most
        :data:`STREAM_GRACE_SECONDS`, then shuts the socket down: the client
        reads EOF, and a send still blocked on a client that stopped reading
        fails at once (that client may see a cut line; one that keeps
        reading sees whole lines).
        """
        self._closed = True
        line = protocol.encode_event(last)
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                asyncio.to_thread(self._write_last, line), STREAM_GRACE_SECONDS
            )
        self.shutdown()

    def _write_last(self, line: bytes) -> None:
        with self._lock:
            if not self._ended:
                self._ended = True
                with contextlib.suppress(OSError):
                    self._sock.sendall(line)

    def shutdown(self) -> None:
        """Close the stream without a line: the client reads EOF, and a
        send blocked on it fails at once."""
        self._closed = self._ended = True
        with self._fd, contextlib.suppress(OSError):  # EBADF once released
            self._sock.shutdown(socket.SHUT_RDWR)

    def release(self) -> None:
        """Close the socket (the runner's done-callback: no send uses it)."""
        with self._lock, self._fd:
            self._closed = self._ended = True
            self._sock.close()


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
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
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
        #: The thread tier's one CPU, as a set: the last of the process's.
        #: ``None`` on the process tier, on a platform that cannot bind a
        #: thread and in a process with one CPU.
        self.cpus: Optional[FrozenSet[int]] = None
        if (
            execution == "thread"
            and hasattr(os, "sched_setaffinity")
            and len(PROCESS_CPUS) > 1
        ):
            self.cpus = frozenset({max(PROCESS_CPUS)})
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-serve",
            # Each runner thread binds itself (pid 0) as it starts.
            initializer=None if self.cpus is None else os.sched_setaffinity,
            initargs=(0, self.cpus),
        )
        self._shutdown = threading.Event()
        self._runs_lock = threading.Lock()
        self._submitted = 0
        self._active = 0
        self._completed = 0
        if execution == "process":
            # Fork the worker processes during single-threaded startup, not
            # from the first request thread.
            warm_shared_pool()

    def health(self) -> Dict[str, object]:
        """The ``GET /health`` document: cache counters and executor depth."""
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
            "status": "ok",
            "execution": self.execution,
            "cache": self.cache.stats(),
            "executor": {
                "execution": self.execution,
                "workers": workers,
                "active": active,
                "queued": queued,
                "completed": completed,
            },
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
        iterations, so partial NDJSON output stays well-formed; so does a
        stream the watchdog ends, for a client that keeps reading
        (:meth:`_Stream.abandon`).
        """
        if self.execution == "process":
            return self._execute_process_run(request, config, emit, scope)
        with contextlib.ExitStack() as held:
            # A miss simulates CM1 on every CPU, beside the bound hits.
            with _confined(None if self.cpus is None else PROCESS_CPUS):
                scenario, was_hit = held.enter_context(self.cache.acquire(config))
            emit(self._start_event(request, config, was_hit))
            scope.check()
            summary, _ = execute_run(request, scenario, emit, scope.check)
            summary["cache"] = self.cache.stats()
            return summary

    def _execute_process_run(
        self, request: RunRequest, config, emit, scope: _RunScope
    ) -> Dict[str, object]:
        """Dispatch one run to a worker process and write its stream here.

        The cache entry stays pinned (``acquire_store``) while the worker
        runs over the store at its path (opening it unless it holds it
        already).  The run is registered with its generation's router under
        a fresh run id, and the router puts each of its worker's messages on
        the run's inbox.  This thread passes every event on to ``emit`` until
        the worker's :data:`~repro.serve.procrun.END_OF_STREAM` mark — or the
        future's done-callback showing that the worker died before it.  A
        cancel reaches the worker through its slot's cancel word (the router
        attaches the slot to the scope); the worker aborts between
        iterations.  The poll only notices a cancellation.
        """
        with self.cache.acquire_store(config) as (store_dir, was_hit):
            pool, channels = shared_pool_channels()
            router = _router_for(channels)
            run_id, inbox = router.open(scope)
            try:
                deadline_wall = (
                    None
                    if scope.deadline is None
                    else time.time() + max(0.0, scope.deadline - time.monotonic())
                )
                try:
                    future = pool.submit(
                        run_scenario_in_worker,
                        request,
                        config,
                        str(store_dir),
                        run_id,
                        deadline_wall,
                    )
                    future.add_done_callback(lambda _: inbox.put(_WORKER_DONE))
                finally:  # after the dispatch, which its send (a GIL switch) would hold back
                    emit(self._start_event(request, config, was_hit))
                while True:
                    reason = scope.cancelled()
                    if reason is not None:
                        scope.request_cancel(reason)  # mirrors to the worker
                        future.cancel()  # no-op once running; frees a queued task
                        raise RunCancelled(reason)
                    try:
                        item = inbox.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        continue
                    if item is END_OF_STREAM:
                        break
                    if item is not _WORKER_DONE:
                        emit(item)
                    # A run that returned or raised sent its mark before its
                    # future completed; a broken pool means it never will.
                    elif isinstance(future.exception(), BrokenProcessPool):
                        break
                summary = future.result()
                summary["cache"] = self.cache.stats()
                return summary
            finally:
                router.close(run_id)
                scope.detach_worker()

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
        self, request: RunRequest, config: ScenarioConfig, sock: socket.socket
    ) -> None:
        """Run a request on the pool; its runner writes each NDJSON line to
        ``sock`` through a :class:`_Stream`, and the loop awaits the run's end.

        A run wedged past its deadline plus :data:`STREAM_GRACE_SECONDS` —
        inside one iteration, or in a send to a client that stopped reading
        — is abandoned (:meth:`_Stream.abandon`): the client gets the
        ``timeout`` event whole if it keeps reading, then EOF, and the
        stream returns without waiting for the runner.  The run stays
        counted as active until its thread ends, so :meth:`close` still
        drains it, and what it emits afterwards is dropped.  ``sock`` is
        this call's: it closes once the runner is done, never while a send
        may be using it.
        """
        scope = _RunScope(self._timeout_for(request), self._shutdown)
        stream = _Stream(sock, scope)

        def runner() -> None:
            with self._runs_lock:
                self._active += 1
            try:
                stream.emit(self._execute_run(request, config, stream.emit, scope))
            except RunCancelled as exc:
                stream.emit(self._cancel_event(exc.reason, scope))
            except Exception as exc:  # surfaced as an error event, and logged
                _LOG.exception(
                    "run failed with %s (scenario=%s seed=%s metric=%s tier=%s)",
                    type(exc).__name__,
                    request.scenario,
                    request.seed,
                    request.metric,
                    self.execution,
                )
                stream.emit({"type": "error", "reason": "exception", "error": str(exc)})
            finally:
                with self._runs_lock:
                    self._active -= 1
                    self._completed += 1

        with self._runs_lock:
            self._submitted += 1
        try:
            future = self.executor.submit(runner)
        except BaseException:
            stream.release()
            raise
        future.add_done_callback(lambda _: stream.release())
        ended = asyncio.wrap_future(future)
        try:
            done, _ = await asyncio.wait([ended], timeout=scope.stream_wait())
            if not done:
                scope.request_cancel("timeout")
                await stream.abandon(self._cancel_event("timeout", scope))
        except BaseException:
            # Handler cancelled: stop the run promptly.
            if scope.cancelled() is None:
                scope.request_cancel("disconnect")
            stream.shutdown()
            raise

    @staticmethod
    def _cancel_event(reason: str, scope: _RunScope) -> Dict[str, object]:
        """The terminal ``error`` event of a run cancelled for ``reason``."""
        bound = scope.timeout_s
        if reason == "timeout" and bound is not None:
            message = f"run exceeded its deadline of {bound:.3f}s"
        elif reason == "timeout":
            message = "run cancelled by deadline"
        elif reason == "shutdown":
            message = "server is shutting down"
        else:
            message = f"run cancelled ({reason})"
        return {"type": "error", "reason": reason, "error": message}

    # -- transport -----------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (the server always closes after it)."""
        try:
            with contextlib.suppress(asyncio.IncompleteReadError, ConnectionResetError):
                try:
                    head = await reader.readuntil(protocol.HEAD_END)
                    reply = protocol.parse_head(head)
                except asyncio.LimitOverrunError:
                    reply = protocol.HEAD_TOO_LARGE
                if isinstance(reply, protocol.Head):
                    body = await reader.readexactly(reply.length)
                    reply = protocol.route(reply, body, self.health)
                if isinstance(reply, protocol.RunPlan):
                    writer.write(protocol.STREAM_HEADER)
                    await writer.drain()
                    # The run's runner writes on a duplicate, which stream_run
                    # closes once the runner is done.
                    fd = os.dup(writer.get_extra_info("socket").fileno())
                    await self.stream_run(
                        reply.request, reply.config, socket.socket(fileno=fd)
                    )
                else:
                    writer.write(reply.encode())
                    await writer.drain()
        finally:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                writer.close()
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and return the listening server (``port=0`` picks a free one)."""
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=protocol.MAX_HEAD_BYTES
        )

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


class _EventRouter:
    """Hands one pool generation's worker messages to the runs awaiting them.

    Every message on a worker pipe is ``(run_id, item)``.  The router's
    thread waits on all of the generation's pipes at once and puts ``item``
    on the inbox of the run registered under ``run_id`` (its runner thread
    writes the events to the client) — dropping it when that run was given
    up on.  A run's first item is its worker's slot number: the router
    attaches the slot to the run's scope, so a cancel reaches the worker, or
    cancels the worker at once when nobody waits for the run any more.  The
    thread ends when every pipe reads EOF, that is once the generation's
    pool was shut down.
    """

    def __init__(self, channels: WorkerChannels) -> None:
        self.channels = channels
        self._runs: Dict[int, Tuple[queue_module.SimpleQueue, _RunScope]] = {}
        self._ids = itertools.count(1)  # 0 is a cancel word nobody wrote
        self._lock = threading.Lock()
        threading.Thread(
            target=self._route, name="repro-serve-router", daemon=True
        ).start()

    def open(self, scope: _RunScope) -> Tuple[int, queue_module.SimpleQueue]:
        """Register a run: its id, and the inbox its worker's items land on."""
        inbox: queue_module.SimpleQueue = queue_module.SimpleQueue()
        with self._lock:
            run_id = next(self._ids)
            self._runs[run_id] = (inbox, scope)
        return run_id, inbox

    def close(self, run_id: int) -> None:
        """Forget a run; nothing of its worker reaches it after this returns."""
        with self._lock:
            self._runs.pop(run_id, None)

    def _route(self) -> None:
        readers = list(self.channels.readers)
        while readers:
            for reader in wait(readers):
                try:
                    run_id, item = reader.recv()
                except EOFError:
                    readers.remove(reader)
                    reader.close()
                    continue
                with self._lock:  # so nothing follows the run's close
                    run = self._runs.get(run_id)
                    if run is None:
                        if isinstance(item, int):  # given up on: stop its worker
                            self.channels.cancel[item] = run_id
                        continue
                    inbox, scope = run
                    if isinstance(item, int):  # the worker announces its slot
                        scope.attach_worker(self.channels.cancel, item, run_id)
                    else:
                        inbox.put(item)


_ROUTER: Optional[_EventRouter] = None
_ROUTER_LOCK = threading.Lock()


def _router_for(channels: WorkerChannels) -> _EventRouter:
    """The router of ``channels``' generation, started on its first run.

    A pool shut down and created again is a new generation with new pipes,
    so it gets a new router; the old one ends on its pipes' EOF.
    """
    global _ROUTER
    with _ROUTER_LOCK:
        if _ROUTER is None or _ROUTER.channels is not channels:
            _ROUTER = _EventRouter(channels)
        return _ROUTER


async def serve_forever(app: ServeApp, host: str, port: int) -> None:
    """Serve ``app`` on ``host:port`` until cancelled, then close it, also
    when the bind fails (the ``python -m repro serve`` body).  On the thread
    tier the event loop's thread runs on the app's CPU meanwhile, beside its
    runners, and gets its own mask back on return."""
    with _confined(app.cpus):
        try:
            server = await app.start(host, port)
            bound = server.sockets[0].getsockname()
            print(f"repro serve listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            sys.stderr.flush()
            async with server:
                await server.serve_forever()
        finally:
            app.close()

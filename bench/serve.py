"""The two serving workloads: ``python -m repro serve`` driven over HTTP.

The server runs as a subprocess on a free port with a fresh cache directory
inside ``bench/out``; two closed-loop connections (each sends its next request
only after the previous reply ended) post ``/run`` requests for the 16-rank
``decaying_storm`` scenario (12 iteration events per reply):

``serve_hit_thread``
    The default thread tier, every timed request a cache hit: cache acquire,
    mmap open, scenario build, decomposition, thread dispatch, NDJSON and the
    GIL dominate; CM1 and store writes do nothing.
``serve_mixed_process``
    The process tier with a 4-entry cache; request *i* of connection *c* is a
    miss (a seed never seen before) iff ``(i + 2c) % 4 == 3``.  CM1, raw store
    writes, LRU eviction and deletes run beside replaying hits, and every
    request crosses the fork pool and the manager queue.

Every reply is checked: HTTP 200, ``start`` first with the expected cache
verdict, the iteration events in order, ``summary`` last, and the streamed
rows and ``run`` block equal to what the library returns in-process for the
same payload.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import adapter
import probes
from catalog import OUT_DIR
from common import (
    SETUP_REPEATS,
    SMOKE_OPS,
    Budget,
    Outcome,
    peak_rss_mb,
    process_group_members,
    shm_entries,
)
from spans import Tracer, median, percentile

CLIENTS = 2
WARM_HITS = 4
SHUTDOWN_GRACE = 5.0
#: Misses whose streamed result is recomputed in-process and compared in full;
#: the rest are checked for structure (each costs a whole simulation to verify).
FULLY_VERIFIED_MISSES = 2
SOLO_REQUESTS = 15
HEALTH_REQUESTS = 10
REPLICAS = 5

WORKLOADS = {
    "serve_hit_thread": {"tier": "thread", "extra": (), "mixed": False},
    "serve_mixed_process": {
        "tier": "process",
        "extra": ("--cache-max-entries", "4"),
        "mixed": True,
    },
}
#: The pipeline every request runs (what the in-process probes are given).
PIPELINE_SPEC = {"metric": "VAR", "redistribution": "round_robin"}


def hit_payload(seed: int, smoke: bool) -> dict:
    return {
        "scenario": "tiny" if smoke else "decaying_storm",
        "percent": 50,
        "redistribution": PIPELINE_SPEC["redistribution"],
        "seed": seed,
    }


def miss_seed(seed: int, client: int, index: int) -> int:
    """A seed no other request of the run uses (and never the hit seed)."""
    return 1_000_003 * (seed + 1) + 10_007 * (client + 1) + index


# -- the server process -----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess; :meth:`stop` always reaps it."""

    def __init__(self, spec: dict, workdir: Path, tag: str) -> None:
        tiers = adapter.execution_tiers
        self.tier = spec["tier"] if spec["tier"] in tiers or not tiers else tiers[0]
        self.cache_dir = workdir / f"cache_{tag}"
        self.log_path = workdir / f"server_{tag}.log"
        self.command, self.env = adapter.serve_command(
            self.tier, CLIENTS, self.cache_dir, SHUTDOWN_GRACE, spec["extra"]
        )
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.problems: List[str] = []
        self._shm_before: set = set()

    def start(self, timeout: float = 60.0) -> None:
        self._shm_before = shm_entries()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            # Its own session: every child it forks shares one process group,
            # which is how stragglers are found (and killed) afterwards.  SIGINT
            # is reset because a harness started in the background inherits it
            # ignored, and would pass that on to a server it stops with SIGINT.
            self.process = subprocess.Popen(
                self.command, env=self.env, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True,
                preexec_fn=_default_sigint,
            )
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        log_text = self.log_path.read_text(errors="replace")
        self.stop()
        raise RuntimeError(f"repro serve did not start listening:\n{log_text}")

    def members(self) -> List[int]:
        """PIDs of the server and every process it forked."""
        return process_group_members(self.process.pid)

    def stop(self) -> None:
        """SIGINT, wait the shutdown grace, kill what is left, clean up."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=SHUTDOWN_GRACE + 5.0)
                except subprocess.TimeoutExpired:
                    self.problems.append("server still running after SIGINT + grace")
            # Pool workers and the manager exit on their own once the server is gone.
            settle = time.perf_counter() + 2.0
            while process_group_members(process.pid) and time.perf_counter() < settle:
                time.sleep(0.02)
            left = process_group_members(process.pid)
            if left:
                self.problems.append(f"processes left behind after shutdown: {left}")
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        leaked = shm_entries() - self._shm_before
        if leaked:
            self.problems.append(f"new /dev/shm entries after shutdown: {sorted(leaked)}")


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


# -- one request ---------------------------------------------------------------------


@dataclass
class Reply:
    """One streamed ``POST /run`` reply with client-side arrival stamps."""

    payload: dict
    is_miss: bool
    status: int
    sent: float
    events: List[dict] = field(default_factory=list)
    stamps: List[float] = field(default_factory=list)
    error: Optional[str] = None

    def to(self, kind: str) -> Optional[float]:
        """Seconds from sending the request to its first ``kind`` event, if any."""
        for event, stamp in zip(self.events, self.stamps):
            if event.get("type") == kind:
                return stamp - self.sent
        return None

    def iteration_gaps(self) -> List[float]:
        stamps = [s for e, s in zip(self.events, self.stamps) if e.get("type") == "iteration"]
        return [b - a for a, b in zip(stamps, stamps[1:])]


def post_run(port: int, payload: dict, is_miss: bool = False) -> Reply:
    body = json.dumps(payload)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    reply = Reply(payload=payload, is_miss=is_miss, status=0, sent=time.perf_counter())
    try:
        connection.request("POST", "/run", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        reply.status = response.status
        for line in response:
            reply.stamps.append(time.perf_counter())
            reply.events.append(json.loads(line))
    except (OSError, ValueError, http.client.HTTPException) as exc:
        reply.error = f"{type(exc).__name__}: {exc}"
    finally:
        connection.close()
    return reply


def get_health(port: int) -> Tuple[float, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    start = time.perf_counter()
    try:
        connection.request("GET", "/health")
        body = json.loads(connection.getresponse().read())
    finally:
        connection.close()
    return time.perf_counter() - start, body


# -- what the library says the answer is ------------------------------------------


@dataclass
class Expected:
    rows: List[dict]
    run: dict
    results: list


def _through_json(value):
    return json.loads(json.dumps(value))


def server_pipeline(scenario):
    """The pipeline the server builds for the benchmark's payloads.

    Its default is the pipelined engine, and its summary echoes the flag.
    """
    return adapter.build_pipeline(
        scenario, pipelined=True, **PIPELINE_SPEC
    ) or adapter.build_pipeline(scenario, **PIPELINE_SPEC)


def library_result(payload: dict, tracer: Optional[Tracer] = None):
    """Run ``payload`` through the library in-process: the reference answer."""
    config = adapter.scenario_config(payload["scenario"], seed=payload["seed"])
    scenario, feed = probes.build_library_scenario(config, tracer)
    run = server_pipeline(scenario).run(feed, percent_override=float(payload["percent"]))
    expected = Expected(
        rows=[_through_json(adapter.iteration_row(r)) for r in run.iterations],
        run=_through_json(run.summary()),
        results=list(run.iterations),
    )
    return expected, scenario, feed


def reply_problem(reply: Reply, verdict: str, iterations: int, expected: Optional[Expected]) -> Optional[str]:
    """``None`` when the reply is correct, else one line saying what is wrong."""
    if reply.error is not None:
        return reply.error
    if reply.status != 200:
        return f"HTTP {reply.status}"
    kinds = [event.get("type") for event in reply.events]
    if kinds != ["start"] + ["iteration"] * iterations + ["summary"]:
        errors = [event for event in reply.events if event.get("type") == "error"]
        return f"event sequence {kinds} {errors}"
    start, summary = reply.events[0], reply.events[-1]
    if start.get("cache") != verdict:
        return f"cache verdict {start.get('cache')!r}, expected {verdict!r}"
    if start.get("iterations") != iterations:
        return f"start announces {start.get('iterations')} iterations, expected {iterations}"
    rows = [{k: v for k, v in event.items() if k != "type"} for event in reply.events[1:-1]]
    if [row.get("iteration") for row in rows] != list(range(iterations)):
        return "iteration events out of order"
    if summary.get("scenario", {}).get("seed") != reply.payload["seed"]:
        return f"summary echoes seed {summary.get('scenario', {}).get('seed')}"
    if expected is None:
        if summary.get("run", {}).get("iterations") != iterations:
            return "summary run block has the wrong iteration count"
        return None
    if rows != expected.rows:
        return "iteration rows differ from the in-process library result"
    if summary.get("run") != expected.run:
        return "summary run block differs from the in-process library result"
    return None


# -- load generation -----------------------------------------------------------------


def closed_loop(port: int, plan: Callable[[int, int], Tuple[dict, bool]], seconds: float,
                smoke: bool, first_index: int = 0):
    """``CLIENTS`` closed-loop connections until the budget is spent.

    ``first_index`` numbers a later phase's requests after an earlier one's,
    so that its misses use seeds the server has not seen.
    """
    replies: List[List[Reply]] = [[] for _ in range(CLIENTS)]
    budget = Budget(seconds, smoke)

    def client(number: int) -> None:
        mine = replies[number]
        while not budget.spent(len(mine)):
            payload, is_miss = plan(number, first_index + len(mine))
            mine.append(post_run(port, payload, is_miss))

    threads = [threading.Thread(target=client, args=(c,), name=f"bench-client-{c}") for c in range(CLIENTS)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    return [r for mine in replies for r in mine], wall


def set_up(spec: dict, workdir: Path, tag: str, hit: dict) -> Tuple[Server, List[Reply], float]:
    """Spawn → listening, one populating request, ``WARM_HITS`` hits; timed."""
    start = time.perf_counter()
    server = Server(spec, workdir, tag)
    server.start()
    try:
        replies = [post_run(server.port, hit) for _ in range(1 + WARM_HITS)]
    except BaseException:
        server.stop()
        raise
    return server, replies, time.perf_counter() - start


# -- the workload --------------------------------------------------------------------


@dataclass
class Observed:
    """Everything the harness saw of the server during one run."""

    setups: List[float] = field(default_factory=list)
    #: (reply, expected cache verdict) of the set-up requests.
    setup_replies: List[Tuple[Reply, str]] = field(default_factory=list)
    plain: List[Reply] = field(default_factory=list)
    timed: List[Reply] = field(default_factory=list)
    solo: List[Reply] = field(default_factory=list)
    wall: float = 0.0
    rss_mb: float = 0.0
    health_seconds: List[float] = field(default_factory=list)
    health: dict = field(default_factory=dict)


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
        workdir: Path, fault: Optional[str] = None) -> Outcome:
    spec = WORKLOADS[name]
    outcome = Outcome()
    tracer = Tracer() if traced else None
    hit = hit_payload(seed, smoke)

    def plan(client: int, index: int) -> Tuple[dict, bool]:
        if spec["mixed"] and (index + 2 * client) % 4 == 3:
            return dict(hit, seed=miss_seed(seed, client, index)), True
        return hit, False

    seen = _drive_server(outcome, name, spec, plan, hit, seconds, traced, smoke, workdir)

    # -- correctness ---------------------------------------------------------------
    expected, scenario, feed = library_result(hit, tracer)
    iterations = len(expected.rows)
    checked = seen.setup_replies + [
        (reply, "miss" if reply.is_miss else "hit")
        for reply in seen.plain + seen.timed + seen.solo
    ]
    fully_verified = 0
    for reply, verdict in checked:
        reference: Optional[Expected] = expected
        if reply.payload != hit:
            reference = None
            if fully_verified < FULLY_VERIFIED_MISSES:
                fully_verified += 1
                reference = library_result(reply.payload)[0]
        if fault == "cache_verdict" and verdict == "hit":
            verdict = "miss"
        problem = reply_problem(reply, verdict, iterations, reference)
        outcome.check(problem is None, f"{name}: request {reply.payload} — {problem}")

    hits = [r for r in seen.timed if not r.is_miss and r.to("summary") is not None]
    if not traced:
        outcome.metrics.update(
            {
                "setup_s": min(seen.setups),
                "op_ms_p50": median(r.to("summary") for r in hits) * 1e3,
                "first_result_ms_p50": median(r.to("iteration") for r in hits) * 1e3,
                "ops_per_s": len(seen.timed) / seen.wall,
                "peak_rss_mb": seen.rss_mb,
            }
        )
        return outcome

    _server_layer_metrics(outcome, seen, hits, iterations * scenario.nblocks)
    for reply in seen.timed:
        _record_reply_spans(tracer, reply)
    _replay_hit_in_process(outcome, tracer, hit, workdir)
    probes.controller_metrics(outcome, None, expected.results)
    probes.count_metrics(outcome, expected.results[: probes.VERIFY])
    probes.setup_span_metrics(outcome, tracer, scenario)
    probes.run_layer_probes(outcome, scenario, feed, PIPELINE_SPEC, seed, smoke, workdir)
    tracer.write_chrome_trace(OUT_DIR / f"trace_{name}.json")
    return outcome


def _drive_server(outcome: Outcome, name: str, spec: dict, plan, hit: dict, seconds: float,
                  traced: bool, smoke: bool, workdir: Path) -> Observed:
    """Set the server up (timed), load it, read its counters, always stop it."""
    seen = Observed()
    server: Optional[Server] = None

    def stop() -> None:
        server.stop()
        outcome.check(not server.problems, f"{name}: " + "; ".join(server.problems))

    outcome.reference.start()
    try:
        for repeat in range(1 if (traced or smoke) else SETUP_REPEATS):
            if server is not None:
                stop()
            server, replies, seconds_taken = set_up(spec, workdir, str(repeat), hit)
            seen.setups.append(seconds_taken)
            seen.setup_replies.append((replies[0], "miss"))
            seen.setup_replies.extend((reply, "hit") for reply in replies[1:])
        if traced:
            seen.plain, _ = closed_loop(server.port, plan, seconds / 4.0, smoke)
            seen.timed, seen.wall = closed_loop(
                server.port, plan, seconds / 4.0, smoke, first_index=1000
            )
            seen.solo = [
                post_run(server.port, hit) for _ in range(SMOKE_OPS if smoke else SOLO_REQUESTS)
            ]
            seen.health_seconds = [get_health(server.port)[0] for _ in range(HEALTH_REQUESTS)]
        else:
            seen.timed, seen.wall = closed_loop(server.port, plan, seconds, smoke)
        seen.rss_mb = peak_rss_mb(server.members())
        _, seen.health = get_health(server.port)
    finally:
        outcome.reference.stop()
        if server is not None:
            stop()
    return seen


def _server_layer_metrics(outcome: Outcome, seen: Observed, hits: List[Reply], blocks_per_request: int) -> None:
    """Layer metrics read from the replies and from ``GET /health``."""
    misses = [r for r in seen.timed if r.is_miss and r.to("summary") is not None]
    hit_p50 = median(r.to("summary") for r in hits)
    solo_p50 = median(r.to("summary") for r in seen.solo if r.to("summary") is not None)
    plain_p50 = median(
        r.to("summary") for r in seen.plain if not r.is_miss and r.to("summary") is not None
    )
    cache, executor = seen.health["cache"], seen.health["executor"]
    outcome.metrics.update(
        {
            "serve.http.health_ms": median(seen.health_seconds) * 1e3,
            "serve.stream.inter_event_ms_p50": median(g for r in hits for g in r.iteration_gaps()) * 1e3,
            "serve.concurrency_penalty": hit_p50 / solo_p50 if solo_p50 else 0.0,
            "serve.cache.hits": float(cache["hits"]),
            "serve.cache.misses": float(cache["misses"]),
            "serve.cache.evictions": float(cache["evictions"]),
            "serve.cache.bytes": float(cache["bytes"]),
            "serve.executor.completed": float(executor["completed"]),
            "driver.hit_first_event_ms_p50": median(r.to("start") for r in hits) * 1e3,
            "driver.hit_total_ms_solo_p50": solo_p50 * 1e3,
            "driver.miss_first_iteration_ms_p50": median(r.to("iteration") for r in misses) * 1e3,
            "driver.miss_total_ms_p50": median(r.to("summary") for r in misses) * 1e3,
            "driver.op_ms_p90": percentile([r.to("summary") for r in hits], 90) * 1e3,
            "driver.blocks_per_s": len(seen.timed) * blocks_per_request / seen.wall,
            "driver.samples": float(len(seen.timed)),
            "driver.setup_traced_s": seen.setups[0],
            "driver.trace_overhead_pct": (hit_p50 / plain_p50 - 1.0) * 100.0 if plain_p50 else 0.0,
        }
    )


def _record_reply_spans(tracer: Tracer, reply: Reply) -> None:
    """Client-side view of one reply: where its wall went between events."""
    if not reply.stamps:
        return
    op = f"{'miss' if reply.is_miss else 'hit'}:{reply.payload['seed']}"
    root = tracer.add("serve.request", reply.sent, reply.stamps[-1], None, op)
    marks = [("serve.stream.to_start", reply.sent, reply.stamps[0])]
    iteration_stamps = [s for e, s in zip(reply.events, reply.stamps) if e.get("type") == "iteration"]
    if iteration_stamps:
        marks.append(("serve.stream.to_first_iteration", reply.stamps[0], iteration_stamps[0]))
        marks.append(("serve.stream.iterations", iteration_stamps[0], iteration_stamps[-1]))
        marks.append(("serve.stream.to_summary", iteration_stamps[-1], reply.stamps[-1]))
    for name, start, end in marks:
        tracer.add(name, start, end, root, op)


def _replay_hit_in_process(outcome: Outcome, tracer: Tracer, hit: dict, workdir: Path) -> None:
    """What a thread-tier hit does, called layer by layer, with spans.

    The server is another process, so its inside cannot be traced from here;
    the same public calls it makes for a hit (cache acquire over a populated
    store, pipeline build, decomposition over the memory maps, the run with
    one NDJSON encode per iteration) are made in-process instead, and their
    spans must explain the operation's wall.
    """
    metrics = outcome.metrics
    names = ("core.engine.overhead_ms", "driver.trace_coverage")
    if adapter.ReplayCache is None:
        outcome.absent.extend(names)
        outcome.absent.extend(f"core.{step}.busy_ms" for step in probes.STEPS)
        return
    config = adapter.scenario_config(hit["scenario"], seed=hit["seed"])
    cache = adapter.ReplayCache(workdir / "replica_cache")
    with cache.acquire(config):
        pass  # populate
    for replica in range(REPLICAS):
        with tracer.operation("serve.hit_inprocess", f"replica:{replica}"), ExitStack() as stack:
            with tracer.span("serve.cache.acquire"):
                scenario, _ = stack.enter_context(cache.acquire(config))
            with tracer.span("core.build_pipeline"):
                pipeline = server_pipeline(scenario)
            probes.trace_steps(pipeline, tracer)
            with tracer.span("grid.decompose_mmap"):
                blocks = scenario.iteration_blocks()
            encode = tracer.wrap(
                "serve.ndjson.encode", lambda r: json.dumps(adapter.iteration_row(r))
            )
            with tracer.span("core.engine.run"):
                run = pipeline.run(blocks, percent_override=float(hit["percent"]), on_iteration=encode)
            with tracer.span("serve.summary"):
                json.dumps(run.summary())
    metrics.update(probes.step_busy_ms(tracer, REPLICAS))
    metrics["core.engine.overhead_ms"] = (
        tracer.self_times().get("core.engine.run", 0.0) / REPLICAS * 1e3
    )
    metrics["driver.trace_coverage"] = tracer.coverage("serve.hit_inprocess")

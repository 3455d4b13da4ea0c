"""The two in situ workloads: the library called in-process, iteration by iteration.

Both run the paper's 64-core configuration (``blue_waters_64``: 64 virtual
ranks, 2 048 blocks) and feed its snapshots to
``InSituPipeline.process_iteration`` ping-pong (0…n…0), one call per
operation, pinned to one CPU:

``insitu_adaptive``
    ``VAR`` scoring, ``round_robin`` redistribution, Algorithm 1 steering the
    reduction percentage toward the paper's 25 s budget — the Figure-11
    configuration, and the only workload where the controller decides.
``insitu_fixed_coder``
    ``FPZIP`` scoring, no redistribution, a two-rung quality ladder at a fixed
    50 % — the same ``core`` used differently, so that a redistribution change
    shows no movement here and a scoring or ladder change shows here first.
"""

from __future__ import annotations

import gc
import math
import os
import time
from pathlib import Path
from typing import List, Optional

import adapter
import probes
from catalog import OUT_DIR
from common import SETUP_REPEATS, Budget, Outcome, peak_rss_mb, pin_to_one_cpu
from spans import Tracer, median, percentile

SCENARIO = "blue_waters_64"
SNAPSHOTS = 4
#: Untimed iterations before the clock starts.  The first ``probes.VERIFY`` of
#: them are replayed on the oracle backend afterwards.
WARMUP = 12
#: Serving-only layer metrics: these workloads start no server.
NOT_APPLICABLE = (
    "serve.http.health_ms", "serve.stream.inter_event_ms_p50", "serve.concurrency_penalty",
    "serve.cache.hits", "serve.cache.misses", "serve.cache.evictions", "serve.cache.bytes",
    "serve.executor.completed", "driver.hit_first_event_ms_p50",
    "driver.hit_total_ms_solo_p50", "driver.miss_first_iteration_ms_p50",
    "driver.miss_total_ms_p50",
)

WORKLOADS = {
    "insitu_adaptive": {
        "metric": "VAR",
        "redistribution": "round_robin",
        "target": probes.TARGET_SECONDS,
        "percent": None,
    },
    "insitu_fixed_coder": {
        "metric": "FPZIP",
        "redistribution": "none",
        "target": None,
        "percent": 50.0,
        "ladder": ((2, 0.5), (1, 0.5)),
    },
}

COMPARED = ("percent_reduced", "nreduced", "moved_bytes", "triangles_per_rank", "modelled_steps")


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool, workdir: Path) -> Outcome:
    spec = WORKLOADS[name]
    outcome = Outcome()
    reference = outcome.reference
    tracer = Tracer() if traced else None
    if not smoke:  # the smoke suite shares its process with the serving workloads
        pin_to_one_cpu()

    # -- set-up: scenario build + every snapshot + decomposition ---------------
    scenario = feed = None
    setups: List[float] = []
    for _ in range(1 if (traced or smoke) else SETUP_REPEATS):
        scenario = feed = None  # the previous build must not stay resident
        gc.collect()
        reference.sample(3)
        start = time.perf_counter()
        config = adapter.scenario_config(
            "tiny" if smoke else SCENARIO, nsnapshots=SNAPSHOTS, seed=seed
        )
        scenario, feed = probes.build_library_scenario(config, tracer)
        setups.append(time.perf_counter() - start)
        reference.sample(3)
    order = list(range(len(feed))) + list(range(len(feed) - 2, 0, -1))
    nblocks = scenario.nblocks

    pipeline = _build(scenario, spec)
    results = []  # the first iterations only: what verification and the controller window need
    done = 0

    def iterate():
        nonlocal done
        result, _ = pipeline.process_iteration(
            feed[order[done % len(order)]], percent_override=spec["percent"]
        )
        if done < probes.ERROR_WINDOW[1]:
            results.append(result)
        done += 1
        return result

    for _ in range(WARMUP):
        iterate()
    gc.collect()
    gc.freeze()

    # -- timed loop(s) -----------------------------------------------------------
    def timed_loop(budget_seconds: float, record: Optional[Tracer]):
        walls: List[float] = []
        budget = Budget(budget_seconds, smoke)
        begin = time.perf_counter()
        on_reference = 0.0
        while not budget.spent(len(walls)):
            index = done
            start = time.perf_counter()
            if record is None:
                result = iterate()
            else:
                with record.operation("insitu.iteration", index):
                    result = iterate()
            walls.append(time.perf_counter() - start)
            sane = (
                result.nblocks == nblocks
                and 0.0 <= result.percent_reduced <= 100.0
                and math.isfinite(result.modelled_total)
                and result.modelled_total > 0.0
            )
            outcome.check(sane, f"{name}: iteration {index} returned an implausible result")
            on_reference += reference.sample()
        return walls, time.perf_counter() - begin - on_reference

    if not traced:
        walls, loop_wall = timed_loop(seconds, None)
        op_ms = median(walls) * 1e3
        outcome.metrics.update(
            {
                "setup_s": min(setups),
                "op_ms_p50": op_ms,
                # An iteration hands back its one result when it ends.
                "first_result_ms_p50": op_ms,
                "ops_per_s": len(walls) / loop_wall,
                "peak_rss_mb": peak_rss_mb([os.getpid()]),
            }
        )
    else:
        plain, _ = timed_loop(seconds / 2.0, None)
        probes.trace_steps(pipeline, tracer)
        walls, loop_wall = timed_loop(seconds / 2.0, tracer)
        _layer_metrics(outcome, tracer, plain, walls, loop_wall, nblocks, setups)
    gc.unfreeze()

    _verify_against_oracle(outcome, name, scenario, feed, order, spec, results[: probes.VERIFY])
    if traced:
        probes.controller_metrics(outcome, spec["target"], results)
        probes.count_metrics(outcome, results[: probes.VERIFY])
        probes.run_layer_probes(outcome, scenario, feed, spec, seed, smoke, workdir)
        probes.setup_span_metrics(outcome, tracer, scenario)
        outcome.metrics.update(dict.fromkeys(NOT_APPLICABLE, 0.0))
        tracer.write_chrome_trace(OUT_DIR / f"trace_{name}.json")
    return outcome


def _build(scenario, spec: dict, engine: Optional[str] = None):
    pipeline = adapter.build_pipeline(
        scenario, target=spec["target"], engine=engine, **probes.pipeline_options(spec)
    )
    if pipeline is None and engine is None:
        raise SystemExit("bench: this workload's pipeline options no longer exist")
    return pipeline


def _layer_metrics(outcome, tracer, plain, walls, loop_wall, nblocks, setups) -> None:
    metrics = outcome.metrics
    operations = len(walls)
    metrics.update(probes.step_busy_ms(tracer, operations))
    metrics["core.engine.overhead_ms"] = (
        tracer.self_times().get("insitu.iteration", 0.0) / operations * 1e3
    )
    metrics["driver.op_ms_p90"] = percentile(walls, 90) * 1e3
    metrics["driver.blocks_per_s"] = operations * nblocks / loop_wall
    metrics["driver.samples"] = float(operations)
    metrics["driver.setup_traced_s"] = setups[0]
    metrics["driver.trace_coverage"] = tracer.coverage("insitu.iteration")
    metrics["driver.trace_overhead_pct"] = (median(walls) / median(plain) - 1.0) * 100.0


def _verify_against_oracle(outcome, name, scenario, feed, order, spec, kept) -> None:
    """Replay the first iterations on the ``serial`` oracle; all must match bitwise."""
    oracle = _build(scenario, spec, engine="serial")
    if oracle is None:  # no oracle backend left: fall back to a repeatability check
        oracle = _build(scenario, spec)
    for index, measured in enumerate(kept):
        expected, _ = oracle.process_iteration(
            feed[order[index % len(order)]], percent_override=spec["percent"]
        )
        differing = [
            field for field in COMPARED if getattr(measured, field) != getattr(expected, field)
        ]
        outcome.check(
            not differing,
            f"{name}: iteration {index} differs from the serial oracle in {differing}",
        )

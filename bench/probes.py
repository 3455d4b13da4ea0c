"""Per-layer probes: public calls into one layer at a time, timed from outside.

Every probe runs on the *workload's own* scenario (its grid, its rank count,
its blocks), so the number printed for a layer on a workload is what that
layer costs on that workload's data.  A probe whose public target no longer
exists reports its metric names through ``outcome.absent`` and moves on.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import adapter
from common import Outcome, shm_entries
from spans import Tracer, mean, median, median_ms, timed

STEPS = ("scoring", "sorting", "reduction", "redistribution", "rendering")
#: The paper's time budget per iteration on the 64-core configuration.
TARGET_SECONDS = 25.0
#: Iterations whose exact counts are reported (and, in situ, replayed on the oracle).
VERIFY = 8
#: Iterations over which the controller's constraint error is averaged; a
#: fixed window, so the figure does not depend on how many iterations fit.
ERROR_WINDOW = (20, 60)


def pipeline_options(spec: dict) -> dict:
    """``adapter.build_pipeline`` keywords of a workload's pipeline."""
    return {
        "metric": spec["metric"],
        "redistribution": spec["redistribution"],
        "quality_ladder": spec.get("ladder"),
    }


def build_library_scenario(config, tracer: Optional[Tracer] = None):
    """Build the scenario and every snapshot's per-rank blocks, as a user would.

    With a tracer, the scenario constructor, each CM1 snapshot and each
    decomposition are recorded as spans (instance-level wrappers on the live
    dataset; ``src/`` is not touched).
    """
    if tracer is None:
        scenario = adapter.ExperimentScenario(config)
        return scenario, scenario.iteration_blocks()
    with tracer.operation("setup", "setup"):
        with tracer.span("experiments.scenario_build_live"):
            scenario = adapter.ExperimentScenario(config)
        dataset = scenario.dataset
        dataset.snapshot = tracer.wrap("cm1.snapshot", dataset.snapshot)
        dataset.per_rank_blocks = tracer.wrap("grid.decompose", dataset.per_rank_blocks)
        try:
            feed = scenario.iteration_blocks()
        finally:
            del dataset.snapshot, dataset.per_rank_blocks
    return scenario, feed


def trace_steps(pipeline, tracer: Tracer) -> None:
    """Record every ``step.execute`` (and the controller) of ``pipeline`` as spans."""
    for step in adapter.pipeline_steps(pipeline):
        step.execute = tracer.wrap(f"core.{step.name}", step.execute)
    controller = pipeline.controller
    controller.observe = tracer.wrap("core.adaptation", controller.observe)


def step_busy_ms(tracer: Tracer, operations: int, suffix: str = "busy_ms") -> Dict[str, float]:
    """Mean milliseconds per operation inside each step's spans."""
    return {
        f"core.{step}.{suffix}": sum(tracer.durations(f"core.{step}")) / max(1, operations) * 1e3
        for step in STEPS
    }


def largest_shape_group(blocks: Sequence) -> List:
    groups: Dict[tuple, List] = {}
    for block in blocks:
        groups.setdefault((block.data.shape, block.data.dtype.str), []).append(block)
    return max(groups.values(), key=len)


def run_layer_probes(
    outcome: Outcome,
    scenario,
    feed,
    spec: dict,
    seed: int,
    smoke: bool,
    workdir: Path,
) -> None:
    """Run every isolated probe and store its metrics in ``outcome``."""
    metrics = outcome.metrics
    config = scenario.config
    blocks = [b for rank in feed[0] for b in rank]
    group = largest_shape_group(blocks)

    def absent(*names: str) -> None:
        outcome.absent.extend(names)

    # grid: stacking and the two reduction kernels ---------------------------
    stacked = np.stack([b.data for b in group])
    if adapter.BlockBatch is None:
        absent("grid.batch_stack_ms")
    else:
        metrics["grid.batch_stack_ms"] = median_ms(
            lambda: adapter.BlockBatch.from_blocks(group), 5
        )
    if adapter.reduce_to_level_batch is None:
        absent("grid.reduce_level1_ms")
    else:
        metrics["grid.reduce_level1_ms"] = median_ms(
            lambda: adapter.reduce_to_level_batch(stacked, 1), 9
        )
    if adapter.reduce_to_corners_batch is None:
        absent("grid.reduce_level2_ms")
    else:
        metrics["grid.reduce_level2_ms"] = median_ms(
            lambda: adapter.reduce_to_corners_batch(stacked), 9
        )

    # metrics + compress: scoring kernels on one snapshot's stacked blocks ----
    metrics["metrics.VAR.score_batch_ms"] = median_ms(
        lambda: adapter.create_metric("VAR").score_batch(stacked), 5
    )
    fpzip_ms = median_ms(lambda: adapter.create_metric("FPZIP").score_batch(stacked), 3)
    metrics["metrics.FPZIP.score_batch_ms"] = fpzip_ms
    metrics["metrics.FPZIP.mb_per_s"] = stacked.nbytes / 1e6 / (fpzip_ms / 1e3)
    some = [b.data for b in group[:64]]
    metrics["metrics.PYVAR.score_blocks_ms"] = median_ms(
        lambda: adapter.create_metric("PYVAR").score_blocks(some), 3
    )

    # grid.shm: one segment's life ---------------------------------------------
    shm_names = ("grid.shm.create_ms", "grid.shm.attach_ms", "grid.shm.unlink_ms")
    if adapter.SharedBlockBatch is None:
        absent(*shm_names, "grid.shm.leaked_segments")
    else:
        before = shm_entries()
        samples: Dict[str, List[float]] = {name: [] for name in shm_names}
        for _ in range(5):
            start = time.perf_counter()
            shared = adapter.SharedBlockBatch.create(stacked)
            created = time.perf_counter()
            view = adapter.SharedBlockBatch.attach(shared.handle())
            attached = time.perf_counter()
            view.close()
            closing = time.perf_counter()
            shared.dispose()
            samples["grid.shm.create_ms"].append(created - start)
            samples["grid.shm.attach_ms"].append(attached - created)
            samples["grid.shm.unlink_ms"].append(time.perf_counter() - closing)
        for name, values in samples.items():
            metrics[name] = median(values) * 1e3
        leaked = len(shm_entries() - before) + len(adapter.live_owned_segments())
        metrics["grid.shm.leaked_segments"] = float(leaked)
        outcome.check(leaked == 0, f"grid.shm probe leaked {leaked} segment(s)")

    # viz: batched cell counting and one rank's real marching cubes -----------
    if adapter.IsosurfaceScript is None:
        absent("viz.count_cells_batch_ms", "viz.mesh_render_ms")
    else:
        counter = adapter.IsosurfaceScript(level=config.isosurface_level, mode="count")
        metrics["viz.count_cells_batch_ms"] = median_ms(
            lambda: counter.count_blocks_batched(blocks), 5
        )
        per_rank = [int(counter.count_blocks_batched(rank).sum()) for rank in feed[0]]
        busiest = feed[0][int(np.argmax(per_rank))]
        mesher = adapter.IsosurfaceScript(level=config.isosurface_level, mode="mesh")
        metrics["viz.mesh_render_ms"] = median_ms(lambda: mesher.process(busiest, 0), 3)

    # simmpi: pricing one personalised all-to-all -----------------------------
    nranks = scenario.nranks
    matrix = np.full((nranks, nranks), 4096, dtype=np.int64)
    metrics["simmpi.alltoallv_cost_ms"] = median_ms(
        lambda: scenario.platform.network.alltoallv(matrix, nranks), 20
    )

    # core.adaptation: one controller decision --------------------------------
    controller = adapter.AdaptationController(
        adapter.AdaptationConfig(enabled=True, target_seconds=TARGET_SECONDS)
    )
    decisions = 200 if smoke else 2000

    def decide() -> None:
        percent = 0.0
        for _ in range(decisions):
            percent = controller.observe(percent, 40.0 - 0.2 * percent)

    metrics["core.adaptation.decide_us"] = timed(decide) / decisions * 1e6

    _probe_store_and_cache(outcome, scenario, seed, workdir)
    _probe_serve_codec(outcome, scenario, feed, spec, smoke)
    _probe_procpool(outcome)
    _probe_backends(outcome, scenario, feed, spec)
    _probe_rank_sensitivity(outcome, spec, seed, smoke)
    _probe_pipelined(outcome, scenario, feed, spec)
    if adapter.shutdown_shared_pool is not None:
        adapter.shutdown_shared_pool()  # the process backend's workers


def _probe_store_and_cache(outcome: Outcome, scenario, seed: int, workdir: Path) -> None:
    """io (raw write, mmap open/read), scenario build over a store, replay cache."""
    metrics = outcome.metrics
    config = scenario.config
    names = (
        "io.store.write_raw_ms", "io.store.write_raw_mb_per_s", "io.store.nbytes",
        "io.store.open_mmap_ms", "io.store.read_blocks_ms",
        "experiments.scenario_build_ms",
    )
    if adapter.CM1Dataset is None:
        outcome.absent.extend(names)
    else:
        # Snapshots are generated before the timed save, so this is the write alone.
        dataset = adapter.fresh_dataset(scenario, nsnapshots=1)
        dataset.snapshot(0)
        store_dir = workdir / "store"
        start = time.perf_counter()
        store = dataset.save(store_dir, layout="raw")
        seconds = time.perf_counter() - start
        nbytes = store.nbytes()
        metrics["io.store.write_raw_ms"] = seconds * 1e3
        metrics["io.store.write_raw_mb_per_s"] = nbytes / 1e6 / seconds
        metrics["io.store.nbytes"] = float(nbytes)
        metrics["io.store.open_mmap_ms"] = median_ms(
            lambda: adapter.open_store(store_dir, config.field_name), 5
        )
        stored = adapter.open_store(store_dir, config.field_name)
        metrics["io.store.read_blocks_ms"] = median_ms(
            lambda: stored.per_rank_blocks(scenario.decomposition, 0, config.field_name), 3
        )
        metrics["experiments.scenario_build_ms"] = median_ms(
            lambda: adapter.ExperimentScenario(config, dataset=stored), 3
        )

    cache_names = ("serve.cache.acquire_miss_ms", "serve.cache.acquire_hit_ms")
    if adapter.ReplayCache is None:
        outcome.absent.extend(cache_names)
        return
    cache = adapter.ReplayCache(workdir / "cache")
    small = dataclasses.replace(config, nsnapshots=1, seed=seed + 1)

    def acquire() -> bool:
        with cache.acquire(small) as (_, was_hit):
            return was_hit

    start = time.perf_counter()
    first_was_hit = acquire()
    metrics["serve.cache.acquire_miss_ms"] = (time.perf_counter() - start) * 1e3
    metrics["serve.cache.acquire_hit_ms"] = median_ms(acquire, 5)
    stats = cache.stats()
    outcome.check(
        not first_was_hit and stats["misses"] == 1 and stats["hits"] == 6,
        f"replay cache probe: first acquire hit={first_was_hit}, stats={stats}",
    )


def _probe_serve_codec(outcome: Outcome, scenario, feed, spec: dict, smoke: bool) -> None:
    """Request parsing and NDJSON encoding of one iteration row."""
    metrics = outcome.metrics
    loops = 200 if smoke else 2000
    if adapter.RunRequest is None:
        outcome.absent.append("serve.request.parse_us")
    else:
        payload = {"scenario": "decaying_storm", "percent": 50, "redistribution": "round_robin", "seed": 1}
        metrics["serve.request.parse_us"] = (
            timed(lambda: [adapter.RunRequest.from_payload(payload) for _ in range(loops)]) / loops * 1e6
        )
    pipeline = adapter.build_pipeline(scenario, **pipeline_options(spec))
    result, _ = pipeline.process_iteration(feed[0], percent_override=50.0)
    metrics["serve.ndjson.encode_us"] = (
        timed(lambda: [json.dumps(adapter.iteration_row(result)) for _ in range(loops)])
        / loops * 1e6
    )


def _probe_procpool(outcome: Outcome) -> None:
    """Fork pool warm-up, a no-op task round trip, a manager-queue round trip."""
    metrics = outcome.metrics
    names = (
        "utils.procpool.warm_ms",
        "utils.procpool.submit_roundtrip_ms",
        "utils.procpool.queue_roundtrip_us",
    )
    needed = (
        adapter.warm_shared_pool, adapter.shared_process_pool,
        adapter.shared_manager, adapter.shutdown_shared_pool,
    )
    if any(surface is None for surface in needed):
        outcome.absent.extend(names)
        return
    try:
        metrics["utils.procpool.warm_ms"] = timed(adapter.warm_shared_pool) * 1e3
        pool = adapter.shared_process_pool()
        metrics["utils.procpool.submit_roundtrip_ms"] = median_ms(
            lambda: pool.submit(int, 0).result(), 20
        )
        queue = adapter.shared_manager().Queue()

        def roundtrip() -> None:
            queue.put(1)
            queue.get()

        metrics["utils.procpool.queue_roundtrip_us"] = median_ms(roundtrip, 50) * 1e3
    finally:
        adapter.shutdown_shared_pool()


def _probe_backends(outcome: Outcome, scenario, feed, spec: dict) -> None:
    """Each registered backend alone: 3 iterations at 50 % on snapshot 0."""
    for backend in adapter.engine_backends():
        pipeline = adapter.build_pipeline(scenario, engine=backend, **pipeline_options(spec))
        tracer = Tracer()
        trace_steps(pipeline, tracer)
        for _ in range(3):
            pipeline.process_iteration(feed[0], percent_override=50.0)
        for step in STEPS:
            outcome.metrics[f"core.{step}.{backend}_ms"] = (
                median(tracer.durations(f"core.{step}")) * 1e3
            )


def _probe_rank_sensitivity(outcome: Outcome, spec: dict, seed: int, smoke: bool) -> None:
    """The same five spans at 400 ranks: 1 snapshot, 5 iterations at 50 %."""
    if smoke:
        config = adapter.scenario_config("tiny", ncores=16, nsnapshots=1, seed=seed)
    else:
        config = adapter.scenario_config("blue_waters_400", nsnapshots=1, seed=seed)
    scenario = adapter.ExperimentScenario(config)
    blocks = scenario.blocks_for(0)
    pipeline = adapter.build_pipeline(scenario, **pipeline_options(spec))
    pipeline.process_iteration(blocks, percent_override=50.0)
    tracer = Tracer()
    trace_steps(pipeline, tracer)
    for _ in range(5):
        pipeline.process_iteration(blocks, percent_override=50.0)
    for step in STEPS:
        outcome.metrics[f"core.{step}.busy_ms_r400"] = (
            median(tracer.durations(f"core.{step}")) * 1e3
        )


def _probe_pipelined(outcome: Outcome, scenario, feed, spec: dict) -> None:
    """Wall of ``pipeline.run`` over the feed at fixed 50 %, pipelined ÷ sequential."""
    name = "core.engine.pipelined_over_sequential"
    walls: Dict[bool, List[float]] = {False: [], True: []}
    for _ in range(3):
        for pipelined in (False, True):
            pipeline = adapter.build_pipeline(
                scenario, pipelined=pipelined, **pipeline_options(spec)
            )
            if pipeline is None:
                outcome.absent.append(name)
                return
            walls[pipelined].append(
                timed(lambda: pipeline.run(feed, percent_override=50.0))
            )
    outcome.metrics[name] = median(walls[True]) / median(walls[False])


def controller_metrics(outcome: Outcome, target: Optional[float], results) -> None:
    """Algorithm 1 seen from outside: when it reached the band, how far it stays off."""
    metrics = outcome.metrics
    metrics["core.adaptation.percent_final"] = float(
        results[min(len(results), ERROR_WINDOW[1]) - 1].percent_reduced
    )
    if target is None:
        metrics["core.adaptation.iters_to_band"] = 0.0
        metrics["core.adaptation.constraint_err_pct"] = 0.0
        return
    errors = [abs(r.modelled_total - target) / target for r in results]
    in_band = [i for i, error in enumerate(errors) if error <= 0.10]
    metrics["core.adaptation.iters_to_band"] = float(in_band[0] if in_band else len(errors))
    window = errors[ERROR_WINDOW[0]:ERROR_WINDOW[1]] or errors
    metrics["core.adaptation.constraint_err_pct"] = mean(window) * 100.0


def count_metrics(outcome: Outcome, kept) -> None:
    """Exact work counts and modelled seconds over the verified iterations."""
    metrics = outcome.metrics

    def total(step: str, counter: str) -> float:
        return float(sum(r.step_reports[step].counters.get(counter, 0.0) for r in kept))

    metrics["core.scoring.blocks"] = total("scoring", "nblocks")
    metrics["core.reduction.blocks_reduced"] = total("reduction", "nreduced")
    metrics["core.reduction.points_copied"] = total("reduction", "points_copied")
    metrics["core.redistribution.moved_bytes"] = float(sum(r.moved_bytes for r in kept))
    metrics["core.rendering.triangles"] = total("rendering", "total_triangles")
    for step in STEPS:
        metrics[f"core.{step}.modelled_s"] = float(
            sum(r.modelled_steps.get(step, 0.0) for r in kept)
        )


def setup_span_metrics(outcome: Outcome, tracer: Tracer, scenario) -> None:
    """CM1 generation and decomposition, from the spans recorded during set-up."""
    snapshots = tracer.durations("cm1.snapshot")
    field_bytes = scenario.dataset.snapshot(0).get_field(scenario.config.field_name).nbytes
    outcome.metrics["cm1.snapshot_ms"] = median(snapshots) * 1e3
    outcome.metrics["cm1.snapshot_mb_per_s"] = field_bytes / 1e6 / median(snapshots)
    decompositions = max(1, len(tracer.durations("grid.decompose")))
    outcome.metrics["grid.decompose_ms"] = (
        tracer.self_times().get("grid.decompose", 0.0) / decompositions * 1e3
    )

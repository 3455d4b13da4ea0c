"""Engine benchmark: the vectorized backend must beat the serial per-block
loops ≥3x on the hot data-parallel steps — scoring, for the array metrics
(VAR) *and* for the coder metrics (FPZIP, the most expensive scorer of the
paper's Table I and the one its figures plot), and counting-mode rendering
(the load proxy the large virtual-rank experiments run) — and, now that
sorting, reduction, and redistribution are batched too, on the *entire*
fig11 pipeline end to end.  Every backend must reproduce the
fig10/fig11 runs identically, down to every field of every step report.

The speedup scenario uses the paper's 64-rank configuration with a finer
4×4×4 block decomposition (4,096 blocks): the regime the redistribution step
prefers (many small blocks to balance) and exactly where per-block Python
overhead dominates the serial scoring and rendering loops.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cm1.dataset import CM1Dataset
from repro.compress.fpzip_like import FpzipLikeCompressor
from repro.core.config import AdaptationConfig
from repro.core.rendering_step import RenderingStep, VectorizedRenderingStep
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.scenarios.scenario import ExperimentScenario, cached_scenario
from repro.experiments.runs import PAPER_TARGETS
from repro.grid.batch import (
    BlockColumns,
    group_positions_by_shape,
    stacked_shape_groups,
)
from repro.metrics.registry import create_metric
from repro.scenarios import create_scenario_config
from repro.viz.marching_cubes import count_active_cells_batch

#: Minimum serial/vectorized wall-clock ratio the engine must deliver on the
#: gated hot paths (scoring and counting-mode rendering).
MIN_SPEEDUP = 3.0

#: Minimum oracle/kernel wall-clock ratio of the FPZIP size path: the fused,
#: cache-blocked residual-code kernel against the whole-batch implementation
#: it replaced (3.4x measured on these blocks).
MIN_SIZE_KERNEL_SPEEDUP = 2.0

#: Minimum oracle/kernel wall-clock ratio of the batched active-cell count: the
#: chunked byte-code kernel against the whole-batch float min/max kernel it
#: replaced (5.5–6x measured on these blocks, 7–9x on `blue_waters_64`'s).
MIN_COUNT_KERNEL_SPEEDUP = 2.5

#: Minimum oracle/kernel wall-clock ratio of the count kernel's reach pass: the
#: kernel that fully classifies only the blocks with a point at or above the
#: isovalue against the byte-code kernel that classified every block
#: (1.58–1.76x measured on these blocks, 1.78–1.84x on `blue_waters_64`'s).
MIN_REACH_PASS_SPEEDUP = 1.3

#: Minimum oracle/kernel wall-clock ratio of VAR's batched scoring: the
#: row-chunked ``row_variance`` against the whole-batch ``np.var`` it replaced
#: (1.25–1.48x measured cycling 4 `blue_waters_64` snapshots).
MIN_VAR_KERNEL_SPEEDUP = 1.15

#: Minimum wall-clock ratio of one snapshot's hand-off to the columnar state:
#: per-rank ``extract_blocks`` + the ingest pass over the ``Block`` objects
#: against ``decompose`` + the arrival's ready-made columns and groups (6.4x
#: measured on `blue_waters_64`).
MIN_ARRIVAL_SPEEDUP = 4.0

#: Minimum end-to-end wall-clock ratio of the streaming execution path
#: (mmap replay of stored snapshots) over the one-shot path (live CM1
#: simulation) on a multi-snapshot fig11 run; the engine is the same.
MIN_STREAMING_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def fine_scenario_64() -> ExperimentScenario:
    """64 ranks, 64 blocks per rank (finer granularity than the default 32).

    Resolved through the scenario registry ("blue_waters_64_fine"), so the
    gate configuration is listed by ``python -m repro list`` and covered by
    the registry-driven parity sweep like every other workload.
    """
    return cached_scenario(name="blue_waters_64_fine")


def _best_of(run, repeats: int = 5) -> float:
    """Best wall-clock of ``repeats`` calls of the zero-argument ``run``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_interleaved(first, second, repeats: int = 5):
    """Best wall-clock of each of two zero-argument runs, timed in turn (first,
    second, first, second …) so a noisy spell on a shared runner hits both."""
    best_first = best_second = float("inf")
    for _ in range(repeats):
        best_first = min(best_first, _best_of(first, 1))
        best_second = min(best_second, _best_of(second, 1))
    return best_first, best_second


@pytest.mark.parametrize("metric_name,repeats", [("VAR", 5), ("FPZIP", 2)])
def test_vectorized_scoring_speedup(
    fine_scenario_64, metric_name, repeats, run_step
):
    """Vectorized scoring beats the serial per-block loop by ≥3x.

    VAR gates the array-metric path (PR 1); FPZIP gates the coder-metric
    path, whose batched ``compressed_size_batch`` collapses per-block
    payload assembly into one pass over the stacked batch.
    """
    blocks = fine_scenario_64.blocks_for(0)
    serial = ScoringStep(create_metric(metric_name), fine_scenario_64.platform)
    vector = VectorizedScoringStep(
        create_metric(metric_name), fine_scenario_64.platform
    )
    # Identical outputs first (the speedup must not come from doing less).
    serial_pairs = [wire.tobytes() for wire in run_step(serial, blocks)[0].pair_arrays]
    assert [wire.tobytes() for wire in run_step(vector, blocks)[0].pair_arrays] == serial_pairs
    # Wall-clock gate: re-measure on transient noise (shared CI runners)
    # before failing; a genuine regression fails all attempts.
    for _attempt in range(3):
        serial_seconds, vector_seconds = _best_of_interleaved(
            lambda: run_step(serial, blocks),
            lambda: run_step(vector, blocks),
            repeats=repeats,
        )
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    print(
        f"\nscoring 4096 blocks / 64 ranks ({metric_name}): "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized {metric_name} scoring speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_fpzip_size_kernel_speedup(fine_scenario_64, replaced_kernel):
    """The fused residual-code kernel sizes the stacked scenario blocks ≥2x
    faster than the implementation it replaced, with identical sizes.

    Isolates ``compressed_size_batch`` from the scoring step around it (the
    column state, score column and wire pairs that ``scoring_speedup_FPZIP``
    also times), so a regression of the kernel itself — a lost ``out=``, a
    chunk budget that falls out of cache — shows here first.
    """
    oracle = replaced_kernel("test_compress.py", "oracle_compressed_size_batch")
    blocks = [b for rank in fine_scenario_64.blocks_for(0) for b in rank]
    groups = [
        np.stack([blocks[i].data for i in indices])
        for indices in group_positions_by_shape(blocks)
    ]
    coder = FpzipLikeCompressor()
    # Identical sizes first (the speedup must not come from doing less).
    for group in groups:
        assert coder.compressed_size_batch(group).tolist() == oracle(group).tolist()
    for _attempt in range(3):
        oracle_seconds, kernel_seconds = _best_of_interleaved(
            lambda: [oracle(g) for g in groups],
            lambda: [coder.compressed_size_batch(g) for g in groups],
        )
        speedup = oracle_seconds / kernel_seconds
        if speedup >= MIN_SIZE_KERNEL_SPEEDUP:
            break
    print(
        f"\nFPZIP sizes of {len(blocks)} stacked blocks: "
        f"replaced path {oracle_seconds * 1e3:.1f} ms, "
        f"fused kernel {kernel_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SIZE_KERNEL_SPEEDUP, (
        f"FPZIP size kernel speedup {speedup:.2f}x below required "
        f"{MIN_SIZE_KERNEL_SPEEDUP}x (oracle {oracle_seconds:.4f}s, kernel "
        f"{kernel_seconds:.4f}s)"
    )


def test_count_kernel_speedup(fine_scenario_64, replaced_kernel):
    """The byte-code ``count_active_cells_batch`` counts the stacked scenario
    blocks ≥2.5x faster than the min/max kernel it replaced, with identical
    counts.

    Isolates the kernel from the rendering step around it (the result dicts
    and the per-rank pricing ``rendering_speedup`` also times); the two sides
    are timed interleaved.
    """
    oracle = replaced_kernel("test_viz.py", "oracle_count_active_cells_batch")
    blocks = [b for rank in fine_scenario_64.blocks_for(0) for b in rank]
    groups = [stacked for _, stacked in stacked_shape_groups(blocks)]
    level = 45.0
    # Identical counts first (the speedup must not come from doing less).
    for group in groups:
        counts = count_active_cells_batch(group, level)
        assert counts.tolist() == oracle(group, level).tolist()
    for _attempt in range(3):
        oracle_seconds, kernel_seconds = _best_of_interleaved(
            lambda: [oracle(g, level) for g in groups],
            lambda: [count_active_cells_batch(g, level) for g in groups],
        )
        speedup = oracle_seconds / kernel_seconds
        if speedup >= MIN_COUNT_KERNEL_SPEEDUP:
            break
    print(
        f"\nactive cells of {len(blocks)} stacked blocks: "
        f"replaced kernel {oracle_seconds * 1e3:.1f} ms, "
        f"byte-code kernel {kernel_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_COUNT_KERNEL_SPEEDUP, (
        f"count kernel speedup {speedup:.2f}x below required "
        f"{MIN_COUNT_KERNEL_SPEEDUP}x (oracle {oracle_seconds:.4f}s, kernel "
        f"{kernel_seconds:.4f}s)"
    )


def test_count_reach_pass_speedup(fine_scenario_64, replaced_kernel):
    """Counting a whole snapshot, ``count_active_cells_batch`` — which runs the
    byte-code classification only over the blocks that reach the isovalue —
    is ≥1.3x faster than the byte-code kernel it replaced, which classified
    every block, with identical counts.  The two sides are timed interleaved.
    """
    oracle = replaced_kernel("test_viz.py", "oracle_bytecode_count_active_cells_batch")
    groups = [stacked for _, stacked in fine_scenario_64.blocks_for(0).groups]
    level = 45.0
    # Identical counts first (the speedup must not come from doing less).
    for group in groups:
        counts = count_active_cells_batch(group, level)
        assert counts.tolist() == oracle(group, level).tolist()
    for _attempt in range(3):
        oracle_seconds, kernel_seconds = _best_of_interleaved(
            lambda: [oracle(g, level) for g in groups],
            lambda: [count_active_cells_batch(g, level) for g in groups],
        )
        speedup = oracle_seconds / kernel_seconds
        if speedup >= MIN_REACH_PASS_SPEEDUP:
            break
    print(
        f"\nactive cells of {sum(len(g) for g in groups)} stacked blocks: "
        f"every block classified {oracle_seconds * 1e3:.2f} ms, "
        f"reaching blocks only {kernel_seconds * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_REACH_PASS_SPEEDUP, (
        f"count reach-pass speedup {speedup:.2f}x below required "
        f"{MIN_REACH_PASS_SPEEDUP}x (oracle {oracle_seconds:.4f}s, kernel "
        f"{kernel_seconds:.4f}s)"
    )


def test_var_kernel_speedup(scenario_64, replaced_kernel):
    """VAR's chunked ``score_batch`` scores the stacked payload groups of 4
    ``blue_waters_64`` snapshots ≥1.15x faster than the whole-batch ``np.var``
    it replaced, with bitwise the same scores.

    The snapshots are cycled so neither side keeps one snapshot's payloads
    warm in cache for the next call; the two sides are timed interleaved.
    """
    oracle = replaced_kernel("test_metric_batch_parity.py", "oracle_var_score_batch")
    metric = create_metric("VAR")
    groups = [
        stacked
        for snapshot in range(4)
        for _, stacked in scenario_64.blocks_for(snapshot).groups
    ]
    # Bitwise the same scores first (the speedup must not come from doing less).
    for group in groups:
        assert metric.score_batch(group).tobytes() == oracle(group).tobytes()
    for _attempt in range(3):
        oracle_seconds, kernel_seconds = _best_of_interleaved(
            lambda: [oracle(g) for g in groups],
            lambda: [metric.score_batch(g) for g in groups],
        )
        speedup = oracle_seconds / kernel_seconds
        if speedup >= MIN_VAR_KERNEL_SPEEDUP:
            break
    print(
        f"\nVAR of {len(groups)} stacked groups: replaced np.var "
        f"{oracle_seconds * 1e3:.1f} ms, row chunks {kernel_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_VAR_KERNEL_SPEEDUP, (
        f"VAR kernel speedup {speedup:.2f}x below required "
        f"{MIN_VAR_KERNEL_SPEEDUP}x (oracle {oracle_seconds:.4f}s, kernel "
        f"{kernel_seconds:.4f}s)"
    )


def test_prestacked_arrival_speedup(scenario_64):
    """Handing the pipeline one snapshot pre-stacked — ``decompose`` plus the
    columnar state's groups — is ≥4x faster than the per-``Block`` hand-off it
    replaced: per-rank ``extract_blocks``, one ingest pass for the five metadata
    columns and one ``stacked_shape_groups``.  ``blue_waters_64`` (2 048 blocks
    of 8 shapes), same columns and bitwise the same groups first; the two sides
    are timed interleaved."""
    decomposition = scenario_64.decomposition
    field = scenario_64.field(0)
    names = ("ids", "owners", "levels", "npoints", "nbytes")

    def per_block():
        columns = BlockColumns(
            [decomposition.extract_blocks(r, field) for r in range(decomposition.nranks)]
        )
        return columns.groups, [getattr(columns, name) for name in names]

    def prestacked():
        columns = BlockColumns(decomposition.decompose(field))
        return columns.groups, [getattr(columns, name) for name in names]

    # The same state first (the speedup must not come from doing less).
    (old_groups, old_columns), (new_groups, new_columns) = per_block(), prestacked()
    assert [c.tolist() for c in new_columns] == [c.tolist() for c in old_columns]
    assert len(new_groups) == len(old_groups)
    for (rows, stacked), (old_rows, old_stacked) in zip(new_groups, old_groups):
        assert rows.tolist() == old_rows.tolist() and stacked.dtype == old_stacked.dtype
        assert stacked.shape == old_stacked.shape and stacked.tobytes() == old_stacked.tobytes()
    for _attempt in range(3):
        old_seconds, new_seconds = _best_of_interleaved(per_block, prestacked)
        speedup = old_seconds / new_seconds
        if speedup >= MIN_ARRIVAL_SPEEDUP:
            break
    print(
        f"\none snapshot to columnar state, {decomposition.nblocks} blocks: "
        f"per-Block {old_seconds * 1e3:.1f} ms, pre-stacked {new_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_ARRIVAL_SPEEDUP, (
        f"pre-stacked arrival speedup {speedup:.2f}x below required "
        f"{MIN_ARRIVAL_SPEEDUP}x (per-Block {old_seconds:.4f}s, pre-stacked "
        f"{new_seconds:.4f}s)"
    )


def test_vectorized_rendering_speedup(fine_scenario_64, run_step):
    """Batched count-mode rendering beats the serial per-block loop by ≥3x.

    Rendering is the step the paper's adaptation loop exists to control; the
    vectorised backend replaces the per-block ``count_active_cells`` calls
    with one stacked ``count_active_cells_batch`` call per shape group (a
    chunked byte-code pipeline, gated on its own above).  The speedup must
    not come from doing less: counts, triangle estimates, and modelled
    seconds are asserted identical before the wall-clock gate.
    """
    blocks = fine_scenario_64.blocks_for(0)
    platform = fine_scenario_64.platform
    serial = RenderingStep(platform, render_mode="count")
    vector = VectorizedRenderingStep(platform, render_mode="count")

    def observable(step):
        context, report = run_step(step, blocks)
        results = context.render_results
        return (
            [r.per_block_active_cells for r in results],
            [r.per_block_triangles for r in results],
            [r.npoints for r in results],
            report.per_rank_counters,
            report.modelled_per_rank,
        )

    reference = observable(serial)
    assert observable(vector) == reference

    for _attempt in range(3):
        serial_seconds, vector_seconds = _best_of_interleaved(
            lambda: run_step(serial, blocks), lambda: run_step(vector, blocks)
        )
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    print(
        f"\nrendering (count) 4096 blocks / 64 ranks: "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized rendering speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_reduction_ladder_quality_vs_cost(fine_scenario_64):
    """The mipmap ladder's middle rung earns its payload bytes: level-1
    strided reduction must reconstruct with strictly lower TRILIN error than
    corner reduction while shipping at most 1/4 of the full-block payload.

    The printed quantity is the level-1/corner error ratio (lower is
    better).
    """
    import numpy as np

    from repro.grid.block import level_shape
    from repro.grid.reduction import reduction_error_batch

    blocks = fine_scenario_64.all_blocks(0)
    by_shape = {}
    for b in blocks:
        by_shape.setdefault(tuple(b.data.shape), []).append(
            np.asarray(b.data, dtype=np.float64)
        )
    level1_sum = corner_sum = 0.0
    level1_points = full_points = 0
    for shape, group in by_shape.items():
        stacked = np.stack(group)
        level1_sum += float(reduction_error_batch(stacked, level=1).sum())
        corner_sum += float(reduction_error_batch(stacked, level=2).sum())
        level1_points += len(group) * int(np.prod(level_shape(1, shape)))
        full_points += len(group) * int(np.prod(shape))
    level1_mean = level1_sum / len(blocks)
    corner_mean = corner_sum / len(blocks)
    error_ratio = level1_mean / corner_mean
    # Cost is what the pipeline ships: total level-1 payload bytes over
    # total full-block bytes (tiny remainder blocks can individually sit a
    # shade above 1/4 — e.g. 6x6x5 -> 4*4*3/180 = 0.267 — without moving
    # the shipped volume).
    payload_fraction = level1_points / full_points

    full_shape = blocks[0].extent.shape
    print(
        f"\nreduction ladder quality ({len(blocks)} blocks, "
        f"block shape {full_shape}): level-1 error {level1_mean:.4g}, "
        f"corner error {corner_mean:.4g} (ratio {error_ratio:.3f}), "
        f"level-1 payload fraction {payload_fraction:.3f}"
    )
    assert level1_mean < corner_mean, (
        f"level-1 reduction must beat corners on TRILIN error "
        f"(level-1 {level1_mean:.4g} >= corners {corner_mean:.4g})"
    )
    assert payload_fraction <= 0.25, (
        f"level-1 payload fraction {payload_fraction:.3f} exceeds the 1/4 "
        f"full-block budget for block shape {full_shape}"
    )


def test_fig11_full_pipeline_speedup(fine_scenario_64):
    """The whole fig11 iteration — all five Figure-2 steps — runs ≥3x faster
    on the vectorized backend than on the serial reference.

    This is the gate the backend registry exists to win: after PRs 1–3 the
    fig11 hot path was dominated by the unvectorized middle of the pipeline
    (per-block sorting/reduction/redistribution loops), so scoring and
    rendering speedups alone could not move the end-to-end number.  The
    measured iteration runs the fig11 configuration (VAR metric, round-robin
    redistribution) at a 50% reduction percentage, the middle of the
    adaptive band the fig11 runs settle into.
    """
    blocks = fine_scenario_64.blocks_for(0)

    def build(engine):
        return fine_scenario_64.build_pipeline(
            metric="VAR", redistribution="round_robin", engine=engine
        )

    serial = build("serial")
    vector = build("vectorized")

    def iteration(pipeline):
        return lambda: pipeline.process_iteration(blocks, percent_override=50.0)

    for _attempt in range(3):
        serial_seconds, vector_seconds = _best_of_interleaved(
            iteration(serial), iteration(vector), repeats=3
        )
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    print(
        f"\nfig11 full pipeline 4096 blocks / 64 ranks: "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized full-pipeline speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_fig11_multisnapshot_streaming_speedup(tmp_path):
    """The streaming execution path — an mmap replay of the stored dataset feeding the
    engine — beats the one-shot path (live CM1 simulation feeding the same
    engine) ≥1.3x end to end on a multi-snapshot fig11 run.

    Both sides do the complete job of "turn a scenario config into per-
    iteration fig11 results": the baseline simulates every CM1 snapshot
    (the behaviour of ``python -m repro run``); the gated path replays the
    snapshots through read-only ``np.memmap`` views of a
    :class:`DatasetStore` — zero deserialisation, no re-simulation.  The
    five steps run strictly in sequence on both sides, so the ratio
    measures the replay and nothing else.

    The speedup must not come from doing less: every per-iteration result
    of the replayed run is asserted identical to the simulated run first.
    """
    config = create_scenario_config("blue_waters_64", nsnapshots=4)
    store_dir = tmp_path / "fig11-replay"

    def run_on(scenario):
        pipeline = scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        return pipeline.run(scenario.iteration_blocks(), percent_override=50.0)

    def cold_run():
        # Fresh scenario: simulates CM1 from scratch, like a one-shot CLI run.
        return run_on(ExperimentScenario(config))

    def warm_run():
        dataset = CM1Dataset.load(store_dir, mmap=True)
        return run_on(ExperimentScenario(config, dataset=dataset))

    # Warm the replay store once; persisting is charged to neither side
    # (serve mode pays it on the first request only).
    ExperimentScenario(config).save(store_dir)

    def rows(run):
        return [
            (
                r.iteration, r.percent_reduced, r.nblocks, r.nreduced,
                r.moved_bytes, dict(r.modelled_steps), r.modelled_total,
                tuple(r.triangles_per_rank),
            )
            for r in run.iterations
        ]

    assert rows(warm_run()) == rows(cold_run())

    for _attempt in range(3):
        cold_seconds = _best_of(cold_run, repeats=2)
        warm_seconds = _best_of(warm_run, repeats=2)
        speedup = cold_seconds / warm_seconds
        if speedup >= MIN_STREAMING_SPEEDUP:
            break
    print(
        f"\nfig11 4-snapshot run: one-shot {cold_seconds * 1e3:.0f} ms, "
        f"streaming {warm_seconds * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_STREAMING_SPEEDUP, (
        f"streaming fig11 speedup {speedup:.2f}x below required "
        f"{MIN_STREAMING_SPEEDUP}x (one-shot {cold_seconds:.3f}s, "
        f"streaming {warm_seconds:.3f}s)"
    )


def test_fig11_step_reports_identical_on_every_field(fine_scenario_64):
    """Serial, vectorized, and parallel step reports agree on *every* field
    of *every* step of a fig11 adaptive run — modelled per-rank seconds,
    payload bytes, counters, and per-rank counters; measured wall-clock is
    the one field that legitimately differs (only its per-rank shape is
    compared)."""

    def fig11_reports(engine, niterations=2):
        pipeline = fine_scenario_64.build_pipeline(
            metric="VAR",
            redistribution="round_robin",
            adaptation=AdaptationConfig(
                enabled=True, target_seconds=PAPER_TARGETS["round_robin", 64][0]
            ),
            engine=engine,
        )
        reports = []
        for _ in range(niterations):
            result, _ = pipeline.process_iteration(fine_scenario_64.blocks_for(0))
            reports.append(result.step_reports)
        return reports

    reference = fig11_reports("serial")
    for engine in ("vectorized", "parallel"):
        other = fig11_reports(engine)
        for ref_iter, other_iter in zip(reference, other):
            assert set(other_iter) == set(ref_iter)
            for name, ref in ref_iter.items():
                report = other_iter[name]
                assert report.step == ref.step
                assert report.modelled_per_rank == ref.modelled_per_rank, (
                    engine,
                    name,
                )
                assert report.payload_bytes == ref.payload_bytes, (engine, name)
                assert report.counters == ref.counters, (engine, name)
                assert report.per_rank_counters == ref.per_rank_counters, (
                    engine,
                    name,
                )
                assert len(report.measured_per_rank) == len(ref.measured_per_rank)


def _adaptive_trace(scenario, redistribution, target, engine, niterations=4):
    pipeline = scenario.build_pipeline(
        metric="VAR",
        redistribution=redistribution,
        adaptation=AdaptationConfig(enabled=True, target_seconds=target),
        engine=engine,
    )
    trace = []
    for i in range(niterations):
        result, _ = pipeline.process_iteration(
            scenario.blocks_for(i % len(scenario.dataset))
        )
        trace.append(
            (
                result.percent_reduced,
                result.nreduced,
                result.moved_bytes,
                tuple(result.triangles_per_rank),
                result.modelled_total,
            )
        )
    return trace


@pytest.mark.parametrize(
    "redistribution,target",
    [
        ("none", PAPER_TARGETS["none", 64][1]),
        ("round_robin", PAPER_TARGETS["round_robin", 64][0]),
    ],
    ids=["fig10", "fig11"],
)
def test_backends_identical_on_paper_scenarios(scenario_64, redistribution, target):
    """Serial, vectorized, and parallel fig10/fig11 runs are identical."""
    serial = _adaptive_trace(scenario_64, redistribution, target, "serial")
    vector = _adaptive_trace(scenario_64, redistribution, target, "vectorized")
    parallel = _adaptive_trace(scenario_64, redistribution, target, "parallel")
    assert serial == vector
    assert serial == parallel


@pytest.mark.parametrize(
    "redistribution,target",
    [
        ("none", PAPER_TARGETS["none", 64][1]),
        ("round_robin", PAPER_TARGETS["round_robin", 64][0]),
    ],
    ids=["fig10", "fig11"],
)
def test_backends_identical_with_coder_metric(scenario_64, redistribution, target):
    """The coder-metric (FPZIP) batched path reproduces the paper protocols
    identically on every backend — the parity discipline of the ≥3x gate."""

    def trace(engine):
        pipeline = scenario_64.build_pipeline(
            metric="FPZIP",
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=target),
            engine=engine,
        )
        result, _ = pipeline.process_iteration(scenario_64.blocks_for(0))
        return (
            result.percent_reduced,
            result.nreduced,
            result.moved_bytes,
            tuple(result.triangles_per_rank),
            result.modelled_total,
        )

    serial = trace("serial")
    assert serial == trace("vectorized")
    assert serial == trace("parallel")

"""Integration tests of the full adaptive pipeline on small scenarios."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro
from repro.core.backends import STEP_NAMES
from repro.core.config import AdaptationConfig, PipelineConfig
from repro.core.results import IterationResult
from repro.core.step import StepReport
from repro.scenarios import ExperimentScenario


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.metric == "VAR"

    def test_invalid_redistribution(self):
        with pytest.raises(ValueError):
            PipelineConfig(redistribution="banana")

    def test_invalid_render_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(render_mode="gpu")

    def test_empty_metric(self):
        with pytest.raises(ValueError):
            PipelineConfig(metric="")


class TestPipelineIntegration:
    def test_process_iteration_structure(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        blocks = tiny_scenario.blocks_for(0)
        result, renders = pipeline.process_iteration(blocks, percent_override=0.0)
        assert isinstance(result, IterationResult)
        assert result.nblocks == tiny_scenario.nblocks
        assert result.nreduced == 0
        assert len(renders) == tiny_scenario.nranks
        assert set(result.modelled_steps) == {
            "scoring",
            "sorting",
            "reduction",
            "redistribution",
            "rendering",
        }
        assert result.modelled_total > 0

    def test_rank_count_validated(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        with pytest.raises(ValueError):
            pipeline.process_iteration([[]])

    def test_percent_override_bounds(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        with pytest.raises(ValueError):
            pipeline.process_iteration(tiny_scenario.blocks_for(0), percent_override=150.0)

    def test_full_reduction_reduces_all_blocks(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        result, _ = pipeline.process_iteration(tiny_scenario.blocks_for(0), percent_override=100.0)
        assert result.nreduced == result.nblocks

    def test_reduction_lowers_rendering_time(self, tiny_scenario):
        p_full = tiny_scenario.build_pipeline()
        full, _ = p_full.process_iteration(tiny_scenario.blocks_for(0), percent_override=0.0)
        p_red = tiny_scenario.build_pipeline()
        reduced, _ = p_red.process_iteration(tiny_scenario.blocks_for(0), percent_override=100.0)
        assert reduced.modelled_rendering < full.modelled_rendering

    def test_redistribution_improves_balance(self, small_scenario_16):
        scenario = small_scenario_16
        none_result, _ = scenario.build_pipeline(redistribution="none").process_iteration(
            scenario.blocks_for(0), percent_override=0.0
        )
        rr_result, _ = scenario.build_pipeline(redistribution="round_robin").process_iteration(
            scenario.blocks_for(0), percent_override=0.0
        )
        assert rr_result.load_imbalance <= none_result.load_imbalance
        assert rr_result.modelled_rendering <= none_result.modelled_rendering

    def test_monitor_records_iterations(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        results = [
            pipeline.process_iteration(tiny_scenario.blocks_for(i), percent_override=0.0)[0]
            for i in range(2)
        ]
        assert [r.iteration for r in results] == [0, 1]
        assert all(r.modelled_steps["rendering"] > 0 for r in results)
        # A run returns this call's iterations, numbered after the earlier ones.
        run = pipeline.run([tiny_scenario.blocks_for(2)], percent_override=0.0)
        assert [r.iteration for r in run.iterations] == [2] and run.niterations == 1
        assert run.summary()["iterations"] == 1

    def test_adaptation_moves_percent_toward_target(self, tiny_scenario):
        adaptation = AdaptationConfig(enabled=True, target_seconds=5.0)
        pipeline = tiny_scenario.build_pipeline(
            metric="VAR", redistribution="none", adaptation=adaptation
        )
        percents = []
        for i in range(4):
            blocks = tiny_scenario.blocks_for(i % len(tiny_scenario.dataset))
            result, _ = pipeline.process_iteration(blocks)
            percents.append(result.percent_reduced)
        # Starts at 0 and increases because the target is far below the baseline.
        assert percents[0] == 0.0
        assert percents[1] > 50.0

    def test_run_convenience(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        run = pipeline.run([tiny_scenario.blocks_for(0), tiny_scenario.blocks_for(1)], percent_override=0.0)
        assert run.niterations == 2

    def test_config_summary_contents(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="LEA", redistribution="shuffle")
        summary = pipeline.config_summary()
        assert summary["metric"] == "LEA"
        assert summary["redistribution"] == "shuffle"
        assert summary["nranks"] == tiny_scenario.nranks

    def test_quickstart_helper(self):
        run = repro.quickstart_pipeline(nranks=4, nsnapshots=2)
        assert run.niterations == 2
        assert all(r.modelled_total > 0 for r in run.iterations)

    def test_mesh_render_mode(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(render_mode="mesh")
        result, renders = pipeline.process_iteration(
            tiny_scenario.blocks_for(0), percent_override=0.0
        )
        assert result.modelled_rendering > 0
        assert any(r.mesh is not None for r in renders)

def _record_step_calls(pipeline):
    """Wrap every step's ``execute`` to log ``(iteration, step name)``."""
    calls = []
    for step in pipeline.engine.steps:
        def execute(context, _step=step, _inner=step.execute):
            calls.append((context.iteration, _step.name))
            return _inner(context)

        step.execute = execute
    return calls


class TestRunCallbacks:
    """``run(on_iteration=...)`` — the contract the serve tier streams and
    cancels through."""

    def test_callbacks_fire_in_order_with_every_report(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(redistribution="round_robin")
        seen = []

        def on_iteration(result):
            # At callback time the iteration is fully processed.
            assert tuple(result.step_reports) == STEP_NAMES
            assert result.iteration == len(seen)
            seen.append(result.iteration)

        run = pipeline.run(
            tiny_scenario.iteration_blocks(),
            percent_override=50.0,
            on_iteration=on_iteration,
        )
        assert seen == [0, 1, 2]
        assert [r.iteration for r in run.iterations] == seen

    def test_raising_callback_cancels_between_iterations(self, tiny_scenario):
        class Cancel(Exception):
            pass

        pipeline = tiny_scenario.build_pipeline(redistribution="round_robin")
        calls = _record_step_calls(pipeline)
        error = Cancel("stop at 1")
        seen = []

        def cancel_at_one(result):
            seen.append(result.iteration)
            if result.iteration == 1:
                raise error

        with pytest.raises(Cancel) as raised:
            pipeline.run(
                tiny_scenario.iteration_blocks(),
                percent_override=50.0,
                on_iteration=cancel_at_one,
            )
        assert raised.value is error
        # Iterations 0 and 1 ran every step; no step of iteration 2 started.
        assert calls == [(i, name) for i in (0, 1) for name in STEP_NAMES]
        assert seen == [0, 1]
        # The pipeline is still usable and continues at the next index.
        run = pipeline.run([tiny_scenario.blocks_for(2)], percent_override=50.0)
        assert [r.iteration for r in run.iterations] == [2]

    def test_raising_step_leaves_completed_iterations(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(redistribution="round_robin")
        reduction = pipeline.engine.reduction
        inner = reduction.execute

        def poisoned(context):
            if context.iteration == 1:
                raise RuntimeError("poisoned stage")
            return inner(context)

        reduction.execute = poisoned
        calls = _record_step_calls(pipeline)
        completed = []
        with pytest.raises(RuntimeError, match="poisoned stage"):
            pipeline.run(
                tiny_scenario.iteration_blocks(),
                percent_override=50.0,
                on_iteration=lambda result: completed.append(result.iteration),
            )
        assert completed == [0]
        assert calls[len(STEP_NAMES):] == [
            (1, "scoring"), (1, "sorting"), (1, "reduction"),
        ]
        # The failed iteration left no trace: the next call runs index 1.
        reduction.execute = inner
        run = pipeline.run([tiny_scenario.blocks_for(1)], percent_override=50.0)
        assert [r.iteration for r in run.iterations] == [1]


def _outcome(result):
    """Every field of an iteration's result but its measured wall-clock."""
    return (
        result.iteration,
        result.percent_reduced,
        result.nblocks,
        [
            (name, r.modelled_per_rank, r.payload_bytes, r.counters, r.per_rank_counters)
            for name, r in result.step_reports.items()
        ],
    )


#: Iterations of the resumption law's reference run.
RESUMED_ITERATIONS = 4


@pytest.fixture(scope="module", params=["tiny", "decaying_storm"])
def resumed_scenario(request, at_tiny_scale):
    return ExperimentScenario(at_tiny_scale(request.param, nsnapshots=RESUMED_ITERATIONS))


class TestResumptionLaw:
    """``run(feed[:k])`` then ``run(feed[k:])`` on one pipeline give,
    concatenated, what ``run(feed)`` gives on a fresh one, and leave the
    controller at the same next percentage: the iteration counter and the
    controller's two points are all the state an iteration leaves behind.
    Rebuilding the controller, or resetting the counter, at the top of
    ``run`` fails it."""

    @pytest.mark.parametrize("k", range(RESUMED_ITERATIONS + 1))
    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    def test_split_run_equals_one_run(self, resumed_scenario, adaptive, k):
        scenario = resumed_scenario
        feed = [scenario.blocks_for(i) for i in range(RESUMED_ITERATIONS)]

        def build():
            # A target inside the modelled range, so every adaptive step moves p.
            adaptation = AdaptationConfig(
                enabled=adaptive, target_seconds=1000.0, initial_percent=40.0
            )
            return scenario.build_pipeline(redistribution="round_robin", adaptation=adaptation)

        whole = build()
        expected = [_outcome(r) for r in whole.run(feed).iterations]
        if adaptive:
            assert len({outcome[1] for outcome in expected}) == RESUMED_ITERATIONS

        pipeline = build()
        first = pipeline.run(feed[:k]).iterations
        second = pipeline.run(feed[k:]).iterations
        assert len(first) == k
        assert [_outcome(r) for r in first + second] == expected
        assert pipeline.controller.next_percent == whole.controller.next_percent


def test_retained_memory_does_not_grow_with_iterations(tiny_scenario):
    """What ``tracemalloc`` sees retained after 500 ``process_iteration``
    calls exceeds what it saw after 50 by at most 32 KB.

    It reads 1–14 KB: allocator free-list noise, the same at a few thousand
    calls.  Keeping every ``IterationResult`` reads ≈ 1 860 KB, and keeping
    every controller observation 59–66 KB.  One result is ≈ 4.3 KB on
    ``tiny``, inside the noise, so the bound is a fixed 32 KB rather than
    "less than one result"; 64 KB would let the kept observations pass about
    one run in two.
    """
    adaptation = AdaptationConfig(enabled=True, target_seconds=1000.0)
    pipeline = tiny_scenario.build_pipeline(redistribution="round_robin", adaptation=adaptation)
    feed = [tiny_scenario.blocks_for(i) for i in range(len(tiny_scenario.dataset))]

    def retained_after(calls):
        for i in range(calls):
            pipeline.process_iteration(feed[i % len(feed)])
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_50 = retained_after(50)
        after_500 = retained_after(450)
    finally:
        tracemalloc.stop()
    assert after_500 - after_50 <= 32 * 1024, f"{(after_500 - after_50) / 1024:.1f} KB"


class TestOneCommunicator:
    """Every step charges the pipeline's one communicator."""

    def test_no_second_engine_to_select(self, tiny_scenario):
        with pytest.raises(TypeError):
            tiny_scenario.build_pipeline(pipelined=True)
        with pytest.raises(TypeError):
            PipelineConfig(pipelined=True)
        assert "pipelined" not in tiny_scenario.build_pipeline().config_summary()

    def test_default_run_fills_pipeline_comm_stats(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(redistribution="round_robin")
        run = pipeline.run(tiny_scenario.iteration_blocks(), percent_override=50.0)
        stats = pipeline.comm.stats
        assert set(stats) == {"gather", "bcast", "alltoallv"}
        reported = sum(
            result.step_reports[step].payload_bytes
            for result in run.iterations
            for step in ("sorting", "redistribution")
        )
        assert reported > 0
        assert sum(entry["bytes"] for entry in stats.values()) == reported
        assert stats["alltoallv"]["bytes"] == sum(
            result.moved_bytes for result in run.iterations
        )


class TestIterationResult:
    def test_totals_and_imbalance(self):
        result = IterationResult(
            iteration=0,
            percent_reduced=10.0,
            nblocks=8,
            step_reports={
                "scoring": StepReport("scoring", modelled_per_rank=[1.0, 0.5]),
                "reduction": StepReport("reduction", counters={"nreduced": 1.0}),
                "redistribution": StepReport("redistribution", payload_bytes=64.0),
                "rendering": StepReport(
                    "rendering",
                    measured_per_rank=[0.1, 0.05],
                    modelled_per_rank=[4.0, 10.0],
                    per_rank_counters={"triangles": [10.0, 30.0]},
                ),
            },
        )
        assert result.nreduced == 1 and result.moved_bytes == 64.0
        assert result.triangles_per_rank == [10, 30]
        assert result.modelled_steps == {
            "scoring": 1.0, "reduction": 0.0, "redistribution": 0.0, "rendering": 10.0,
        }
        assert result.modelled_total == pytest.approx(11.0)
        assert result.modelled_rendering == pytest.approx(10.0)
        assert result.load_imbalance == pytest.approx(1.5)

    def test_empty_triangles_imbalance_one(self):
        result = IterationResult(iteration=0, percent_reduced=0, nblocks=0)
        assert result.nreduced == 0 and result.moved_bytes == 0.0
        assert result.load_imbalance == 1.0

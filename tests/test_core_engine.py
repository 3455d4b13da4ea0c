"""Tests for the ExecutionEngine, the step contract, and backend parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import ENGINE_BACKENDS, STEP_NAMES, engine_backends
from repro.core.config import AdaptationConfig, PipelineConfig
from repro.core.engine import ExecutionEngine
from repro.core.pipeline import InSituPipeline
from repro.core.reduction_step import ReductionStep, VectorizedReductionStep
from repro.core.rendering_step import RenderingStep, VectorizedRenderingStep
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import IterationContext, PipelineStep, StepReport
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel


class TestStepReport:
    def test_maxima(self):
        report = StepReport(
            step="scoring",
            measured_per_rank=[0.1, 0.3, 0.2],
            modelled_per_rank=[1.0, 4.0, 2.0],
        )
        assert report.modelled_max == pytest.approx(4.0)

    def test_empty_maxima(self):
        report = StepReport(step="x")
        assert report.modelled_max == 0.0

    def test_collective(self):
        report = StepReport.collective(
            "sorting", measured=0.5, modelled=2.5, payload_bytes=128.0
        )
        assert report.measured_per_rank == [0.5]
        assert report.modelled_max == pytest.approx(2.5)
        assert report.payload_bytes == pytest.approx(128.0)


class TestIterationContext:
    def test_requires_raise_before_steps(self):
        context = IterationContext(iteration=0, percent=0.0, per_rank_blocks=[[]])
        with pytest.raises(RuntimeError):
            context.require_pairs()
        with pytest.raises(RuntimeError):
            context.require_sorted_array()


class TestEngineConstruction:
    def test_invalid_backend(self):
        """The backend is the config's ``engine``, validated there once: the
        engine takes no second name to override it."""
        with pytest.raises(ValueError):
            PipelineConfig(engine="gpu")
        with pytest.raises(TypeError):
            ExecutionEngine(
                PipelineConfig(), PlatformModel.blue_waters(4), backend="gpu"
            )

    def test_invalid_engine_in_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(engine="banana")

    def test_backend_selects_scoring_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        par = ExecutionEngine(PipelineConfig(engine="parallel"), platform)
        assert type(serial.scoring) is ScoringStep
        assert type(vector.scoring) is VectorizedScoringStep
        # "parallel" is an alias of "vectorized" (kept for the benchmark's names).
        assert type(par.scoring) is VectorizedScoringStep
        assert serial.backend == "serial"
        assert vector.backend == "vectorized"
        assert par.backend == "parallel"

    def test_backend_selects_rendering_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        par = ExecutionEngine(PipelineConfig(engine="parallel"), platform)
        assert type(serial.rendering) is RenderingStep
        assert type(vector.rendering) is VectorizedRenderingStep
        assert type(par.rendering) is VectorizedRenderingStep

    def test_backend_selects_sorting_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        par = ExecutionEngine(PipelineConfig(engine="parallel"), platform)
        assert type(serial.sorting) is SortingStep
        # The sort is a rooted collective: vectorized and parallel share the
        # NumPy lexsort path.
        assert type(vector.sorting) is VectorizedSortingStep
        assert type(par.sorting) is VectorizedSortingStep

    def test_backend_selects_reduction_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        par = ExecutionEngine(PipelineConfig(engine="parallel"), platform)
        assert type(serial.reduction) is ReductionStep
        assert type(vector.reduction) is VectorizedReductionStep
        assert type(par.reduction) is VectorizedReductionStep
        # The step derives its modelled cost from the engine's platform.
        assert vector.reduction.platform is platform

    def test_steps_satisfy_protocol(self):
        engine = ExecutionEngine(PipelineConfig(), PlatformModel.blue_waters(4))
        assert [step.name for step in engine.steps] == list(STEP_NAMES)
        for step in engine.steps:
            assert isinstance(step, PipelineStep)

    def test_backends_constant(self):
        assert ENGINE_BACKENDS == ("serial", "vectorized", "parallel", "process")
        assert engine_backends() == ENGINE_BACKENDS

    def test_aliases_build_what_vectorized_builds(self):
        """``parallel`` and ``process`` are names, not implementations: both
        build exactly the step classes ``vectorized`` builds (and echo the
        requested name)."""
        platform = PlatformModel.blue_waters(4)

        def built(backend):
            engine = ExecutionEngine(PipelineConfig(engine=backend), platform)
            assert engine.backend == backend
            return [type(step) for step in engine.steps]

        assert built("parallel") == built("vectorized") == built("process")
        assert built("serial") != built("vectorized")

    @pytest.mark.parametrize("backend", ENGINE_BACKENDS)
    @pytest.mark.parametrize("via_pipeline", [False, True])
    def test_every_step_shares_the_engine_communicator(self, backend, via_pipeline):
        """One communicator per engine, built by the engine (there is no
        ``comm=`` to hand it one) and exposed as ``pipeline.comm``."""
        platform = PlatformModel.blue_waters(4)
        config = PipelineConfig(engine=backend)
        if via_pipeline:
            pipeline = InSituPipeline(config, platform)
            engine = pipeline.engine
            assert pipeline.comm is engine.comm
        else:
            engine = ExecutionEngine(config, platform)
        assert engine.comm.nranks == engine.nranks == 4
        bound = [step for step in engine.steps if hasattr(step, "comm")]
        assert {step.name for step in bound} == {"sorting", "redistribution"}
        assert all(step.comm is engine.comm for step in bound)


class TestEngineExecution:
    def test_run_iteration_reports(self, tiny_scenario):
        engine = ExecutionEngine(
            PipelineConfig(redistribution="round_robin"),
            tiny_scenario.platform,
            nranks=tiny_scenario.nranks,
        )
        context = engine.run_iteration(tiny_scenario.blocks_for(0), 50.0, 0)
        assert set(context.reports) == {
            "scoring",
            "sorting",
            "reduction",
            "redistribution",
            "rendering",
        }
        scoring = context.reports["scoring"]
        assert scoring.counters["nblocks"] == tiny_scenario.nblocks
        assert context.reports["reduction"].counters["nreduced"] > 0
        assert context.reports["redistribution"].payload_bytes > 0
        assert context.reports["sorting"].payload_bytes > 0
        assert len(context.reports["rendering"].per_rank_counters["triangles"]) == (
            tiny_scenario.nranks
        )
        result = engine.iteration_result(context)
        assert result.step_reports is context.reports or result.step_reports == context.reports
        assert result.moved_bytes == context.reports["redistribution"].payload_bytes

    def test_rank_count_validated(self, tiny_scenario):
        engine = ExecutionEngine(PipelineConfig(), tiny_scenario.platform, nranks=4)
        with pytest.raises(ValueError):
            engine.run_iteration([[]], 0.0, 0)

    def test_percent_validated(self, tiny_scenario):
        engine = ExecutionEngine(
            PipelineConfig(), tiny_scenario.platform, nranks=tiny_scenario.nranks
        )
        with pytest.raises(ValueError):
            engine.run_iteration(tiny_scenario.blocks_for(0), 120.0, 0)


@pytest.mark.parametrize("metric", ["VAR", "ITL", "TRILIN", "LEA", "FPZIP"])
@pytest.mark.parametrize("redistribution", ["none", "round_robin"])
class TestBackendParity:
    """All three backends must be indistinguishable downstream."""

    def _trace(self, scenario, metric, redistribution, engine):
        pipeline = scenario.build_pipeline(
            metric=metric,
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=5.0),
            engine=engine,
        )
        trace = []
        for i in range(4):
            result, _ = pipeline.process_iteration(scenario.blocks_for(i % 3))
            scoring = result.step_reports["scoring"]
            trace.append(
                (
                    result.percent_reduced,
                    result.nreduced,
                    result.moved_bytes,
                    tuple(result.triangles_per_rank),
                    result.modelled_total,
                    scoring.modelled_per_rank,
                )
            )
        return trace

    def test_identical_trajectories(self, tiny_scenario, metric, redistribution):
        serial = self._trace(tiny_scenario, metric, redistribution, "serial")
        vector = self._trace(tiny_scenario, metric, redistribution, "vectorized")
        par = self._trace(tiny_scenario, metric, redistribution, "parallel")
        assert serial == vector
        assert serial == par

    def test_identical_scores_and_ids(self, tiny_scenario, metric, redistribution):
        blocks = tiny_scenario.blocks_for(0)
        traces = {}
        for engine in ("serial", "vectorized", "parallel"):
            pipeline = tiny_scenario.build_pipeline(
                metric=metric, redistribution=redistribution, engine=engine
            )
            context = pipeline.engine.run_iteration(blocks, 25.0, 0)
            per_rank_blocks = context.columns.to_ranks()
            traces[engine] = (
                context.sorted_array.tobytes(),
                sorted(
                    block.block_id
                    for rank in per_rank_blocks
                    for block in rank
                    if block.level > 0
                ),
                [[(b.block_id, b.score) for b in rank] for rank in per_rank_blocks],
            )
        assert traces["serial"] == traces["vectorized"]
        assert traces["serial"] == traces["parallel"]


class Spiky(ScoreMetric):
    """A user-style scalar metric with no batch implementation that declares
    it holds the GIL (module-level, so the process fan-out can pickle it)."""

    name = "SPIKY"
    gil_bound = True

    def score_block(self, data):
        return float(np.abs(np.asarray(data)).max())


class TestParallelScoringStep:
    """The process fan-out's chunking must never perturb scores."""

    @pytest.fixture(autouse=True)
    def _several_chunks_per_group(self, monkeypatch, shm_leak_check):
        # 2 * 3 chunks per shape group, whatever the box's core count.
        monkeypatch.setattr("repro.grid.fanout.default_process_workers", lambda: 3)
        self.new_shm_segments = shm_leak_check()

    def _assert_step_matches_serial(self, metric, scenario, run_step):
        def pairs(step_class):
            step = step_class(metric, scenario.platform)
            wires = run_step(step, scenario.blocks_for(0))[0].pair_arrays
            return [wire.tobytes() for wire in wires]

        assert pairs(VectorizedScoringStep) == pairs(ScoringStep)
        assert self.new_shm_segments() == set()

    def test_scalar_metric_chunked_identically(
        self, tiny_scenario, scoring_fanout, run_step
    ):
        self._assert_step_matches_serial(Spiky(), tiny_scenario, run_step)
        assert scoring_fanout == [True]

    def test_batch_metric_chunked_identically(
        self, tiny_scenario, scoring_fanout, run_step
    ):
        from repro.metrics.registry import create_metric

        metric = create_metric("FPZIP")
        self._assert_step_matches_serial(metric, tiny_scenario, run_step)
        metric.gil_bound = True  # FPZIP reads False: force its chunked path
        self._assert_step_matches_serial(metric, tiny_scenario, run_step)
        assert scoring_fanout == [False, True]


class TestRenderingBackends:
    """What the batched rendering class does not do (the two classes' parity
    is the stage law of ``tests/test_columnar_state.py``)."""

    def test_rank_triangle_totals_summed_once(
        self, tiny_scenario, monkeypatch, run_step
    ):
        """``RenderResult.ntriangles`` re-sums an array on every read: the
        reference step reads it once per rank, the batched step reports one
        ``per_rank_sum`` of the array it already has and never reads it."""
        from repro.viz.catalyst import RenderResult

        reads = []
        total = RenderResult.ntriangles.fget
        monkeypatch.setattr(
            RenderResult,
            "ntriangles",
            property(lambda result: reads.append(result) or total(result)),
        )
        blocks = tiny_scenario.blocks_for(0)
        platform = tiny_scenario.platform
        _, reference = run_step(RenderingStep(platform), blocks)
        assert len(reads) == len(blocks)
        del reads[:]
        _, batched = run_step(VectorizedRenderingStep(platform), blocks)
        assert reads == []
        assert batched.per_rank_counters == reference.per_rank_counters
        assert batched.modelled_per_rank == reference.modelled_per_rank


def test_backends_identical_in_mesh_mode(tiny_scenario):
    """The backends also agree when rendering real marching-cubes geometry."""

    def trace(engine):
        pipeline = tiny_scenario.build_pipeline(
            metric="VAR",
            redistribution="round_robin",
            render_mode="mesh",
            engine=engine,
        )
        result, renders = pipeline.process_iteration(
            tiny_scenario.blocks_for(0), percent_override=50.0
        )
        return (
            tuple(result.triangles_per_rank),
            result.modelled_total,
            tuple(r.block_cells.tolist() for r in renders),
        )

    serial = trace("serial")
    assert trace("vectorized") == serial
    assert trace("parallel") == serial


class TestMonitorStepReportQueries:
    """Per-step series read off the results ``process_iteration`` returns."""

    def test_payload_and_counter_series(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        results = [
            pipeline.process_iteration(tiny_scenario.blocks_for(i), percent_override=50.0)[0]
            for i in range(2)
        ]
        reports = [result.step_reports for result in results]
        moved = [r["redistribution"].payload_bytes for r in reports]
        assert len(moved) == 2 and all(m > 0 for m in moved)
        assert moved == [result.moved_bytes for result in results]
        reduced = [r["reduction"].counters["nreduced"] for r in reports]
        assert all(r > 0 for r in reduced)
        assert all(tuple(r) == STEP_NAMES for r in reports)

    def test_config_summary_reports_engine(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(engine="serial")
        assert pipeline.config_summary()["engine"] == "serial"

    def test_monitor_accepts_custom_recorded_steps(self):
        """A step a custom engine recorded is first-class in the run record:
        every query reads whatever reports an iteration carries."""
        from repro.core.results import IterationResult, PipelineRunResult

        report = StepReport(
            step="warp",
            measured_per_rank=[0.1],
            modelled_per_rank=[1.5],
            payload_bytes=64.0,
            counters={"jumps": 2.0},
        )
        result = IterationResult(
            iteration=0, percent_reduced=0.0, nblocks=1, step_reports={"warp": report}
        )
        assert result.modelled_steps == {"warp": 1.5}
        assert result.step_reports["warp"].measured_per_rank == [0.1]
        assert result.modelled_total == 1.5 and result.moved_bytes == 0.0
        run = PipelineRunResult({}, [result])
        assert [r.modelled_total for r in run.iterations] == [1.5]
        assert run.summary()["rendering_mean"] == 0.0

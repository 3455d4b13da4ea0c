"""Tests of the experiment drivers at unit-test scale.

The benchmarks regenerate the paper's tables and figures at their full
(laptop) scale; these tests exercise the same drivers on tiny scenarios so
the shapes and invariants are checked quickly on every test run.
"""

from __future__ import annotations

import importlib.util
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.fig1_renderings import run_fig1
from repro.experiments.fig3_metric_agreement import format_fig3, run_fig3
from repro.experiments.fig4_scoremaps import format_fig4, run_fig4
from repro.experiments.fig5_redistribution import format_fig5, run_fig5
from repro.experiments.fig6_7_reduction import format_fig6, format_fig7, run_reduction_sweep
from repro.experiments.fig8_comm import format_fig8, run_comm_sweep
from repro.experiments.fig9_combined import format_fig9, run_combined_sweep
from repro.experiments.fig10_adaptation import format_fig10, run_adaptation
from repro.experiments.fig11_full_pipeline import run_full_pipeline_adaptation
from repro.experiments.table1_metric_cost import format_table, run_table1
from repro.scenarios import ExperimentScenario, ScenarioConfig
from repro.scenarios.scenario import render_baseline_seconds


@pytest.fixture(scope="module")
def scenario():
    """A 16-rank scenario small enough for driver tests."""
    return ExperimentScenario(
        ScenarioConfig(ncores=16, shape=(88, 88, 24), blocks_per_subdomain=(2, 2, 2), nsnapshots=4)
    )


def _benchmarks_conftest():
    """``benchmarks/conftest.py``, loaded by path (neither directory is a
    package): ``bench_scale`` lives there, beside its one user."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScenario:
    def test_bench_scale_default(self, monkeypatch):
        bench_scale = _benchmarks_conftest().bench_scale
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "small"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale() == "full"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            bench_scale()

    def test_render_baseline(self):
        assert render_baseline_seconds(64) == 160.0
        assert render_baseline_seconds(400) == 50.0
        assert render_baseline_seconds(32) == pytest.approx(320.0)

    def test_calibration_anchors_baseline(self, scenario):
        pipeline = scenario.build_pipeline(metric="VAR", redistribution="none")
        result, _ = pipeline.process_iteration(scenario.blocks_for(0), percent_override=0.0)
        target = render_baseline_seconds(scenario.nranks)
        assert result.modelled_rendering == pytest.approx(target, rel=0.01)

    def test_blocks_cached(self, scenario):
        a = scenario.blocks_for(0)
        b = scenario.blocks_for(0)
        assert a is b

    def test_threads_decomposing_one_snapshot_share_one_arrival(self):
        """Fails if ``blocks_for`` checks the cache and then overwrites it:
        the threads, all inside the decomposition at once and leaving it one
        after another, would each return their own copy."""
        scenario = ExperimentScenario.tiny(nranks=4, nsnapshots=2)
        threads = 4
        barrier = threading.Barrier(threads, timeout=60)
        per_rank_blocks = scenario.dataset.per_rank_blocks

        def together(decomposition, index, field_name):
            arrival = per_rank_blocks(decomposition, index, field_name)
            time.sleep(0.01 * barrier.wait())  # leave in a fixed order
            return arrival

        scenario.dataset.per_rank_blocks = together
        with ThreadPoolExecutor(max_workers=threads) as pool:
            arrivals = list(pool.map(lambda _: scenario.blocks_for(1), range(threads)))
        assert all(arrival is scenario.blocks_for(1) for arrival in arrivals)

    def test_iteration_blocks_count(self, scenario):
        assert len(scenario.iteration_blocks(2)) == 2

    def test_streamed_blocks_are_decomposed_as_the_run_advances(self):
        """A run fed the generator form reports iteration ``i`` before snapshot
        ``i + 1`` is read; the list form is the same arrivals, all up front."""
        scenario = ExperimentScenario.tiny(nranks=4, nsnapshots=3)
        decomposed = []
        per_rank_blocks = scenario.dataset.per_rank_blocks

        def recording(decomposition, index, field_name):
            decomposed.append(index)
            return per_rank_blocks(decomposition, index, field_name)

        scenario.dataset.per_rank_blocks = recording
        seen = []
        run = scenario.build_pipeline().run(
            scenario.stream_iteration_blocks(),
            percent_override=50.0,
            on_iteration=lambda result: seen.append((result.iteration, list(decomposed))),
        )
        # Snapshot 0 was decomposed (and cached) by the calibration.
        assert seen == [(0, []), (1, [1]), (2, [1, 2])]
        blocks = scenario.iteration_blocks()
        assert decomposed == [1, 2]
        assert all(b is scenario.blocks_for(i) for i, b in enumerate(blocks))
        again = scenario.build_pipeline().run(blocks, percent_override=50.0)
        assert again.summary() == run.summary()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ScenarioConfig(ncores=0)
        with pytest.raises(ValueError):
            ScenarioConfig(nsnapshots=0)


class TestTable1:
    def test_rows_and_format(self, scenario):
        rows = run_table1(scenario, metrics=("VAR", "LEA", "RANGE"), max_blocks=16)
        assert [r.metric for r in rows] == ["VAR", "LEA", "RANGE"]
        for row in rows:
            assert row.measured_seconds >= 0
            assert row.modelled_seconds_64 > 0
            assert row.modelled_seconds_400 < row.modelled_seconds_64
        text = format_table(rows)
        assert "VAR" in text and "Table I" in text

    def test_modelled_matches_paper_within_tolerance(self, scenario):
        rows = run_table1(scenario, metrics=("VAR", "LEA", "ITL", "TRILIN"), max_blocks=4)
        for row in rows:
            assert row.modelled_seconds_64 == pytest.approx(row.paper_seconds_64, rel=0.2)
            assert row.modelled_seconds_400 == pytest.approx(row.paper_seconds_400, rel=0.2)


class TestFig1:
    def test_images_and_cost_gap(self, scenario, tmp_path):
        result = run_fig1(scenario)
        assert result.volume_original.shape == result.volume_filtered.shape
        assert result.colormap_original.shape == scenario.config.shape[:2]
        # Filtering (reducing every block) must slash the rendering cost.
        assert result.render_seconds_filtered < 0.2 * result.render_seconds_original
        # The filtered image still shows the storm (non-trivial content).
        assert result.volume_filtered.max() > 0.2
        paths = result.save(tmp_path)
        assert len(paths) == 4 and all(p.exists() for p in paths.values())


class TestFig3:
    def test_pairs_and_quiet_prefix(self, scenario):
        result = run_fig3(scenario, metrics=("VAR", "RANGE", "LEA", "TRILIN"), max_blocks=96)
        assert len(result.comparisons) == 6  # C(4,2)
        for comp in result.comparisons:
            assert -1.0 <= comp.spearman <= 1.0
        # Metrics broadly agree on ordering (positive rank correlation).
        var_range = result.pair("VAR", "RANGE")
        assert var_range.spearman > 0.3
        assert "Figure 3" in format_fig3(result)

    def test_quiet_blocks_exist(self, scenario):
        result = run_fig3(scenario, metrics=("VAR", "RANGE"), max_blocks=96)
        assert all(q >= 1 for q in result.quiet_prefix_size.values())


class TestFig4:
    def test_scoremaps_overlap_storm(self, scenario):
        result = run_fig4(scenario, metrics=("VAR", "TRILIN", "LEA"))
        assert set(result.scoremaps) == {"VAR", "TRILIN", "LEA"}
        for name, overlap in result.storm_overlap.items():
            assert 0.0 <= overlap <= 1.0
        # Every metric scores the storm's footprint higher, on average, than
        # the quiet background (the paper's scoremaps show the same contrast).
        field = np.asarray(scenario.dataset.snapshot(0).get_field("dbz"))
        storm_cols = field.max(axis=2) > 0.0
        for name in ("VAR", "TRILIN", "LEA"):
            norm = result.scoremaps[name].normalised()
            assert norm[storm_cols].mean() > norm[~storm_cols].mean()
        assert "Figure 4" in format_fig4(result)


class TestFig5:
    def test_redistribution_speedup(self, scenario):
        result = run_fig5(scenario, niterations=2, fast_metric_only=True)
        assert result.row("NONE").mean_seconds == pytest.approx(
            render_baseline_seconds(scenario.nranks), rel=0.3
        )
        assert result.speedup("SHUFFLE") > 1.2
        assert result.speedup("VAR") > 1.2
        assert "Figure 5" in format_fig5(result)

    def test_rows_accessible(self, scenario):
        result = run_fig5(scenario, niterations=1, fast_metric_only=True)
        with pytest.raises(KeyError):
            result.row("MISSING")


class TestReductionSweeps:
    def test_fig7_monotone_decrease(self, scenario):
        result = run_reduction_sweep(scenario, percentages=(0, 50, 90, 100), niterations=2)
        means = result.means()
        assert means[0] == max(means)
        assert means[-1] == min(means)
        assert means[-1] < 0.1 * means[0]
        assert "Figure 7" in format_fig7(result)
        assert "Figure 6" in format_fig6(result)

    def test_fig7_flat_then_steep(self, scenario):
        """The paper: most of the benefit only appears at high percentages."""
        result = run_reduction_sweep(scenario, percentages=(0, 50, 100), niterations=2)
        drop_first_half = result.mean(0) - result.mean(50)
        drop_second_half = result.mean(50) - result.mean(100)
        assert drop_second_half > drop_first_half

    def test_fig8_comm_decreases_with_percent(self, scenario):
        result = run_comm_sweep(
            scenario, percentages=(0, 50, 100), niterations=2, strategies=("round_robin", "shuffle")
        )
        for strategy in ("round_robin", "shuffle"):
            means = result.means(strategy)
            assert means[0] > means[-1]
        assert "Figure 8" in format_fig8(result)

    def test_fig9_redistribution_helps_at_every_percent(self, scenario):
        result = run_combined_sweep(
            scenario, percentages=(0, 90, 100), niterations=2, strategies=("none", "round_robin")
        )
        for percent in (0, 90):
            assert result.mean("round_robin", percent) <= result.mean("none", percent) * 1.05
        assert "Figure 9" in format_fig9(result)


class TestAdaptationFigures:
    def test_fig10_converges(self, scenario):
        baseline = render_baseline_seconds(scenario.nranks)
        targets = (baseline / 4.0,)
        result = run_adaptation(scenario, targets=targets, niterations=12)
        trace = result.traces[targets[0]]
        assert len(trace.times) == 12
        assert trace.converged(warmup=5, tolerance=0.6)
        # Percentages respond (some data is sacrificed to meet the budget).
        assert max(trace.percents) > 10.0
        assert "target" in format_fig10(result)

    def test_fig11_tighter_target_with_redistribution(self, scenario):
        baseline = render_baseline_seconds(scenario.nranks)
        targets = (baseline / 10.0,)
        result = run_full_pipeline_adaptation(scenario, targets=targets, niterations=12)
        trace = result.traces[targets[0]]
        assert result.redistribution == "round_robin"
        tail = np.asarray(trace.times[6:])
        assert np.median(tail) <= 2.5 * targets[0]

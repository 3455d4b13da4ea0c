"""Tests of the experiment drivers at unit-test scale.

``benchmarks/test_ledger.py`` checks the paper's numbers on the paper's
64- and 400-core scenarios; these tests exercise the same drivers on a
16-rank scenario so the shapes and invariants are checked quickly on every
test run.  The fixed-percent sweep and the adaptive run are held to the
drivers they replaced, kept verbatim below as oracles: on that scenario every
series must be ``==`` theirs.
"""

from __future__ import annotations

import importlib.util
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.core.backends import STEP_NAMES
from repro.core.config import AdaptationConfig
from repro.experiments.fig1_renderings import run_fig1
from repro.experiments.runs import (
    PAPER_TARGETS,
    adaptive_run,
    fixed_percent_sweep,
    settling_error,
)
from repro.experiments.table1_metric_cost import format_table, run_table1
from repro.metrics.registry import PAPER_METRICS
from repro.scenarios import ExperimentScenario, ScenarioConfig, create_scenario_config
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


# -- the replaced drivers (Figs. 5, 6/7, 8, 9, 10 and 11), verbatim -------------
# Their result records keep only the fields the drivers fill.

PAPER_FIG10_TARGETS = {n: t for (d, n), t in PAPER_TARGETS.items() if d == "none"}
PAPER_FIG11_TARGETS = {n: t for (d, n), t in PAPER_TARGETS.items() if d == "round_robin"}


@dataclass
class Fig5Row:
    label: str
    mean_seconds: float
    min_seconds: float
    max_seconds: float
    mean_comm_seconds: float


@dataclass
class Fig5Result:
    ncores: int
    rows: List[Fig5Row]


@dataclass
class ReductionSweepResult:
    ncores: int
    percentages: List[float]
    series: Dict[float, List[float]] = field(default_factory=dict)


@dataclass
class CommSweepResult:
    ncores: int
    percentages: List[float]
    series: Dict[str, Dict[float, List[float]]] = field(default_factory=dict)


@dataclass
class CombinedSweepResult:
    ncores: int
    sweeps: Dict[str, ReductionSweepResult] = field(default_factory=dict)


@dataclass
class AdaptationTrace:
    target_seconds: float
    times: List[float] = field(default_factory=list)
    percents: List[float] = field(default_factory=list)


@dataclass
class Fig10Result:
    ncores: int
    redistribution: str
    traces: Dict[float, AdaptationTrace] = field(default_factory=dict)


def run_fig5(
    scenario: Optional[ExperimentScenario] = None,
    niterations: int = 10,
    metrics: Sequence[str] = PAPER_METRICS,
    fast_metric_only: bool = False,
) -> Fig5Result:
    """Reproduce Figure 5 for one scenario.

    Parameters
    ----------
    niterations:
        Number of equally spaced iterations to process per configuration
        (the paper uses 10).
    fast_metric_only:
        When True only the VAR-driven round-robin is run in addition to NONE
        and SHUFFLE (used by the small benchmark scale to bound run time).
    """
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=max(niterations, 1))
    )
    iteration_blocks = scenario.iteration_blocks(niterations)
    rows: List[Fig5Row] = []

    def run_config(label: str, metric: str, redistribution: str) -> Fig5Row:
        pipeline = scenario.build_pipeline(metric=metric, redistribution=redistribution)
        render_times = []
        comm_times = []
        for blocks in iteration_blocks:
            result, _ = pipeline.process_iteration(blocks, percent_override=0.0)
            render_times.append(result.modelled_rendering)
            comm_times.append(result.modelled_steps["redistribution"])
        return Fig5Row(
            label=label,
            mean_seconds=float(np.mean(render_times)),
            min_seconds=float(np.min(render_times)),
            max_seconds=float(np.max(render_times)),
            mean_comm_seconds=float(np.mean(comm_times)),
        )

    rows.append(run_config("NONE", "VAR", "none"))
    rows.append(run_config("SHUFFLE", "VAR", "shuffle"))
    selected = ("VAR",) if fast_metric_only else tuple(metrics)
    for name in selected:
        rows.append(run_config(name, name, "round_robin"))
    return Fig5Result(ncores=scenario.nranks, rows=rows)


def run_reduction_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 90, 94, 98, 100),
    niterations: int = 10,
    metric: str = "VAR",
    redistribution: str = "none",
) -> ReductionSweepResult:
    """Run the pipeline at each fixed percentage (Figures 6, 7 and 9)."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=max(niterations, 1))
    )
    iteration_blocks = scenario.iteration_blocks(niterations)
    result = ReductionSweepResult(
        ncores=scenario.nranks, percentages=[float(p) for p in percentages]
    )
    for percent in result.percentages:
        pipeline = scenario.build_pipeline(metric=metric, redistribution=redistribution)
        times = []
        for blocks in iteration_blocks:
            iteration_result, _ = pipeline.process_iteration(
                blocks, percent_override=percent
            )
            times.append(iteration_result.modelled_rendering)
        result.series[percent] = times
    return result


def run_comm_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 100),
    niterations: int = 10,
    metric: str = "LEA",
    strategies: Sequence[str] = ("round_robin", "shuffle"),
) -> CommSweepResult:
    """Reproduce Figure 8 (the paper uses the LEA metric for this experiment)."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=max(niterations, 1))
    )
    iteration_blocks = scenario.iteration_blocks(niterations)
    result = CommSweepResult(
        ncores=scenario.nranks, percentages=[float(p) for p in percentages]
    )
    for strategy in strategies:
        result.series[strategy] = {}
        for percent in result.percentages:
            pipeline = scenario.build_pipeline(metric=metric, redistribution=strategy)
            times = []
            for blocks in iteration_blocks:
                iteration_result, _ = pipeline.process_iteration(
                    blocks, percent_override=percent
                )
                times.append(iteration_result.modelled_steps["redistribution"])
            result.series[strategy][percent] = times
    return result


def run_combined_sweep(
    scenario: Optional[ExperimentScenario] = None,
    percentages: Sequence[float] = (0, 20, 40, 60, 80, 90, 98, 100),
    niterations: int = 10,
    metric: str = "VAR",
    strategies: Sequence[str] = ("none", "round_robin", "shuffle"),
) -> CombinedSweepResult:
    """Reproduce Figure 9."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=max(niterations, 1))
    )
    result = CombinedSweepResult(ncores=scenario.nranks)
    for strategy in strategies:
        result.sweeps[strategy] = run_reduction_sweep(
            scenario,
            percentages=percentages,
            niterations=niterations,
            metric=metric,
            redistribution=strategy,
        )
    return result


def run_adaptation(
    scenario: Optional[ExperimentScenario] = None,
    targets: Optional[Sequence[float]] = None,
    niterations: int = 30,
    metric: str = "VAR",
    redistribution: str = "none",
) -> Fig10Result:
    """Reproduce Figure 10 (or Figure 11 when ``redistribution`` is enabled)."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=10)
    )
    if targets is None:
        targets = PAPER_FIG10_TARGETS.get(scenario.nranks, (60.0, 20.0))
    # The paper replays 30 iterations; cycle over the available snapshots.
    snapshots = scenario.dataset.select(min(niterations, len(scenario.dataset)))
    result = Fig10Result(ncores=scenario.nranks, redistribution=redistribution)
    for target in targets:
        pipeline = scenario.build_pipeline(
            metric=metric,
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=float(target)),
        )
        trace = AdaptationTrace(target_seconds=float(target))
        for i in range(niterations):
            snapshot_index = snapshots[i % len(snapshots)]
            blocks = scenario.blocks_for(snapshot_index)
            iteration_result, _ = pipeline.process_iteration(blocks)
            trace.times.append(iteration_result.modelled_total)
            trace.percents.append(iteration_result.percent_reduced)
        result.traces[float(target)] = trace
    return result


def run_full_pipeline_adaptation(
    scenario: Optional[ExperimentScenario] = None,
    targets: Optional[Sequence[float]] = None,
    niterations: int = 30,
    metric: str = "VAR",
    redistribution: str = "round_robin",
) -> Fig10Result:
    """Reproduce Figure 11."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=10)
    )
    if targets is None:
        targets = PAPER_FIG11_TARGETS.get(scenario.nranks, (25.0, 10.0))
    return run_adaptation(
        scenario,
        targets=targets,
        niterations=niterations,
        metric=metric,
        redistribution=redistribution,
    )


class TestOracleLaw:
    """Fails if the sweep or the adaptive run differs, in any series, from the
    drivers it replaced — e.g. a sweep that stores ``modelled_rendering`` in
    the redistribution column."""

    PERCENTS = (0, 50, 100)

    def test_sweep_equals_the_replaced_drivers(self, scenario):
        pairs = [("VAR", "none"), ("VAR", "shuffle"), ("LEA", "shuffle")]
        pairs += [(metric, "round_robin") for metric in PAPER_METRICS]
        runs = [(f"{metric}/{policy}", metric, policy) for metric, policy in pairs]
        labels, seconds = fixed_percent_sweep(scenario, runs, self.PERCENTS, 2)

        def series(metric, policy, percent, step):
            run = labels.index(f"{metric}/{policy}")
            return seconds[run, self.PERCENTS.index(percent), :, STEP_NAMES.index(step)].tolist()

        def by_percent(metric, policy, step):
            return {p: series(metric, policy, p, step) for p in self.PERCENTS}

        for row in run_fig5(scenario, niterations=2).rows:
            metric, policy = {"NONE": ("VAR", "none"), "SHUFFLE": ("VAR", "shuffle")}.get(
                row.label, (row.label, "round_robin")
            )
            render = series(metric, policy, 0, "rendering")
            comm = series(metric, policy, 0, "redistribution")
            assert row == Fig5Row(
                row.label,
                float(np.mean(render)),
                float(np.min(render)),
                float(np.max(render)),
                float(np.mean(comm)),
            )
        reduction = run_reduction_sweep(scenario, percentages=self.PERCENTS, niterations=2)
        assert reduction.series == by_percent("VAR", "none", "rendering")
        comm = run_comm_sweep(scenario, percentages=self.PERCENTS, niterations=2)
        for policy, sweep in comm.series.items():
            assert sweep == by_percent("LEA", policy, "redistribution")
        combined = run_combined_sweep(scenario, percentages=self.PERCENTS, niterations=2)
        for policy, sweep in combined.sweeps.items():
            assert sweep.series == by_percent("VAR", policy, "rendering")

    def test_adaptive_run_equals_the_replaced_drivers(self, scenario):
        baseline = render_baseline_seconds(scenario.nranks)
        for oracle, policy, targets in (
            (run_adaptation, "none", (baseline / 4.0, baseline / 8.0)),
            (run_full_pipeline_adaptation, "round_robin", (baseline / 10.0,)),
        ):
            expected = oracle(scenario, targets=targets, niterations=12)
            seconds, percents = adaptive_run(scenario, targets, 12, redistribution=policy)
            assert seconds.tolist() == [t.times for t in expected.traces.values()]
            assert percents.tolist() == [t.percents for t in expected.traces.values()]


FIG5_RUNS = (("NONE", "VAR", "none"), ("SHUFFLE", "VAR", "shuffle"), ("VAR", "VAR", "round_robin"))


def _means(seconds, step="rendering"):
    """Mean over the iterations of one step: ``[run, percent]``."""
    return seconds[..., STEP_NAMES.index(step)].mean(axis=-1)


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
        scenario = ExperimentScenario(create_scenario_config("tiny"))
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
        scenario = ExperimentScenario(create_scenario_config("tiny", nsnapshots=3))
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


class TestFig5:
    def test_redistribution_speedup(self, scenario):
        _, seconds = fixed_percent_sweep(scenario, FIG5_RUNS, (0,), 2)
        none, shuffle, var = _means(seconds)[:, 0]
        assert none == pytest.approx(render_baseline_seconds(scenario.nranks), rel=0.3)
        assert none / shuffle > 1.2
        assert none / var > 1.2

    def test_rows_accessible(self, scenario):
        labels, seconds = fixed_percent_sweep(scenario, FIG5_RUNS, (0, 100), 1)
        assert labels == ["NONE", "SHUFFLE", "VAR"]
        assert seconds.shape == (3, 2, 1, len(STEP_NAMES)) and seconds.dtype == np.float64
        assert np.all(seconds[0, :, :, STEP_NAMES.index("redistribution")] == 0.0)
        render = STEP_NAMES.index("rendering")
        assert np.all(seconds[:, 1, :, render] < seconds[:, 0, :, render])


class TestReductionSweeps:
    def test_fig7_monotone_decrease(self, scenario):
        _, seconds = fixed_percent_sweep(scenario, FIG5_RUNS[:1], (0, 50, 90, 100), 2)
        means = list(_means(seconds)[0])
        assert means[0] == max(means)
        assert means[-1] == min(means)
        assert means[-1] < 0.1 * means[0]

    def test_fig7_flat_then_steep(self, scenario):
        """The paper: most of the benefit only appears at high percentages."""
        _, seconds = fixed_percent_sweep(scenario, FIG5_RUNS[:1], (0, 50, 100), 2)
        at_0, at_50, at_100 = _means(seconds)[0]
        drop_first_half = at_0 - at_50
        drop_second_half = at_50 - at_100
        assert drop_second_half > drop_first_half

    def test_fig8_comm_decreases_with_percent(self, scenario):
        runs = (("round_robin", "LEA", "round_robin"), ("shuffle", "LEA", "shuffle"))
        _, seconds = fixed_percent_sweep(scenario, runs, (0, 50, 100), 2)
        for means in _means(seconds, "redistribution"):
            assert means[0] > means[-1]

    def test_fig9_redistribution_helps_at_every_percent(self, scenario):
        runs = (FIG5_RUNS[0], FIG5_RUNS[2])
        _, seconds = fixed_percent_sweep(scenario, runs, (0, 90, 100), 2)
        none, round_robin = _means(seconds)
        for p in (0, 1):
            assert round_robin[p] <= none[p] * 1.05


class TestAdaptationFigures:
    def test_fig10_converges(self, scenario):
        baseline = render_baseline_seconds(scenario.nranks)
        targets = (baseline / 4.0,)
        seconds, percents = adaptive_run(scenario, targets, niterations=12)
        assert seconds.shape == (1, 12)
        assert settling_error(seconds[0], targets[0], warmup=5) <= 0.6
        # Percentages respond (some data is sacrificed to meet the budget).
        assert percents[0].max() > 10.0

    def test_fig11_tighter_target_with_redistribution(self, scenario):
        baseline = render_baseline_seconds(scenario.nranks)
        targets = (baseline / 10.0,)
        seconds, _ = adaptive_run(
            scenario, targets, niterations=12, redistribution="round_robin"
        )
        assert np.median(seconds[0, 6:]) <= 2.5 * targets[0]

"""Tests of the scenario subsystem: registry, storm families, parity sweep.

The centrepiece is the registry-driven cross-backend parity sweep: it
parameterises over *every* registered scenario (``scenario_names()``), so a
newly registered workload automatically gets parity coverage on every
registered backend (``engine_backends()``) at tiny scale without anyone
writing a test for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cm1 import (
    CM1Config,
    CM1Simulation,
    DecayingStorm,
    DecayingStormConfig,
    MultiCellConfig,
    MultiCellStorm,
    SquallLineConfig,
    SquallLineStorm,
    SupercellStorm,
    TurbulenceFieldConfig,
    TurbulenceFieldStorm,
    make_storm,
)
from repro.core.backends import engine_backends
from repro.grid.block import Block, BlockExtent
from repro.metrics.base import MetricCost, ScoreMetric
from repro.metrics.registry import default_registry
from repro.perfmodel.calibration import PAPER_BASELINES, calibrate_render_model
from repro.perfmodel.platform import PlatformModel
from repro.scenarios import (
    ExperimentScenario,
    ScenarioConfig,
    create_scenario_config,
    get_scenario,
    model_scaling_point,
    model_scaling_sweep,
    register_scenario,
    scaling_variants,
    scenario_names,
    scenario_specs,
)
from repro.scenarios.registry import _REGISTRY
from repro.scenarios.scenario import cached_scenario, render_baseline_seconds
from repro.viz.catalyst import IsosurfaceScript

#: Every engine name ``PipelineConfig`` accepts; the first is the per-block oracle.
BACKENDS = engine_backends()

#: The four storm families this PR introduces, all required to be registered.
NEW_FAMILIES = ("squall_line", "multicell_cluster", "turbulence_field", "decaying_storm")

_TINY_CACHE = {}


def tiny_scenario(name: str) -> ExperimentScenario:
    """Tiny-scale ExperimentScenario of a registered workload (cached)."""
    if name not in _TINY_CACHE:
        _TINY_CACHE[name] = ExperimentScenario(get_scenario(name).tiny())
    return _TINY_CACHE[name]


class TestRegistry:
    def test_catalogue_size_and_contents(self):
        names = scenario_names()
        assert len(names) >= 7
        for required in ("blue_waters_64", "blue_waters_400", "tiny") + NEW_FAMILIES:
            assert required in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="blue_waters_64"):
            get_scenario("definitely_not_registered")

    def test_specs_carry_metadata(self):
        for spec in scenario_specs():
            assert spec.name
            assert spec.description
            assert spec.default_ranks >= 1
            assert spec.default_snapshots >= 1

    def test_build_applies_overrides_and_stamps_name(self):
        config = create_scenario_config("squall_line", ncores=4, nsnapshots=3, seed=7)
        assert config.ncores == 4
        assert config.nsnapshots == 3
        assert config.seed == 7
        assert config.name == "squall_line"
        # None overrides are ignored (CLI arguments forward directly).
        default = create_scenario_config("squall_line", ncores=None)
        assert default.ncores == get_scenario("squall_line").default_ranks

    def test_register_decorator_and_overwrite(self):
        @register_scenario("pytest_tmp_scenario", description="x", tags=("tmp",))
        def _factory(**overrides):
            return ScenarioConfig(ncores=2, shape=(44, 44, 12), **overrides)

        try:
            assert "pytest_tmp_scenario" in scenario_names()
            assert create_scenario_config("pytest_tmp_scenario").ncores == 2
            # Re-registration overwrites (the documented extension contract).
            register_scenario(
                "pytest_tmp_scenario",
                lambda **o: ScenarioConfig(ncores=3, shape=(44, 44, 12), **o),
            )
            assert create_scenario_config("pytest_tmp_scenario").ncores == 3
        finally:
            _REGISTRY.pop("pytest_tmp_scenario", None)

    def test_classic_constructors_resolve_through_registry(self):
        assert create_scenario_config("blue_waters_64", nsnapshots=3).name == "blue_waters_64"
        assert create_scenario_config("blue_waters_400").ncores == 400
        tiny = ExperimentScenario.tiny(nranks=2, nsnapshots=1).config
        assert (tiny.ncores, tiny.nsnapshots, tiny.name) == (2, 1, "tiny")
        assert ExperimentScenario.from_name("tiny", nsnapshots=1).config.name == "tiny"


class TestStormFamilies:
    def test_make_storm_dispatch(self):
        assert type(make_storm(SquallLineConfig())) is SquallLineStorm
        assert type(make_storm(MultiCellConfig())) is MultiCellStorm
        assert type(make_storm(TurbulenceFieldConfig())) is TurbulenceFieldStorm
        assert type(make_storm(DecayingStormConfig())) is DecayingStorm
        assert type(make_storm(SquallLineConfig().__class__())) is SquallLineStorm
        from repro.cm1.config import StormConfig

        assert type(make_storm(StormConfig())) is SupercellStorm

    def test_families_produce_distinct_fields(self):
        fields = {}
        for name in ("tiny",) + NEW_FAMILIES:
            storm = tiny_scenario(name).config.storm
            sim = CM1Simulation(
                CM1Config(
                    shape=(44, 44, 12), **({} if storm is None else {"storm": storm})
                )
            )
            fields[name] = np.asarray(sim.snapshot(0).get_field("dbz"))
        names = list(fields)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not np.array_equal(fields[a], fields[b]), (a, b)

    def test_squall_line_is_elongated(self):
        storm = make_storm(SquallLineConfig())
        x = np.linspace(0, 1, 60)
        xn, yn, zn = np.meshgrid(x, x, np.linspace(0, 1, 12), indexing="ij")
        # The reflectivity band (core envelope) is the defining structure;
        # the trailing stratiform anvil legitimately widens the full mask.
        core = storm.envelopes(xn, yn, zn, iteration=5)["core"]
        cols = (core > 0.15).any(axis=2)
        ii, jj = np.nonzero(cols)
        # Principal-axis anisotropy: an elongated band has one dominant
        # eigenvalue in its horizontal covariance.
        coords = np.stack([ii, jj]).astype(float)
        cov = np.cov(coords)
        evals = np.sort(np.linalg.eigvalsh(cov))
        assert evals[1] > 4.0 * max(evals[0], 1e-9)

    def test_multicell_placement_deterministic_and_seeded(self):
        a = MultiCellStorm(MultiCellConfig(placement_seed=7))
        b = MultiCellStorm(MultiCellConfig(placement_seed=7))
        c = MultiCellStorm(MultiCellConfig(placement_seed=8))
        centers = lambda storm: [cell.config.initial_center for cell in storm._cells]
        assert centers(a) == centers(b)
        assert centers(a) != centers(c)

    def test_turbulence_field_scores_near_uniform(self):
        scenario = tiny_scenario("turbulence_field")
        pipeline = scenario.build_pipeline(metric="VAR")
        context = pipeline.engine.run_iteration(scenario.blocks_for(0), 0.0, 0)
        scores = np.array(
            [score for pairs in context.per_rank_pairs for (_, score) in pairs]
        )
        assert scores.min() > 0
        # Near-uniform: far tighter spread than the supercell workload.
        cv_turb = scores.std() / scores.mean()
        supercell = tiny_scenario("tiny")
        ctx2 = supercell.build_pipeline(metric="VAR").engine.run_iteration(
            supercell.blocks_for(0), 0.0, 0
        )
        s2 = np.array([s for pairs in ctx2.per_rank_pairs for (_, s) in pairs])
        cv_storm = s2.std() / s2.mean()
        assert cv_turb < 0.5 * cv_storm

    def test_decaying_storm_load_falls_over_snapshots(self):
        scenario = tiny_scenario("decaying_storm")
        config = scenario.config
        sim = CM1Simulation(
            CM1Config(shape=config.shape, seed=config.seed, storm=config.storm)
        )
        early = (np.asarray(sim.snapshot(0).get_field("dbz")) > 45.0).sum()
        late = (np.asarray(sim.snapshot(8).get_field("dbz")) > 45.0).sum()
        assert early > 0
        assert late < 0.6 * early


def _iteration_observables(
    scenario: ExperimentScenario,
    backend: str,
    quality_ladder=None,
    metric="VAR",
    render_mode="count",
):
    """Decision-bearing outputs of one 50%-reduction iteration."""
    pipeline = scenario.build_pipeline(
        metric=metric,
        redistribution="round_robin",
        engine=backend,
        quality_ladder=quality_ladder,
        render_mode=render_mode,
    )
    context = pipeline.engine.run_iteration(
        scenario.blocks_for(0), percent=50.0, iteration=0
    )
    owners = {
        block.block_id: block.owner
        for blocks in context.per_rank_blocks
        for block in blocks
    }
    reports = {
        name: (
            report.modelled_per_rank,
            report.payload_bytes,
            report.counters,
            report.per_rank_counters,
        )
        for name, report in context.reports.items()
    }
    return context.per_rank_pairs, context.sorted_pairs, owners, reports


def oracle_reference_workload(scenario: ExperimentScenario) -> dict:
    """``ExperimentScenario.reference_workload`` as it was before it read the
    columnar state: ``script.process`` over every rank's ``Block`` list."""
    script = IsosurfaceScript(level=scenario.config.isosurface_level, mode="count")
    worst = {"triangles": 0, "points": 0, "blocks": 0}
    for blocks in scenario.blocks_for(0):
        result = script.process(blocks, iteration=0)
        if result.ntriangles >= worst["triangles"]:
            worst = {
                "triangles": result.ntriangles,
                "points": result.npoints,
                "blocks": len(blocks),
            }
    return worst


def assert_calibrated_like_the_oracle(scenario: ExperimentScenario) -> None:
    worst = scenario.reference_workload()
    assert worst == oracle_reference_workload(scenario)
    assert all(type(value) is int for value in worst.values())
    ncores = scenario.nranks
    assert scenario.platform.render == calibrate_render_model(
        max_rank_triangles=worst["triangles"],
        max_rank_points=worst["points"],
        max_rank_blocks=worst["blocks"],
        target_seconds=render_baseline_seconds(ncores),
    )
    total_bytes = sum(b.nbytes for blocks in scenario.blocks_for(0) for b in blocks)
    baselines = PAPER_BASELINES["redistribution_comm"]
    target = baselines.get(ncores, baselines[64] * 64.0 / float(ncores))
    nranks = max(ncores, 2)
    assert scenario.platform.network.exchange_bandwidth == (
        2.0 * total_bytes * (nranks - 1) / nranks / nranks / target
    )


class TiedRanksDataset:
    """Four ranks with the same isosurface load but 2, 4, 3, 1 blocks: the
    reference rank of a tie is the last one.  Hands out plain lists."""

    def per_rank_blocks(self, decomposition, index, field_name):
        active = np.zeros((4, 4, 4), dtype=np.float32)
        active[:2] = 90.0
        flat = np.zeros((4, 4, 4), dtype=np.float32)
        ids = iter(range(100))
        return [
            [
                Block(next(ids), BlockExtent((0, 0, 0), (4, 4, 4)), data, owner=rank, home=rank)
                for data in [active] * (1 if rank < 3 else 0) + [flat] * extra
            ]
            for rank, extra in enumerate([1, 3, 2, 1])
        ]


def test_calibration_tie_goes_to_the_last_rank():
    scenario = ExperimentScenario(get_scenario("tiny").tiny(), dataset=TiedRanksDataset())
    worst = scenario.reference_workload()
    assert worst["triangles"] > 0 and worst["blocks"] == 3 and worst["points"] == 3 * 64
    assert_calibrated_like_the_oracle(scenario)


@pytest.mark.parametrize("name", scenario_names())
class TestRegistryParitySweep:
    """Every registered workload must run identically on every backend."""

    def test_calibration_on_columns_equals_the_per_rank_oracle(self, name):
        assert_calibrated_like_the_oracle(tiny_scenario(name))

    def test_three_backend_parity(self, name, scoring_fanout):
        """``VAR`` scores inline; ``PYVAR`` declares ``gil_bound``, so the
        batched classes score it over the process pool — at every registered
        scenario both must agree with the per-block oracle."""
        scenario = tiny_scenario(name)
        for metric in ("VAR", "PYVAR"):
            ref_pairs, ref_sorted, ref_owners, ref_reports = _iteration_observables(
                scenario, "serial", metric=metric
            )
            # Sanity: the iteration did real work on this workload.
            assert ref_sorted and len(ref_owners) == scenario.nblocks
            assert set(ref_reports) == {
                "scoring", "sorting", "reduction", "redistribution", "rendering",
            }
            for backend in BACKENDS[1:]:
                pairs, sorted_pairs, owners, reports = _iteration_observables(
                    scenario, backend, metric=metric
                )
                assert pairs == ref_pairs, (metric, backend)
                assert sorted_pairs == ref_sorted, (metric, backend)
                assert owners == ref_owners, (metric, backend)
                for step, ref in ref_reports.items():
                    assert reports[step] == ref, (metric, backend, step)
        # The pool was in fact taken: by every batched backend, for PYVAR only.
        batched = len(BACKENDS[1:])
        assert scoring_fanout == [False] * batched + [True] * batched

    def test_quality_ladder_backend_parity(self, name):
        """With a non-trivial mipmap ladder (half the selection to level 2,
        half to level 1) every backend must still agree bitwise on every
        decision-bearing output — including the new points_copied counter
        and the level-dependent payload bytes."""
        ladder = ((2, 0.5), (1, 0.5))
        scenario = tiny_scenario(name)
        ref = _iteration_observables(scenario, "serial", quality_ladder=ladder)
        ref_pairs, ref_sorted, ref_owners, ref_reports = ref
        assert ref_reports["reduction"][2]["points_copied"] > 0
        for backend in BACKENDS[1:]:
            pairs, sorted_pairs, owners, reports = _iteration_observables(
                scenario, backend, quality_ladder=ladder
            )
            assert pairs == ref_pairs, backend
            assert sorted_pairs == ref_sorted, backend
            assert owners == ref_owners, backend
            for step, expected in ref_reports.items():
                assert reports[step] == expected, (backend, step)
        # The ladder must actually change the workload versus all-corners:
        # level-1 blocks ship more bytes through redistribution.
        corners = _iteration_observables(scenario, "serial")
        assert (
            ref_reports["reduction"][2]["points_copied"]
            > corners[3]["reduction"][2]["points_copied"]
        )


@pytest.mark.parametrize(
    "ladder", [None, ((2, 0.5), (1, 0.5))], ids=["corners", "two_rung"]
)
def test_fpzip_four_backend_parity_on_tiny(ladder):
    """The sweep above scores with VAR and PYVAR.  The coder metric is the
    one whose kernel owns scratch buffers — so FPZIP scores, order, owners and
    reports are pinned across all four backend names too, with and without
    the two-rung ladder."""
    scenario = tiny_scenario("tiny")
    ref = _iteration_observables(scenario, "serial", ladder, metric="FPZIP")
    assert ref[1] and len({score for _, score in ref[1]}) > 1
    for backend in BACKENDS[1:]:
        observed = _iteration_observables(scenario, backend, ladder, metric="FPZIP")
        assert observed == ref, backend


class PeakMetric(ScoreMetric):
    """A user-style scalar metric: no ``score_batch``; it declares ``gil_bound``
    and is module-level so that the pool's tasks can pickle it."""

    name = "PEAK"
    cost = MetricCost(per_point=4.9e-8)
    supports_batch = False
    gil_bound = True

    def score_block(self, data):
        return float(np.abs(np.asarray(data)).max())


def test_scalar_user_metric_backend_parity_on_tiny(monkeypatch):
    """A registered user metric without a batch path takes the per-block
    route on every backend — in the pool's workers on the batched ones, since
    it declares ``gil_bound`` — and must still give every backend the same
    scores, order, owners and reports."""
    monkeypatch.setitem(default_registry()._factories, "PEAK", PeakMetric)
    scenario = tiny_scenario("tiny")
    ref = _iteration_observables(scenario, "serial", metric="PEAK")
    assert len({score for _, score in ref[1]}) > 1
    for backend in BACKENDS[1:]:
        assert _iteration_observables(scenario, backend, metric="PEAK") == ref, backend


def test_mesh_mode_backend_parity_on_tiny():
    """Mesh mode extracts real geometry per block on every backend (nothing
    to stack, nothing worth pickling back from a worker): same triangles."""
    scenario = tiny_scenario("tiny")
    ref = _iteration_observables(scenario, "serial", render_mode="mesh")
    assert ref[3]["rendering"][2]["total_triangles"] > 0
    for backend in BACKENDS[1:]:
        assert _iteration_observables(scenario, backend, render_mode="mesh") == ref, backend


class TestDeterminism:
    @pytest.mark.parametrize("name", ["multicell_cluster", "squall_line"])
    def test_same_name_and_seed_bitwise_identical(self, name):
        spec = get_scenario(name)
        a = ExperimentScenario(spec.tiny())
        b = ExperimentScenario(spec.tiny())
        for blocks_a, blocks_b in zip(a.blocks_for(1), b.blocks_for(1)):
            assert len(blocks_a) == len(blocks_b)
            for block_a, block_b in zip(blocks_a, blocks_b):
                assert block_a.block_id == block_b.block_id
                assert block_a.data.tobytes() == block_b.data.tobytes()
        reports_a = _iteration_observables(a, "vectorized")
        reports_b = _iteration_observables(b, "vectorized")
        assert reports_a == reports_b

    def test_different_seeds_differ(self):
        spec = get_scenario("multicell_cluster")
        base = ExperimentScenario(spec.tiny())
        other = ExperimentScenario(spec.build(
            ncores=4, nsnapshots=2, shape=(44, 44, 12), seed=12345
        ))
        field_a = np.asarray(base.dataset.snapshot(0).get_field("dbz"))
        field_b = np.asarray(other.dataset.snapshot(0).get_field("dbz"))
        assert field_a.shape == field_b.shape
        assert not np.array_equal(field_a, field_b)


class TestCachedScenario:
    def test_distinct_scenarios_same_scale_do_not_collide(self):
        tiny = cached_scenario(ncores=4, nsnapshots=2, name="tiny")
        turb = cached_scenario(ncores=4, nsnapshots=2, name="turbulence_field")
        assert tiny is not turb
        assert tiny.config.name == "tiny"
        assert turb.config.name == "turbulence_field"
        assert tiny.config.storm != turb.config.storm

    def test_identical_requests_share_one_scenario(self):
        a = cached_scenario(ncores=4, nsnapshots=2, name="tiny")
        b = cached_scenario(ncores=4, nsnapshots=2, name="tiny")
        assert a is b

    def test_legacy_positional_call_still_resolves_paper_names(self):
        scenario = cached_scenario(64, 1)
        assert scenario.config.name == "blue_waters_64"
        assert scenario.config.nsnapshots == 1
        assert cached_scenario(64, 1) is scenario

    def test_requires_name_or_ncores(self):
        with pytest.raises(TypeError):
            cached_scenario()


class TestScalingVariants:
    def test_strong_scaling_keeps_shape(self):
        variants = scaling_variants("tiny", ranks=(1, 2, 4), mode="strong")
        assert [v.ncores for v in variants] == [1, 2, 4]
        assert all(v.shape == (44, 44, 12) for v in variants)
        assert [v.name for v in variants] == [
            "tiny[strong@1]", "tiny[strong@2]", "tiny[strong@4]",
        ]

    def test_weak_scaling_grows_horizontal_grid(self):
        variants = scaling_variants("tiny", ranks=(4, 16), mode="weak")
        base, grown = variants
        assert base.shape == (44, 44, 12)
        assert grown.shape == (88, 88, 12)  # sqrt(16/4) = 2x per horizontal axis
        # Per-rank point counts stay constant under weak scaling.
        per_rank = lambda v: v.shape[0] * v.shape[1] * v.shape[2] / v.ncores
        assert per_rank(grown) == pytest.approx(per_rank(base))

    def test_variants_are_runnable(self):
        variant = scaling_variants("tiny", ranks=(2,), mode="weak", nsnapshots=1)[0]
        scenario = ExperimentScenario(variant)
        pipeline = scenario.build_pipeline(metric="VAR")
        result, _ = pipeline.process_iteration(scenario.blocks_for(0))
        assert result.nblocks == scenario.nblocks

    def test_weak_scaling_rounds_half_up_at_5_boundary(self):
        """Regression: weak-scaling extents exactly on .5 must round up.

        With base shape 15 at 4 ranks, the 9-rank variant scales by
        sqrt(9/4) = 1.5 exactly, landing 15 * 1.5 = 22.5 on a .5 boundary.
        Banker's round() returns 22 (nearest even), silently shrinking the
        per-rank load; half-up rounding must give 23.
        """
        register_scenario(
            "pytest_weak_boundary",
            lambda **o: ScenarioConfig(
                ncores=4, shape=(15, 15, 12), blocks_per_subdomain=(1, 1, 1), **o
            ),
            description="weak-scaling .5-boundary fixture",
        )
        try:
            variant = scaling_variants("pytest_weak_boundary", ranks=(9,), mode="weak")[0]
            assert round(22.5) == 22  # the trap this test guards against
            assert variant.shape == (23, 23, 12)
        finally:
            _REGISTRY.pop("pytest_weak_boundary", None)

    def test_strong_scaling_refuses_infeasible_rank_counts(self):
        # tiny's 44-point axes cannot host 1024 ranks' block columns; a
        # silently grown grid would make the sweep incomparable, so the
        # helper must refuse instead.
        with pytest.raises(ValueError, match="1024 ranks"):
            scaling_variants("tiny", ranks=(4, 1024), mode="strong")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            scaling_variants("tiny", ranks=(2,), mode="sideways")
        with pytest.raises(ValueError, match="ranks"):
            scaling_variants("tiny", ranks=())
        with pytest.raises(KeyError):
            scaling_variants("unregistered", ranks=(2,))


class TestModelScalingSweep:
    """The cost-model sweep: analytic pricing of iterations without data."""

    def test_point_structure_and_work_counts(self):
        config = scaling_variants("blue_waters_64", ranks=(64,), mode="weak")[0]
        point = model_scaling_point(config)
        bx, by, bz = config.blocks_per_subdomain
        nx, ny, nz = config.shape
        assert point["ncores"] == 64
        assert point["nblocks"] == 64 * bx * by * bz
        assert point["npoints"] == nx * ny * nz
        assert point["metric"] == "VAR"
        steps = point["modelled_steps"]
        assert set(steps) == {
            "scoring", "sorting", "reduction", "redistribution", "rendering",
        }
        assert all(v >= 0.0 for v in steps.values())
        assert point["modelled_total"] == pytest.approx(sum(steps.values()))

    def test_point_deterministic_per_seed(self):
        config = scaling_variants("tiny", ranks=(4,), mode="weak")[0]
        assert model_scaling_point(config) == model_scaling_point(config)

    def test_percent_extremes(self):
        config = scaling_variants("tiny", ranks=(4,), mode="weak")[0]
        none_reduced = model_scaling_point(config, percent=0.0)
        assert none_reduced["nreduced"] == 0
        assert none_reduced["modelled_steps"]["reduction"] == pytest.approx(
            PlatformModel.blue_waters(4).reduction_seconds(0)
        )
        all_reduced = model_scaling_point(config, percent=100.0)
        assert all_reduced["nreduced"] == all_reduced["nblocks"]
        # No survivors -> nothing to redistribute.
        assert all_reduced["moved_bytes"] == 0
        assert all_reduced["modelled_steps"]["redistribution"] == 0.0

    def test_block_bytes_match_the_data_path(self):
        """The sweep prices a moved full block at what the engine moves for
        it (regression: it assumed float64 fields, the data path is float32)."""
        config = scaling_variants("tiny", ranks=(4,), mode="weak")[0]
        sizes = {
            b.nbytes
            for blocks in ExperimentScenario(config).blocks_for(0)
            for b in blocks
        }
        assert len(sizes) == 1  # tiny divides evenly: every block is alike
        point = model_scaling_point(config, percent=0.0)
        assert point["moved_blocks"] > 0
        assert point["moved_bytes"] == point["moved_blocks"] * sizes.pop()

    @pytest.mark.parametrize("percent", [3.125, 9.375, 15.625, 21.875])
    def test_point_reduces_as_many_blocks_as_the_pipeline(self, percent):
        """At a percent whose block count lands on .5 the point prices the
        count the pipeline reduces, rounded half-up (regression: banker's
        ``round()`` priced 0 of 16 blocks at 3.125 %, the pipeline reduces 1)."""
        config = scaling_variants("tiny", ranks=(4,), mode="weak")[0]
        scenario = ExperimentScenario(config)
        context = scenario.build_pipeline().engine.run_iteration(
            scenario.blocks_for(0), percent, 0
        )
        point = model_scaling_point(config, percent=percent)
        assert point["nblocks"] == len(context.columns) == 16
        assert point["nreduced"] == context.reports["reduction"].counters["nreduced"]

    def test_point_validates_arguments(self):
        config = scaling_variants("tiny", ranks=(4,), mode="weak")[0]
        with pytest.raises(ValueError, match="percent"):
            model_scaling_point(config, percent=150.0)
        with pytest.raises(ValueError, match="active_fraction"):
            model_scaling_point(config, active_fraction=2.0)

    def test_sweep_orders_points_by_ranks(self):
        sweep = model_scaling_sweep("tiny", ranks=(4, 16), mode="weak")
        assert sweep["scenario"] == "tiny"
        assert sweep["ranks"] == [4, 16]
        assert [p["ncores"] for p in sweep["points"]] == [4, 16]
        # Weak scaling: per-rank points constant, so total points grow 4x.
        assert sweep["points"][1]["npoints"] == 4 * sweep["points"][0]["npoints"]

    def test_sweep_is_its_points_priced_in_order(self):
        """The record's points are ``model_scaling_point`` of each variant,
        in ``ranks`` order.  Fails if the points come back reversed."""
        ranks = (16, 4, 64)
        sweep = model_scaling_sweep("tiny", ranks, mode="weak", metric="FPZIP", percent=30.0)
        assert sweep["points"] == [
            model_scaling_point(config, "FPZIP", 30.0)
            for config in scaling_variants("tiny", ranks, mode="weak")
        ]

    def test_weak_scaling_catalog_entries_registered(self):
        names = scenario_names()
        assert "blue_waters_weak_1024" in names
        assert "blue_waters_weak_10k" in names
        assert get_scenario("blue_waters_weak_1024").default_ranks == 1024
        assert get_scenario("blue_waters_weak_10k").default_ranks == 10000
        # Their full-scale configs exist purely for the model-driven sweep,
        # but (like every registry entry) they must be priceable directly.
        config = create_scenario_config("blue_waters_weak_10k")
        point = model_scaling_point(config)
        assert point["nblocks"] == 10000 * np.prod(config.blocks_per_subdomain)

"""Tests of the scenario subsystem: catalogue, storm families, parity sweep.

The centrepiece is the catalogue-driven cross-backend parity sweep: it
parameterises over *every* catalogue row (``scenario_names()``), so a
workload added as a row automatically gets parity coverage on every
engine name (``engine_backends()``) at tiny scale without anyone writing a
test for it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cm1 import (
    CM1Config,
    CM1Simulation,
    DecayingStormConfig,
    MultiCellConfig,
    SquallLineConfig,
    TurbulenceFieldConfig,
)
from repro.cm1.storm import (
    DecayingStorm,
    MultiCellStorm,
    SquallLineStorm,
    SupercellStorm,
    TurbulenceFieldStorm,
    make_storm,
)
from repro.core.backends import engine_backends
from repro.grid.block import Block, BlockExtent
from repro.metrics.base import MetricCost, ScoreMetric
from repro.metrics.registry import METRICS
from repro.perfmodel.calibration import PAPER_BASELINES, calibrate_render_model
from repro.scenarios import (
    CATALOGUE,
    ExperimentScenario,
    create_scenario_config,
    scenario_decomposition,
    scenario_names,
)
from repro.scenarios.scenario import cached_scenario, render_baseline_seconds
from repro.scenarios.spec import TINY_SHAPE
from repro.viz.catalyst import IsosurfaceScript

#: Every engine name ``PipelineConfig`` accepts; the first is the per-block oracle.
BACKENDS = engine_backends()

#: The four storm families the paper never ran, all required in the catalogue.
NEW_FAMILIES = ("squall_line", "multicell_cluster", "turbulence_field", "decaying_storm")


@pytest.fixture(scope="module")
def tiny_of(at_tiny_scale):
    """``tiny_of(name)``: the catalogue workload ``name`` as an
    :class:`ExperimentScenario` at unit-test scale, built once per module."""
    cache = {}

    def build(name: str) -> ExperimentScenario:
        if name not in cache:
            cache[name] = ExperimentScenario(at_tiny_scale(name))
        return cache[name]

    return build


class TestCatalogue:
    def test_catalogue_size_and_contents(self):
        names = scenario_names()
        assert len(names) >= 7
        for required in ("blue_waters_64", "blue_waters_400", "tiny") + NEW_FAMILIES:
            assert required in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="blue_waters_64"):
            create_scenario_config("definitely_not_registered")

    def test_rows_carry_metadata(self):
        for name, (config, description, tags) in CATALOGUE.items():
            assert config.name == name
            assert description and tags

    def test_lookup_ignores_case_and_surrounding_space(self):
        assert create_scenario_config(" Blue_Waters_64 ") == CATALOGUE["blue_waters_64"][0]

    def test_the_registry_entry_points_are_gone(self):
        """A scenario is built one way, ``ExperimentScenario(config)``, and a
        metric by name through ``create_metric``: the plug-in registries and
        the named constructors no longer resolve."""
        import repro
        import repro.metrics.registry as metric_registry
        import repro.scenarios as scenarios

        with pytest.raises(ImportError):
            import repro.scenarios.registry  # noqa: F401
        for name in ("ScenarioSpec", "ScenarioFactory", "register_scenario",
                     "get_scenario", "scenario_specs"):
            assert not hasattr(scenarios, name)
        for name in ("register_scenario", "default_registry"):
            assert not hasattr(repro, name)
        for name in ("MetricRegistry", "default_registry"):
            assert not hasattr(metric_registry, name)
        for name in ("from_name", "blue_waters", "tiny"):
            assert not hasattr(ExperimentScenario, name)

    def test_build_applies_overrides_and_stamps_name(self):
        config = create_scenario_config("squall_line", ncores=4, nsnapshots=3, seed=7)
        assert config.ncores == 4
        assert config.nsnapshots == 3
        assert config.seed == 7
        assert config.name == "squall_line"
        # None overrides are ignored (CLI arguments forward directly).
        default = create_scenario_config("squall_line", ncores=None)
        assert default == CATALOGUE["squall_line"][0]


@pytest.mark.parametrize("name", scenario_names())
class TestCatalogueDefaults:
    """Every catalogue workload, built without overrides, is its row and a
    grid that hosts it; none of it generates data."""

    def test_defaults_are_the_row(self, name):
        config = create_scenario_config(name)
        assert config == CATALOGUE[name][0]
        assert config.name == name

    def test_default_grid_hosts_its_ranks(self, name):
        """Each rank owns the same number of blocks, and the blocks tile the
        whole grid.  Fails if a catalogue entry's rank count outgrows its
        grid (``repro run`` would then refuse the entry's own defaults)."""
        config = create_scenario_config(name)
        decomposition = scenario_decomposition(config)
        per_rank = int(np.prod(config.blocks_per_subdomain))
        assert decomposition.blocks_per_rank == per_rank
        assert decomposition.nblocks == config.ncores * per_rank
        npoints = sum(
            extent.npoints
            for rank in range(decomposition.nranks)
            for extent in decomposition.block_extents(rank)
        )
        assert npoints == int(np.prod(config.shape))
        assert decomposition.rank_dims[2] == 1  # CM1 keeps each column on one rank

    def test_tiny_keeps_the_family(self, name, at_tiny_scale):
        """``at_tiny_scale`` shrinks only the grid and the rank/snapshot
        counts, so tiny-scale parity tests run the family's storm and blocking."""
        full, tiny = create_scenario_config(name), at_tiny_scale(name)
        assert tiny.shape == TINY_SHAPE
        assert (tiny.ncores, tiny.nsnapshots) == (4, 2)
        assert tiny.storm == full.storm
        assert tiny.blocks_per_subdomain == full.blocks_per_subdomain
        assert scenario_decomposition(tiny).nblocks == 4 * int(
            np.prod(full.blocks_per_subdomain)
        )


@pytest.mark.parametrize("engine", ["serial", "vectorized"])
@pytest.mark.parametrize("percent, nreduced", [(3.125, 1), (9.375, 2), (15.625, 3), (21.875, 4)])
def test_engine_reduces_half_up_at_half_block_percents(engine, percent, nreduced, tiny_of):
    """On ``tiny``'s 16 blocks each percent lands on half a block; both step
    classes reduce the half-up count of the lowest-scored blocks.  Fails if
    either engine rounds like ``round()`` (0 blocks at 3.125 %, 2 at 15.625 %)."""
    scenario = tiny_of("tiny")
    assert scenario.nblocks == 16
    context = scenario.build_pipeline(engine=engine).engine.run_iteration(
        scenario.blocks_for(0), percent, 0
    )
    assert context.reports["reduction"].counters["nreduced"] == nreduced
    lowest = set(context.sorted_array[:nreduced, 0].astype(np.int64).tolist())
    columns = context.columns
    assert set(columns.ids[columns.levels > 0].tolist()) == lowest


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
            storm = create_scenario_config(name).storm
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

    def test_turbulence_field_scores_near_uniform(self, tiny_of):
        scenario = tiny_of("turbulence_field")
        pipeline = scenario.build_pipeline(metric="VAR")
        context = pipeline.engine.run_iteration(scenario.blocks_for(0), 0.0, 0)
        scores = np.concatenate(context.pair_arrays)[:, 1]
        assert scores.min() > 0
        # Near-uniform: far tighter spread than the supercell workload.
        cv_turb = scores.std() / scores.mean()
        supercell = tiny_of("tiny")
        ctx2 = supercell.build_pipeline(metric="VAR").engine.run_iteration(
            supercell.blocks_for(0), 0.0, 0
        )
        s2 = np.concatenate(ctx2.pair_arrays)[:, 1]
        cv_storm = s2.std() / s2.mean()
        assert cv_turb < 0.5 * cv_storm

    def test_decaying_storm_load_falls_over_snapshots(self, tiny_of):
        scenario = tiny_of("decaying_storm")
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
        for blocks in context.columns.to_ranks()
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
    # The pairs and the sorted order, bitwise: the bytes of their wire arrays.
    pairs = [wire.tobytes() for wire in context.pair_arrays]
    return pairs, context.sorted_array.tobytes(), owners, reports


def _sorted_scores(sorted_bytes: bytes) -> list:
    """The scores, in sorted order, of the wire bytes ``_iteration_observables``
    returns."""
    return np.frombuffer(sorted_bytes, dtype=np.float64).reshape(-1, 2)[:, 1].tolist()


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
    scenario = ExperimentScenario(create_scenario_config("tiny"), dataset=TiedRanksDataset())
    worst = scenario.reference_workload()
    assert worst["triangles"] > 0 and worst["blocks"] == 3 and worst["points"] == 3 * 64
    assert_calibrated_like_the_oracle(scenario)


@pytest.mark.parametrize("name", scenario_names())
class TestCatalogueParitySweep:
    """Every catalogue workload must run identically on every backend."""

    def test_calibration_on_columns_equals_the_per_rank_oracle(self, name, tiny_of):
        assert_calibrated_like_the_oracle(tiny_of(name))

    def test_three_backend_parity(self, name, scoring_fanout, tiny_of):
        """``VAR`` scores inline; ``PYVAR`` declares ``gil_bound``, so the
        batched classes score it over the process pool — at every catalogue
        scenario both must agree with the per-block oracle."""
        scenario = tiny_of(name)
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

    def test_quality_ladder_backend_parity(self, name, tiny_of):
        """With a non-trivial mipmap ladder (half the selection to level 2,
        half to level 1) every backend must still agree bitwise on every
        decision-bearing output — including the new points_copied counter
        and the level-dependent payload bytes."""
        ladder = ((2, 0.5), (1, 0.5))
        scenario = tiny_of(name)
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
def test_fpzip_four_backend_parity_on_tiny(ladder, tiny_of):
    """The sweep above scores with VAR and PYVAR.  The coder metric is the
    one whose kernel owns scratch buffers — so FPZIP scores, order, owners and
    reports are pinned across all four backend names too, with and without
    the two-rung ladder."""
    scenario = tiny_of("tiny")
    ref = _iteration_observables(scenario, "serial", ladder, metric="FPZIP")
    assert ref[1] and len(set(_sorted_scores(ref[1]))) > 1
    for backend in BACKENDS[1:]:
        observed = _iteration_observables(scenario, backend, ladder, metric="FPZIP")
        assert observed == ref, backend


class PeakMetric(ScoreMetric):
    """A user-style scalar metric: no ``score_batch`` of its own; it declares
    ``gil_bound`` and is module-level so that the pool's tasks can pickle it."""

    name = "PEAK"
    cost = MetricCost(per_point=4.9e-8)
    gil_bound = True

    def score_block(self, data):
        return float(np.abs(np.asarray(data)).max())


def test_scalar_user_metric_backend_parity_on_tiny(monkeypatch, tiny_of):
    """A user metric added to the table without a batch path takes the per-block
    route on every backend — in the pool's workers on the batched ones, since
    it declares ``gil_bound`` — and must still give every backend the same
    scores, order, owners and reports."""
    monkeypatch.setitem(METRICS, "PEAK", PeakMetric)
    scenario = tiny_of("tiny")
    ref = _iteration_observables(scenario, "serial", metric="PEAK")
    assert len(set(_sorted_scores(ref[1]))) > 1
    for backend in BACKENDS[1:]:
        assert _iteration_observables(scenario, backend, metric="PEAK") == ref, backend


def test_mesh_mode_backend_parity_on_tiny(tiny_of):
    """Mesh mode extracts real geometry per block on every backend (nothing
    to stack, nothing worth pickling back from a worker): same triangles."""
    scenario = tiny_of("tiny")
    ref = _iteration_observables(scenario, "serial", render_mode="mesh")
    assert ref[3]["rendering"][2]["total_triangles"] > 0
    for backend in BACKENDS[1:]:
        assert _iteration_observables(scenario, backend, render_mode="mesh") == ref, backend


class TestDeterminism:
    @pytest.mark.parametrize("name", ["multicell_cluster", "squall_line"])
    def test_same_name_and_seed_bitwise_identical(self, name, at_tiny_scale):
        a = ExperimentScenario(at_tiny_scale(name))
        b = ExperimentScenario(at_tiny_scale(name))
        for blocks_a, blocks_b in zip(a.blocks_for(1), b.blocks_for(1)):
            assert len(blocks_a) == len(blocks_b)
            for block_a, block_b in zip(blocks_a, blocks_b):
                assert block_a.block_id == block_b.block_id
                assert block_a.data.tobytes() == block_b.data.tobytes()
        reports_a = _iteration_observables(a, "vectorized")
        reports_b = _iteration_observables(b, "vectorized")
        assert reports_a == reports_b

    def test_different_seeds_differ(self, at_tiny_scale):
        base = ExperimentScenario(at_tiny_scale("multicell_cluster"))
        other = ExperimentScenario(replace(at_tiny_scale("multicell_cluster"), seed=12345))
        field_a, field_b = base.field(0), other.field(0)
        assert field_a.shape == field_b.shape
        assert not np.array_equal(field_a, field_b)


class TestCachedScenario:
    def test_distinct_scenarios_same_scale_do_not_collide(self):
        tiny = cached_scenario(name="tiny", ncores=4, nsnapshots=2)
        turb = cached_scenario(name="turbulence_field", ncores=4, nsnapshots=2)
        assert tiny is not turb
        assert tiny.config.name == "tiny"
        assert turb.config.name == "turbulence_field"
        assert tiny.config.storm != turb.config.storm

    def test_identical_requests_share_one_scenario(self):
        a = cached_scenario(name="tiny", ncores=4, nsnapshots=2)
        b = cached_scenario(name="tiny", ncores=4, nsnapshots=2)
        assert a is b

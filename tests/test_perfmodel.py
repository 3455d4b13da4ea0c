"""Tests for the platform performance model and its calibration."""

from __future__ import annotations

import pytest

from repro.metrics.registry import PAPER_METRICS, create_metric
from repro.perfmodel.calibration import (
    PAPER_BASELINES,
    TABLE1_SECONDS,
    calibrate_render_model,
    metric_cost_from_table1,
    paper_points_per_core,
)
from repro.perfmodel.platform import PlatformModel
from repro.perfmodel.render_model import RenderCostModel


class TestRenderCostModel:
    def test_rank_seconds_monotone_in_triangles(self):
        model = RenderCostModel()
        assert model.rank_seconds(10_000, 0, 0) > model.rank_seconds(100, 0, 0)

    def test_rank_seconds_includes_overhead(self):
        model = RenderCostModel(per_rank_overhead=0.9)
        assert model.rank_seconds(0, 0, 0) == pytest.approx(0.9)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RenderCostModel().rank_seconds(-1, 0, 0)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            RenderCostModel(per_triangle=0.0)


class TestCalibration:
    def test_table1_coefficients_consistent_across_scales(self):
        """The 64- and 400-core columns of Table I imply the same per-point cost."""
        for name in PAPER_METRICS:
            c64 = metric_cost_from_table1(name, 64).per_point
            c400 = metric_cost_from_table1(name, 400).per_point
            assert c64 == pytest.approx(c400, rel=0.15)

    def test_table1_ordering_var_cheapest_trilin_most_expensive(self):
        costs = {name: metric_cost_from_table1(name, 64).per_point for name in PAPER_METRICS}
        assert costs["VAR"] < costs["LEA"] < costs["RANGE"]
        assert costs["TRILIN"] >= max(costs[n] for n in PAPER_METRICS if n != "TRILIN")

    def test_class_level_costs_match_table1(self):
        """The hard-coded metric costs agree with the Table I derivation."""
        for name in PAPER_METRICS:
            derived = metric_cost_from_table1(name, 64).per_point
            hardcoded = create_metric(name).cost.per_point
            assert hardcoded == pytest.approx(derived, rel=0.15)

    def test_unknown_metric_or_cores(self):
        with pytest.raises(KeyError):
            metric_cost_from_table1("NOPE")
        with pytest.raises(KeyError):
            metric_cost_from_table1("VAR", 128)

    def test_paper_points_per_core(self):
        assert paper_points_per_core(64) == pytest.approx(16_000 * 55 * 55 * 38 / 64)
        with pytest.raises(ValueError):
            paper_points_per_core(0)

    def test_calibrate_render_model_hits_target(self):
        model = calibrate_render_model(5000, 100_000, 8, target_seconds=160.0)
        assert model.rank_seconds(5000, 100_000, 8) == pytest.approx(160.0)

    def test_calibrate_requires_feasible_target(self):
        with pytest.raises(ValueError):
            calibrate_render_model(100, 0, 0, target_seconds=0.1)
        with pytest.raises(ValueError):
            calibrate_render_model(0, 0, 0, target_seconds=10.0)

    def test_paper_baselines_present(self):
        assert PAPER_BASELINES["render_none"][64] == 160.0
        assert PAPER_BASELINES["render_none"][400] == 50.0


class TestPlatformModel:
    def test_blue_waters_has_table1_costs(self):
        platform = PlatformModel.blue_waters(64)
        assert set(TABLE1_SECONDS) <= set(platform.metric_costs)
        assert platform.ncores == 64

    def test_scoring_seconds_uses_override(self):
        platform = PlatformModel.blue_waters(64)
        metric = create_metric("VAR")
        points = int(paper_points_per_core(64))
        seconds = platform.scoring_seconds(metric, points, 250)
        assert seconds == pytest.approx(TABLE1_SECONDS["VAR"][64], rel=0.05)

    def test_scoring_seconds_falls_back_to_metric_cost(self):
        platform = PlatformModel(name="bare", ncores=4)
        metric = create_metric("VAR")
        assert platform.scoring_seconds(metric, 1000, 1) == pytest.approx(
            metric.cost.per_point * 1000
        )

    def test_invalid_ncores(self):
        with pytest.raises(ValueError):
            PlatformModel(name="x", ncores=0)

    def test_negative_work_rejected(self):
        platform = PlatformModel.blue_waters(64)
        with pytest.raises(ValueError):
            platform.scoring_seconds(create_metric("VAR"), -1, 0)

    def test_reduction_seconds_prices_points_in_corner_block_units(self):
        """A corner block (8 points) costs ``seconds_per_reduced_block``; a
        level-1 downsample retaining more points costs proportionally more."""
        platform = PlatformModel.blue_waters(64)
        per_block = platform.seconds_per_reduced_block
        assert per_block > 0
        assert platform.reduction_seconds(1, 8) == per_block
        assert platform.reduction_seconds(3, 24) == 3 * per_block
        assert platform.reduction_seconds(1, 60) == per_block * 60 / 8.0
        assert platform.reduction_seconds(0, 0) == 0.0

    def test_reduction_seconds_requires_the_points_copied(self):
        platform = PlatformModel.blue_waters(64)
        with pytest.raises(TypeError):
            platform.reduction_seconds(4)
        for counts in [(-1, 8), (1, -8)]:
            with pytest.raises(ValueError):
                platform.reduction_seconds(*counts)

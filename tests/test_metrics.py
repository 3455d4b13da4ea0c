"""Tests for the block-scoring metrics and their name table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.base import MetricCost
from repro.metrics.bytewise import BytewiseEntropyMetric, bytewise_entropies
from repro.metrics.compression import CompressionRatioMetric
from repro.metrics.entropy import HistogramEntropyMetric
from repro.metrics.interpolation import TrilinearErrorMetric
from repro.metrics.registry import METRICS, PAPER_METRICS, create_metric
from repro.metrics.statistics import RangeMetric, VarianceMetric


class TestMetricCost:
    def test_seconds_linear(self):
        cost = MetricCost(per_point=1e-6, per_block=1e-3)
        assert cost.seconds(1000) == pytest.approx(2e-3)

    def test_negative_points_rejected(self):
        with pytest.raises(ValueError):
            MetricCost(per_point=1e-6).seconds(-1)


class TestBasicMetrics:
    def test_range_metric(self):
        data = np.zeros((4, 4, 4))
        data[0, 0, 0] = -10.0
        data[3, 3, 3] = 30.0
        assert RangeMetric().score_block(data) == pytest.approx(40.0)

    def test_variance_metric_constant_zero(self, constant_block):
        assert VarianceMetric().score_block(constant_block) == pytest.approx(0.0)

    def test_variance_higher_for_turbulent(self, smooth_block, turbulent_block):
        metric = VarianceMetric()
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)

    def test_histogram_entropy_constant_zero(self, constant_block):
        assert HistogramEntropyMetric().score_block(constant_block) == pytest.approx(0.0)

    def test_histogram_entropy_uniform_high(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-60, 80, size=(16, 16, 8))
        score = HistogramEntropyMetric(bins=256).score_block(data)
        assert score > 7.0  # close to log2(256) = 8 bits

    def test_histogram_entropy_bins_matter(self, turbulent_block):
        few = HistogramEntropyMetric(bins=32).score_block(turbulent_block)
        many = HistogramEntropyMetric(bins=1024).score_block(turbulent_block)
        assert many >= few

    def test_histogram_entropy_validation(self):
        with pytest.raises(ValueError):
            HistogramEntropyMetric(bins=1)
        with pytest.raises(ValueError):
            HistogramEntropyMetric(value_range=(5.0, 5.0))

    def test_lea_constant_zero(self, constant_block):
        assert BytewiseEntropyMetric().score_block(constant_block) == pytest.approx(0.0)

    def test_lea_orders_blocks(self, smooth_block, turbulent_block):
        metric = BytewiseEntropyMetric()
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)

    def test_bytewise_entropies_shape(self, turbulent_block):
        ent = bytewise_entropies(turbulent_block)
        assert ent.shape == (4,)  # float32 -> 4 byte positions
        assert np.all(ent >= 0) and np.all(ent <= 8.0 + 1e-9)

    def test_bytewise_entropies_float64(self):
        data = np.random.default_rng(0).normal(size=(4, 4, 4))
        assert bytewise_entropies(data).shape == (8,)

    def test_trilinear_zero_for_linear_field(self):
        x = np.linspace(0, 1, 6)
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        assert TrilinearErrorMetric().score_block(xx + yy - zz) == pytest.approx(0.0, abs=1e-18)

    def test_trilinear_orders_blocks(self, smooth_block, turbulent_block):
        metric = TrilinearErrorMetric()
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)

    def test_metrics_reject_non_3d(self):
        with pytest.raises(ValueError):
            VarianceMetric().score_block(np.zeros((4, 4)))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000), scale=st.floats(min_value=0.1, max_value=100))
    def test_all_scores_non_negative_property(self, seed, scale):
        """Every paper metric returns a finite, non-negative score."""
        data = (np.random.default_rng(seed).normal(size=(6, 6, 4)) * scale).astype(np.float32)
        for name in ("RANGE", "VAR", "ITL", "LEA", "TRILIN"):
            score = create_metric(name).score_block(data)
            assert np.isfinite(score) and score >= 0.0


class TestCompressionMetric:
    def test_fpzip_orders_blocks(self, smooth_block, turbulent_block):
        metric = CompressionRatioMetric.fpzip()
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)

    def test_score_is_inverse_ratio_in_unit_range(self, turbulent_block):
        metric = CompressionRatioMetric.fpzip()
        score = metric.score_block(turbulent_block)
        assert 0.0 < score <= 1.5

    def test_lz_variant(self, smooth_block, turbulent_block):
        metric = CompressionRatioMetric.lz()
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)


class TestRegistry:
    def test_paper_metrics_all_available(self):
        assert set(PAPER_METRICS) <= set(METRICS)
        for name in METRICS:
            assert create_metric(name).name == name

    def test_the_table_is_the_papers_six_and_two_extras(self):
        """``METRICS`` is exactly the paper's six plus LZ and PYVAR, each
        kept for the reason its row's comment gives; a metric that no
        figure, ledger row, workload or example reads has no row."""
        assert len(PAPER_METRICS) == len(set(PAPER_METRICS)) == 6
        assert sorted(METRICS) == sorted(PAPER_METRICS + ("LZ", "PYVAR"))

    def test_case_insensitive(self):
        assert create_metric("var").name == "VAR"

    def test_unknown_metric(self):
        with pytest.raises(KeyError) as raised:
            create_metric("NOPE")
        assert raised.value.args[0] == (
            f"unknown metric 'NOPE'; available: {', '.join(sorted(METRICS))}"
        )

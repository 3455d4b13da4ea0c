"""Tests for the block-scoring metrics, registry, scoremaps and comparisons."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.decomposition import CartesianDecomposition
from repro.metrics.base import MetricCost
from repro.metrics.bytewise import BytewiseEntropyMetric, bytewise_entropies
from repro.metrics.comparison import (
    compare_metrics,
    rank_blocks,
    score_blocks_with_metrics,
    spearman_rank_correlation,
)
from repro.metrics.compression import CompressionRatioMetric
from repro.metrics.entropy import HistogramEntropyMetric, LocalEntropyMetric
from repro.metrics.interpolation import TrilinearErrorMetric
from repro.metrics.registry import PAPER_METRICS, MetricRegistry, create_metric, default_registry
from repro.metrics.scoremap import compute_scoremap
from repro.metrics.statistics import RangeMetric, StdDevMetric, VarianceMetric


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

    def test_std_is_sqrt_var(self, turbulent_block):
        var = VarianceMetric().score_block(turbulent_block)
        std = StdDevMetric().score_block(turbulent_block)
        assert std == pytest.approx(np.sqrt(var), rel=1e-6)

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

    def test_local_entropy_runs_and_orders(self, smooth_block, turbulent_block):
        metric = LocalEntropyMetric(bins=16, stride=3)
        assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)

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

    def test_zfp_and_lz_variants(self, smooth_block, turbulent_block):
        for metric in (CompressionRatioMetric.zfp(), CompressionRatioMetric.lz()):
            assert metric.score_block(turbulent_block) > metric.score_block(smooth_block)


class TestRegistry:
    def test_paper_metrics_all_available(self):
        registry = default_registry()
        for name in PAPER_METRICS:
            assert name in registry
            assert registry.create(name).name == name

    def test_case_insensitive(self):
        assert create_metric("var").name == "VAR"

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            create_metric("NOPE")

    def test_register_custom_and_overwrite(self):
        registry = MetricRegistry()
        registry.register("CUSTOM", RangeMetric)
        assert registry.create("CUSTOM").name == "RANGE"
        with pytest.raises(ValueError):
            registry.register("CUSTOM", VarianceMetric)
        registry.register("CUSTOM", VarianceMetric, overwrite=True)
        assert isinstance(registry.create("CUSTOM"), VarianceMetric)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricRegistry().register("  ", RangeMetric)


class TestComparisonAndScoremap:
    def test_rank_blocks_tie_break_by_id(self):
        ranks = rank_blocks({3: 1.0, 1: 1.0, 2: 0.5})
        assert ranks[2] == 0 and ranks[1] == 1 and ranks[3] == 2

    def test_spearman_perfect_and_inverse(self):
        assert spearman_rank_correlation([0, 1, 2, 3], [0, 1, 2, 3]) == pytest.approx(1.0)
        assert spearman_rank_correlation([0, 1, 2, 3], [3, 2, 1, 0]) == pytest.approx(-1.0)

    def test_spearman_validation(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [1])
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1, 2, 3])

    def test_compare_metrics_pairs_count(self, tiny_field):
        decomp = CartesianDecomposition(tiny_field.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
        blocks = [b for r in range(4) for b in decomp.extract_blocks(r, tiny_field)]
        metrics = [VarianceMetric(), RangeMetric(), BytewiseEntropyMetric()]
        scores = score_blocks_with_metrics(metrics, blocks)
        comparisons = compare_metrics(scores)
        assert len(comparisons) == 3  # C(3, 2)
        for comp in comparisons:
            assert comp.nblocks == len(blocks)
            assert -1.0 <= comp.spearman <= 1.0
            assert 0.0 <= comp.agreement_fraction(0.2) <= 1.0

    def test_compare_metrics_requires_same_blocks(self):
        with pytest.raises(ValueError):
            compare_metrics({"A": {0: 1.0}, "B": {1: 1.0}})

    def test_compare_metrics_requires_two(self):
        with pytest.raises(ValueError):
            compare_metrics({"A": {0: 1.0}})

    def test_scoremap_highlights_storm(self, tiny_field):
        decomp = CartesianDecomposition(tiny_field.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
        smap = compute_scoremap(VarianceMetric(), decomp, tiny_field)
        assert smap.image.shape == tiny_field.shape[:2]
        assert len(smap.block_scores) == decomp.nblocks
        norm = smap.normalised()
        assert norm.min() == 0.0 and norm.max() == pytest.approx(1.0)
        # Scores are higher, on average, over the storm's footprint than over
        # the quiet background (the variance is concentrated at the storm).
        storm_cols = tiny_field.max(axis=2) > 0.0
        assert storm_cols.any() and (~storm_cols).any()
        assert norm[storm_cols].mean() > norm[~storm_cols].mean()

    def test_scoremap_shape_mismatch(self, tiny_field):
        decomp = CartesianDecomposition((10, 10, 10), nranks=1)
        with pytest.raises(ValueError):
            compute_scoremap(VarianceMetric(), decomp, tiny_field)

    def test_scoremap_high_score_fraction(self, tiny_field):
        decomp = CartesianDecomposition(tiny_field.shape, nranks=2, blocks_per_subdomain=(2, 2, 1))
        smap = compute_scoremap(RangeMetric(), decomp, tiny_field)
        frac = smap.high_score_fraction(0.8)
        assert 0.0 <= frac <= 1.0

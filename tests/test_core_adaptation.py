"""Tests for Algorithm 1 and the adaptation controller."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptation import AdaptationController, adapt_percent
from repro.core.config import AdaptationConfig


class TestAdaptPercentAlgorithm1:
    def test_linear_model_inversion(self):
        # t = -1.6 p + 160; target 20 -> p = 87.5 (the paper's first jump).
        assert adapt_percent(20.0, t_prev=0.0, p_prev=100.0, t_curr=160.0, p_curr=0.0) == pytest.approx(87.5)

    def test_vertical_slope_increases_when_too_slow(self):
        assert adapt_percent(10.0, 50.0, 40.0, 50.0, 40.0) == 41.0

    def test_vertical_slope_decreases_when_too_fast(self):
        assert adapt_percent(100.0, 50.0, 40.0, 50.0, 40.0) == 39.0

    def test_vertical_slope_at_bounds(self):
        # Already at 100 and still too slow: stays at 100.
        assert adapt_percent(10.0, 50.0, 100.0, 50.0, 100.0) == 100.0
        # Already at 0 and still too fast: stays at 0.
        assert adapt_percent(100.0, 5.0, 0.0, 5.0, 0.0) == 0.0

    def test_non_negative_slope_bumps_percent(self):
        # Rendering randomness: higher percentage took longer -> a >= 0.
        result = adapt_percent(20.0, t_prev=50.0, p_prev=40.0, t_curr=60.0, p_curr=50.0)
        assert result == 51.0

    def test_non_negative_slope_clamped_at_100(self):
        assert adapt_percent(20.0, 50.0, 90.0, 60.0, 100.0) == 100.0

    def test_result_clamped_to_bounds(self):
        # Extremely fast: the line would ask for a negative percentage.
        result = adapt_percent(1000.0, 0.0, 100.0, 10.0, 50.0)
        assert 0.0 <= result <= 100.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            adapt_percent(0.0, 0.0, 100.0, 10.0, 50.0)

    @settings(deadline=None, max_examples=200)
    @given(
        target=st.floats(min_value=0.1, max_value=500, allow_nan=False),
        t_prev=st.floats(min_value=0.0, max_value=500, allow_nan=False),
        p_prev=st.floats(min_value=0.0, max_value=100, allow_nan=False),
        t_curr=st.floats(min_value=0.0, max_value=500, allow_nan=False),
        p_curr=st.floats(min_value=0.0, max_value=100, allow_nan=False),
    )
    def test_output_always_in_bounds_property(self, target, t_prev, p_prev, t_curr, p_curr):
        """Algorithm 1 always returns a percentage in [0, 100]."""
        result = adapt_percent(target, t_prev, p_prev, t_curr, p_curr)
        assert 0.0 <= result <= 100.0

    @settings(deadline=None, max_examples=100)
    @given(
        target=st.floats(min_value=1.0, max_value=200.0),
        p_curr=st.floats(min_value=0.0, max_value=99.0),
        t_curr=st.floats(min_value=0.0, max_value=400.0),
    )
    def test_too_slow_never_decreases_percent_property(self, target, p_curr, t_curr):
        """When the last iteration exceeded the target, the algorithm never lowers the percentage
        (rendering is monotone in the number of non-reduced blocks)."""
        if t_curr <= target:
            return
        # Previous virtual observation: everything reduced, zero time.
        result = adapt_percent(target, 0.0, 100.0, t_curr, p_curr)
        assert result >= p_curr - 1e-9


class TestAdaptationController:
    def test_first_iteration_uses_initial_percent(self):
        controller = AdaptationController(AdaptationConfig(target_seconds=20.0, initial_percent=0.0))
        assert controller.next_percent == 0.0

    def test_first_observation_uses_seeded_t0(self):
        controller = AdaptationController(AdaptationConfig(target_seconds=20.0))
        nxt = controller.observe(percent=0.0, seconds=160.0)
        assert nxt == pytest.approx(87.5)

    def test_disabled_controller_keeps_percent(self):
        controller = AdaptationController(AdaptationConfig(enabled=False, target_seconds=20.0))
        assert controller.observe(30.0, 100.0) == 30.0
        assert controller.observe(30.0, 5.0) == 30.0

    def test_max_percent_bound(self):
        controller = AdaptationController(
            AdaptationConfig(target_seconds=1.0, initial_percent=0.0, max_percent=50.0)
        )
        nxt = controller.observe(0.0, 200.0)
        assert nxt <= 50.0

    def test_convergence_on_synthetic_linear_system(self):
        """Closed loop against a noiseless linear plant converges to the target."""
        target = 30.0
        controller = AdaptationController(AdaptationConfig(target_seconds=target))

        def plant(percent):
            return 160.0 * (1.0 - percent / 100.0) + 1.0

        percent = controller.next_percent
        times = []
        for _ in range(12):
            t = plant(percent)
            times.append(t)
            percent = controller.observe(percent, t)
        assert abs(times[-1] - target) / target < 0.1
        assert all(abs(t - target) <= 0.2 * target for t in times[-3:])

    def test_convergence_with_noisy_plant(self):
        target = 40.0
        rng = np.random.default_rng(0)
        controller = AdaptationController(AdaptationConfig(target_seconds=target))

        def plant(percent):
            return max(1.0, 160.0 * (1.0 - percent / 100.0) * rng.uniform(0.85, 1.15) + 1.0)

        percent = controller.next_percent
        times = []
        for _ in range(30):
            t = plant(percent)
            times.append(t)
            percent = controller.observe(percent, t)
        tail = np.asarray(times[-10:])
        assert np.abs(tail - target).mean() / target < 0.5

    def test_invalid_observations(self):
        controller = AdaptationController(AdaptationConfig(target_seconds=10.0))
        with pytest.raises(ValueError):
            controller.observe(-1.0, 10.0)
        with pytest.raises(ValueError):
            controller.observe(10.0, -1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptationConfig(target_seconds=-5.0)
        with pytest.raises(ValueError):
            AdaptationConfig(initial_percent=150.0)
        with pytest.raises(ValueError):
            AdaptationConfig(initial_percent=80.0, max_percent=50.0)

"""The experiment scale switch shared by the drivers' benchmarks.

Scenario construction (:class:`~repro.scenarios.scenario.ExperimentScenario`,
``cached_scenario``) lives in :mod:`repro.scenarios.scenario`.
"""

from __future__ import annotations

import os

__all__ = ["bench_scale"]

#: Environment variable selecting the experiment scale ("small" or "full").
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


def bench_scale() -> str:
    """Experiment scale selected through the environment (default "small")."""
    value = os.environ.get(SCALE_ENV_VAR, "small").strip().lower()
    if value not in ("small", "full"):
        raise ValueError(
            f"{SCALE_ENV_VAR} must be 'small' or 'full', got {value!r}"
        )
    return value

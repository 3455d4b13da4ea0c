"""Shared utilities: timers, histograms, validation, deterministic RNG helpers."""

from repro.utils.timer import Timer
from repro.utils.histogram import fixed_range_histogram, probabilities, shannon_entropy
from repro.utils.procpool import (
    chunk_bounds,
    default_process_workers,
    shared_process_pool,
    shutdown_shared_pool,
)
from repro.utils.random import rng_from_seed, derive_seed
from repro.utils.validation import (
    ensure_3d,
    ensure_float_array,
    ensure_positive,
    ensure_in_range,
)

__all__ = [
    "Timer",
    "chunk_bounds",
    "default_process_workers",
    "shared_process_pool",
    "shutdown_shared_pool",
    "fixed_range_histogram",
    "probabilities",
    "shannon_entropy",
    "rng_from_seed",
    "derive_seed",
    "ensure_3d",
    "ensure_float_array",
    "ensure_positive",
    "ensure_in_range",
]

"""Algorithm 1: adapting the percentage of reduced blocks.

The controller assumes (1) the pipeline run time is a monotonically increasing
function of the number of non-reduced blocks and (2) the previous iteration's
time/percentage relationship approximates the current one.  It fits a line
through the two most recent (percentage, time) observations and inverts it to
find the percentage expected to hit the target; guards handle the degenerate
cases (same percentage twice in a row, or an apparently non-decreasing slope
caused by rendering-time randomness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import AdaptationConfig


def adapt_percent(
    target: float,
    t_prev: float,
    p_prev: float,
    t_curr: float,
    p_curr: float,
) -> float:
    """Compute the percentage of blocks to reduce for the next iteration.

    Direct transcription of the paper's Algorithm 1.

    Parameters
    ----------
    target:
        Required run time of the full pipeline (seconds).
    t_prev, p_prev:
        Run time and percentage of the iteration before last
        (``t_{n-1}``, ``p_{n-1}``).
    t_curr, p_curr:
        Run time and percentage of the last iteration (``t_n``, ``p_n``).

    Returns
    -------
    float
        The next percentage ``p_{n+1}`` in [0, 100].
    """
    if target <= 0:
        raise ValueError(f"target must be > 0, got {target}")
    # Lines 2-7: deal with a vertical slope (same percentage twice in a row).
    # The paper works with integer percentages; with fractional ones the +/- 1
    # nudges are clamped so the result always stays in [0, 100].
    if p_prev == p_curr:
        if t_curr > target and p_curr < 100:
            return float(min(100.0, p_curr + 1))
        if t_curr < target and p_curr > 0:
            return float(max(0.0, p_curr - 1))
        return float(p_curr)
    # Lines 8-10: linear estimation t = a * p + b.
    a = (t_curr - t_prev) / (p_curr - p_prev)
    b = t_curr - a * p_curr
    # Line 11: may happen because of randomness in rendering time.
    if a >= 0:
        return float(min(100.0, p_curr + 1))
    # Line 13: estimate the next percentage.
    p_next = (target - b) / a
    # Line 14: make sure p stays within [0, 100].
    return float(min(100.0, max(p_next, 0.0)))


@dataclass
class _Observation:
    percent: float
    seconds: float


class AdaptationController:
    """Stateful wrapper around :func:`adapt_percent`.

    Keeps the two most recent (percentage, run time) observations, the only
    ones the paper's algorithm reads, and nothing older: its memory stays
    the same however long the simulation runs.  It applies the optional user
    bound on the maximum percentage.

    The initial state follows the paper: the (virtual) iteration before the
    first one is taken to be "everything reduced at zero cost"
    (``t_0 = 0, p_0 = 100``) and the first real iteration runs with
    ``initial_percent`` (0 by default).
    """

    def __init__(self, config: AdaptationConfig) -> None:
        self.config = config
        self._prev = _Observation(percent=100.0, seconds=0.0)
        self._curr: Optional[_Observation] = None
        self._next_percent: float = float(config.initial_percent)

    @property
    def next_percent(self) -> float:
        """Percentage the next iteration should use."""
        return self._next_percent

    def observe(self, percent: float, seconds: float) -> float:
        """Record the outcome of an iteration and return the next percentage.

        Parameters
        ----------
        percent:
            Percentage of reduced blocks the iteration actually used.
        seconds:
            Run time of the full pipeline for that iteration.
        """
        if not (0.0 <= percent <= 100.0):
            raise ValueError(f"percent must be in [0, 100], got {percent}")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if not self.config.enabled:
            self._next_percent = float(percent)
            return self._next_percent
        if self._curr is None:
            # First real observation: keep the seeded virtual iteration
            # (t0 = 0 with everything reduced) as the previous point.
            self._curr = _Observation(percent, seconds)
        else:
            self._prev, self._curr = self._curr, _Observation(percent, seconds)
        p_next = adapt_percent(
            self.config.target_seconds,
            self._prev.seconds,
            self._prev.percent,
            self._curr.seconds,
            self._curr.percent,
        )
        self._next_percent = float(min(p_next, self.config.max_percent))
        return self._next_percent

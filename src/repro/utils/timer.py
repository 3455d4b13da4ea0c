"""The stopwatch every pipeline step measures itself with.

The pipeline tracks two independent notions of time: *measured* time —
actual Python wall-clock, obtained with :class:`Timer` — and *modelled* time,
"platform seconds" produced by :mod:`repro.perfmodel`.  Both end up, per rank,
in the step's :class:`~repro.core.step.StepReport`.
"""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """A context-manager stopwatch.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0
        self._running = False

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()
        self._running = True

    def stop(self) -> float:
        """Stop the stopwatch and return the accumulated elapsed time."""
        if self._running and self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._running = False
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Accumulated elapsed seconds (includes the running segment, if any)."""
        if self._running and self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed

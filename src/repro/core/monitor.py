"""Step 6 support: the record of the pipeline's own performance.

The execution engine condenses every iteration into one
:class:`~repro.core.results.IterationResult` — the iteration's
:class:`~repro.core.step.StepReport` per step, from which measured and
modelled times, moved bytes and per-rank triangle counts are read — and the
pipeline records it here.  The adaptation controller is fed the full-pipeline
time of the iteration just recorded; experiment drivers and tests query the
per-step series, and :meth:`PerformanceMonitor.to_run_result` bundles the
recorded iterations into the run result every summary is built from.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.results import IterationResult, PipelineRunResult


class PerformanceMonitor:
    """Collects per-iteration results.

    The monitor accepts whatever step sequence the engine actually ran: the
    series queries validate step names against the steps *recorded* in the
    iteration results (falling back to the canonical :data:`STEPS` of the
    paper's Figure 2 before anything is recorded), so custom steps plugged
    into the composable engine are first-class citizens.
    """

    #: The canonical five data steps of the paper's Figure 2 (the default
    #: step vocabulary before any iteration is recorded).
    STEPS = ("scoring", "sorting", "reduction", "redistribution", "rendering")

    def __init__(self) -> None:
        self._iterations: List[IterationResult] = []

    def _check_step(self, step: str) -> None:
        known = set(self.STEPS)
        for result in self._iterations:
            known.update(result.step_reports)
        if step not in known:
            raise ValueError(
                f"unknown step {step!r}; expected one of {tuple(sorted(known))}"
            )

    # -- recording --------------------------------------------------------------

    def record_iteration(self, result: IterationResult) -> None:
        """Store one iteration's results."""
        self._iterations.append(result)

    # -- queries -----------------------------------------------------------------

    @property
    def niterations(self) -> int:
        """Number of recorded iterations."""
        return len(self._iterations)

    def to_run_result(self, config_summary: Dict[str, object]) -> PipelineRunResult:
        """Bundle the recorded iterations into a :class:`PipelineRunResult`."""
        return PipelineRunResult(config_summary, list(self._iterations))

    def step_series(self, step: str, modelled: bool = True) -> List[float]:
        """Per-iteration seconds of one step (0.0 where it did not run)."""
        self._check_step(step)
        if modelled:
            return [r.modelled_steps.get(step, 0.0) for r in self._iterations]
        return [r.measured_steps.get(step, 0.0) for r in self._iterations]

    def payload_bytes_series(self, step: str) -> List[float]:
        """Per-iteration bytes moved over the network by one step."""
        self._check_step(step)
        return [
            float(r.step_reports[step].payload_bytes) for r in self._iterations
        ]

    def counter_series(self, step: str, counter: str) -> List[float]:
        """Per-iteration value of one step counter (0.0 where absent)."""
        self._check_step(step)
        return [
            float(r.step_reports[step].counters.get(counter, 0.0))
            for r in self._iterations
        ]

"""Figure 11 — the full pipeline (reduction + redistribution) under adaptation.

Same protocol as Figure 10 but with load redistribution enabled, which lets
the pipeline meet much tighter targets (25/10 s on 64 cores, 7/3 s on 400
cores in the paper) because redistribution already removes most of the
load imbalance before any data has to be sacrificed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.scenarios import ExperimentScenario
from repro.experiments.fig10_adaptation import Fig10Result, run_adaptation

#: Target run times per core count used by the paper for Figure 11.
PAPER_FIG11_TARGETS: Dict[int, Sequence[float]] = {
    64: (25.0, 10.0),
    400: (7.0, 3.0),
}


def run_full_pipeline_adaptation(
    scenario: Optional[ExperimentScenario] = None,
    targets: Optional[Sequence[float]] = None,
    niterations: int = 30,
    metric: str = "VAR",
    redistribution: str = "round_robin",
) -> Fig10Result:
    """Reproduce Figure 11."""
    scenario = scenario or ExperimentScenario.blue_waters(64, nsnapshots=10)
    if targets is None:
        targets = PAPER_FIG11_TARGETS.get(scenario.nranks, (25.0, 10.0))
    return run_adaptation(
        scenario,
        targets=targets,
        niterations=niterations,
        metric=metric,
        redistribution=redistribution,
    )

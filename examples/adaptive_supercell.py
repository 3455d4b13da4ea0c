#!/usr/bin/env python
"""Performance-constrained in situ visualization of an evolving supercell.

The full workflow of the paper, at laptop scale:

* a synthetic CM1 supercell evolves over 20 snapshots (it grows and moves);
* the in situ pipeline renders the 45 dBZ isosurface at every snapshot under a
  strict time budget, with and without load redistribution;
* the run compares three configurations, mirroring the paper's Figures 10/11:
  no control at all, adaptation only, and adaptation + round-robin
  redistribution.

Run with::

    python examples/adaptive_supercell.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AdaptationConfig
from repro.scenarios import ExperimentScenario, ScenarioConfig


def run_configuration(scenario, label, redistribution, adaptation, niterations=20):
    """Run one pipeline configuration over the evolving storm."""
    # The vectorized engine scores all ranks' blocks as stacked payload
    # groups; results are identical to engine="serial", only faster.
    pipeline = scenario.build_pipeline(
        metric="VAR",
        redistribution=redistribution,
        adaptation=adaptation,
        engine="vectorized",
    )
    times, percents = [], []
    for i in range(niterations):
        blocks = scenario.blocks_for(i % len(scenario.dataset))
        result, _ = pipeline.process_iteration(blocks)
        times.append(result.modelled_total)
        percents.append(result.percent_reduced)
    print(f"\n[{label}]")
    print("  iteration time (s): " + " ".join(f"{t:6.1f}" for t in times))
    print("  reduced blocks (%): " + " ".join(f"{p:6.1f}" for p in percents))
    print(
        "  mean %.1f s, max %.1f s, final reduction %.0f%%"
        % (float(np.mean(times)), float(np.max(times)), percents[-1])
    )
    return times


def main() -> None:
    scenario = ExperimentScenario(
        ScenarioConfig(
            ncores=32,
            shape=(132, 132, 30),
            blocks_per_subdomain=(2, 2, 4),
            nsnapshots=10,
        )
    )
    baseline = scenario.build_pipeline(metric="VAR", redistribution="none")
    reference, _ = baseline.process_iteration(scenario.blocks_for(0), percent_override=0.0)
    target = reference.modelled_rendering / 6.0
    print(
        "Uncontrolled rendering of snapshot 0 costs %.1f modelled seconds; "
        "setting a budget of %.1f s/iteration." % (reference.modelled_rendering, target)
    )

    no_control = AdaptationConfig(enabled=False, target_seconds=target)
    budget = AdaptationConfig(enabled=True, target_seconds=target)

    run_configuration(scenario, "no control (p=0, no redistribution)", "none", no_control)
    adapt_only = run_configuration(scenario, "adaptation only", "none", budget)
    adapt_redist = run_configuration(
        scenario, "adaptation + round-robin redistribution", "round_robin", budget
    )

    mean_only = float(np.mean(adapt_only[5:]))
    mean_full = float(np.mean(adapt_redist[5:]))
    print(
        "\nAfter warm-up, adaptation alone averages %.1f s and the full pipeline %.1f s "
        "against a %.1f s budget." % (mean_only, mean_full, target)
    )


if __name__ == "__main__":
    main()

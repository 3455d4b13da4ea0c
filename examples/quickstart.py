#!/usr/bin/env python
"""Quickstart: run the adaptive in situ pipeline on a small synthetic storm.

This is the 60-second tour of the library: build a laptop-scale synthetic CM1
dataset, decompose it over a few virtual ranks, and run the six-step
performance-constrained pipeline (score, sort, reduce, redistribute, render,
adapt) with a time budget.  The pipeline's modelled "Blue Waters seconds"
converge to the requested target by reducing low-relevance blocks.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import AdaptationConfig
from repro.scenarios import ExperimentScenario, ScenarioConfig


def main() -> None:
    # A 16-rank scenario: 96x96x24 grid, 16 blocks per rank, 6 snapshots.
    scenario = ExperimentScenario(
        ScenarioConfig(
            ncores=16,
            shape=(96, 96, 24),
            blocks_per_subdomain=(2, 2, 4),
            nsnapshots=6,
        )
    )
    target = 30.0  # seconds per iteration (modelled platform time)
    # The engine backend is configurable ("vectorized" runs each step on
    # stacked payload groups, "serial" loops per block); both give identical runs.
    pipeline = scenario.build_pipeline(
        metric="VAR",
        redistribution="round_robin",
        adaptation=AdaptationConfig(enabled=True, target_seconds=target),
        engine="vectorized",
    )

    print(f"platform        : {scenario.platform.name}")
    print(f"engine          : {pipeline.engine.backend}")
    print(f"blocks/iteration: {scenario.nblocks}")
    print(f"time budget     : {target:.1f} s/iteration\n")
    print(f"{'iter':>4} {'reduced %':>10} {'pipeline s':>11} {'rendering s':>12} {'imbalance':>10}")

    def print_row(result) -> None:
        print(
            f"{result.iteration:>4} {result.percent_reduced:>10.1f} "
            f"{result.modelled_total:>11.1f} {result.modelled_rendering:>12.1f} "
            f"{result.load_imbalance:>10.2f}"
        )

    # Twelve iterations over the six snapshots, one row as each completes.
    feed = (scenario.blocks_for(i % len(scenario.dataset)) for i in range(12))
    run = pipeline.run(feed, on_iteration=print_row)
    summary = run.summary()
    print("\nmean full-pipeline time: %.1f s (target %.1f s)" % (summary["total_mean"], target))
    print("final reduction percentage: %.1f %%" % summary["percent_final"])
    moved = sum(r.step_reports["redistribution"].payload_bytes for r in run.iterations)
    print("redistribution traffic : %.2f MB total" % (moved / 1e6))

if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Compare the block-scoring metrics on a synthetic supercell snapshot.

This example walks through the analysis scientists would do before choosing a
metric for their runs (Sections IV-B and V-B of the paper):

1. score every block of one snapshot with the six representative metrics;
2. look at the pairwise rank agreement between metrics (Figure 3);
3. look at the scoremaps — which regions each metric would preserve (Figure 4);
4. compare the (modelled) cost of each metric for the paper's full-scale
   workload (Table I).

Scoremap images are written under ``examples/output/``.

Run with::

    python examples/metric_comparison.py
"""

from __future__ import annotations

from pathlib import Path

from repro.scenarios import ExperimentScenario, ScenarioConfig
from repro.experiments.fig3_metric_agreement import format_fig3, run_fig3
from repro.experiments.fig4_scoremaps import format_fig4, run_fig4
from repro.experiments.table1_metric_cost import format_table, run_table1
from repro.viz.framebuffer import Framebuffer

OUTPUT_DIR = Path(__file__).parent / "output"


def main() -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    scenario = ExperimentScenario(
        ScenarioConfig(ncores=16, shape=(88, 88, 24), blocks_per_subdomain=(2, 2, 2), nsnapshots=1)
    )

    print(format_table(run_table1(scenario, max_blocks=64)))
    print()
    print(format_fig3(run_fig3(scenario, max_blocks=128)))
    print()
    fig4 = run_fig4(scenario)
    print(format_fig4(fig4))
    Framebuffer.save_array_pgm(fig4.original_slice, OUTPUT_DIR / "scoremap_original_dbz.pgm")
    for name, smap in fig4.scoremaps.items():
        path = OUTPUT_DIR / f"scoremap_{name.lower()}.pgm"
        Framebuffer.save_array_pgm(smap.image, path)
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()

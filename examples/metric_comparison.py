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
from repro.experiments.metric_maps import format_metric_maps, score_snapshot
from repro.experiments.table1_metric_cost import format_table, run_table1
from repro.viz.framebuffer import Framebuffer
from repro.viz.slice_render import extract_slice

OUTPUT_DIR = Path(__file__).parent / "output"


def main() -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    scenario = ExperimentScenario(
        ScenarioConfig(ncores=16, shape=(88, 88, 24), blocks_per_subdomain=(2, 2, 2), nsnapshots=1)
    )

    print(format_table(run_table1(scenario, max_blocks=64)))
    print()
    maps = score_snapshot(scenario)
    print(format_metric_maps(maps))
    field = scenario.field(0)
    Framebuffer.save_array_pgm(extract_slice(field), OUTPUT_DIR / "scoremap_original_dbz.pgm")
    for name, image in zip(maps.names, maps.images):
        path = OUTPUT_DIR / f"scoremap_{name.lower()}.pgm"
        Framebuffer.save_array_pgm(image, path)
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()

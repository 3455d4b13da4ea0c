"""Figure 1 — original vs filtered renderings of the reflectivity field.

Reproduces the four panels of the paper's Figure 1: a volume-style rendering
and a horizontal colormap of the dBZ field, each computed from (a/c) the
original data and (b/d) the data with every block reduced to 2×2×2 corners.
The driver reports the images (as arrays, optionally written to PGM files)
and the modelled rendering cost of both variants — the paper's 50 s → 1 s
observation at 400 cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.scenarios import ExperimentScenario, create_scenario_config
from repro.grid.reduction import reconstruct_block, reduce_block
from repro.viz.framebuffer import Framebuffer
from repro.viz.slice_render import render_colormap_slice
from repro.viz.volume import volume_max_projection


@dataclass
class Fig1Result:
    """Images and timings of the Figure 1 reproduction."""

    volume_original: np.ndarray
    volume_filtered: np.ndarray
    colormap_original: np.ndarray
    colormap_filtered: np.ndarray
    render_seconds_original: float
    render_seconds_filtered: float

    def save(self, directory: Path) -> Dict[str, Path]:
        """Write the four panels as PGM images; returns their paths."""
        directory = Path(directory)
        out = {}
        for name, img in (
            ("fig1a_volume_original", self.volume_original),
            ("fig1b_volume_filtered", self.volume_filtered),
            ("fig1c_colormap_original", self.colormap_original),
            ("fig1d_colormap_filtered", self.colormap_filtered),
        ):
            out[name] = Framebuffer.save_array_pgm(img, directory / f"{name}.pgm")
        return out


def _filtered_field(scenario: ExperimentScenario, snapshot_index: int) -> np.ndarray:
    """Full-domain field where every block has been reduced then re-expanded."""
    shape = scenario.config.shape
    out = np.zeros(shape, dtype=np.float64)
    for blocks in scenario.blocks_for(snapshot_index):
        for block in blocks:
            out[block.extent.slices] = reconstruct_block(reduce_block(block))
    return out


def run_fig1(
    scenario: Optional[ExperimentScenario] = None,
    snapshot_index: int = 0,
    level_index: Optional[int] = None,
) -> Fig1Result:
    """Reproduce the Figure 1 panels and the original-vs-filtered cost gap."""
    scenario = scenario or ExperimentScenario(
        create_scenario_config("blue_waters_64", nsnapshots=1)
    )
    field = scenario.field(snapshot_index).astype(np.float64)
    filtered = _filtered_field(scenario, snapshot_index)

    # Modelled rendering cost of both variants (p = 0 and p = 100).
    pipeline_orig = scenario.build_pipeline(metric="VAR", redistribution="none")
    res_orig, _ = pipeline_orig.process_iteration(
        scenario.blocks_for(snapshot_index), percent_override=0.0
    )
    pipeline_filt = scenario.build_pipeline(metric="VAR", redistribution="none")
    res_filt, _ = pipeline_filt.process_iteration(
        scenario.blocks_for(snapshot_index), percent_override=100.0
    )

    return Fig1Result(
        volume_original=volume_max_projection(field, vmin=-20.0, vmax=75.0),
        volume_filtered=volume_max_projection(filtered, vmin=-20.0, vmax=75.0),
        colormap_original=render_colormap_slice(field, level_index=level_index, vmin=-20.0, vmax=75.0),
        colormap_filtered=render_colormap_slice(filtered, level_index=level_index, vmin=-20.0, vmax=75.0),
        render_seconds_original=res_orig.modelled_rendering,
        render_seconds_filtered=res_filt.modelled_rendering,
    )

#!/usr/bin/env python
"""Render the reflectivity field: isosurface, volume projection, and colormap.

Reproduces the spirit of the paper's Figure 1 at laptop scale: the 45 dBZ
isosurface of the synthetic supercell is extracted with marching cubes and
rasterized by the software renderer, next to a volume-style maximum-intensity
projection and a horizontal colormap — for the original data and for the data
with every block reduced to its 8 corners.

Images are written as PGM files under ``examples/output/``.

Run with::

    python examples/render_reflectivity.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cm1 import CM1Config, CM1Simulation
from repro.scenarios import ExperimentScenario, ScenarioConfig
from repro.experiments.fig1_renderings import run_fig1
from repro.viz.camera import Camera
from repro.viz.framebuffer import Framebuffer
from repro.viz.marching_cubes import marching_cubes
from repro.viz.rasterizer import rasterize_mesh

OUTPUT_DIR = Path(__file__).parent / "output"


def render_isosurface(field: np.ndarray, level: float, path: Path) -> int:
    """Extract and rasterize the ``level`` isosurface; returns the triangle count."""
    mesh = marching_cubes(field, level)
    if mesh.is_empty:
        print(f"  no isosurface at {level} dBZ")
        return 0
    camera = Camera.fit_bounds(*mesh.bounds(), direction=(1.0, -0.7, 0.45))
    fb = Framebuffer(480, 360, background=0.05)
    rasterize_mesh(mesh, camera, fb)
    fb.save_pgm(path)
    print(f"  {mesh.ntriangles} triangles -> {path}")
    return mesh.ntriangles


def main() -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)

    print("Rendering the 45 dBZ isosurface of a standalone snapshot...")
    sim = CM1Simulation(CM1Config(shape=(110, 110, 20)))
    field = np.asarray(sim.snapshot(4).get_field("dbz"), dtype=np.float64)
    render_isosurface(field, 45.0, OUTPUT_DIR / "isosurface_45dbz.pgm")

    print("Reproducing the Figure 1 panels (original vs filtered)...")
    scenario = ExperimentScenario(
        ScenarioConfig(ncores=16, shape=(88, 88, 24), blocks_per_subdomain=(2, 2, 2), nsnapshots=1)
    )
    fig1 = run_fig1(scenario)
    paths = fig1.save(OUTPUT_DIR)
    for name, path in paths.items():
        print(f"  wrote {path}")
    print(
        "  modelled rendering cost: %.1f s (original) vs %.2f s (all blocks reduced)"
        % (fig1.render_seconds_original, fig1.render_seconds_filtered)
    )


if __name__ == "__main__":
    main()

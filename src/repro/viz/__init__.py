"""Visualization substrate: marching cubes, the in situ isosurface script, and
the software rendering behind Figure 1 and the examples.

The paper renders a 45 dBZ isosurface of the reflectivity through ParaView
Catalyst (marching cubes + mesh rendering), plus 2-D colormaps.  This package
provides the equivalent building blocks in pure NumPy, one module each:

* :mod:`~repro.viz.marching_cubes` — isosurface extraction (full 256-case
  tables) and the active-cell counts of counting mode;
* :mod:`~repro.viz.catalyst` — :class:`IsosurfaceScript`, the one script the
  core pipeline's rendering step calls per rank, and its
  :class:`RenderResult`;
* :mod:`~repro.viz.mesh`, :mod:`~repro.viz.camera`,
  :mod:`~repro.viz.framebuffer`, :mod:`~repro.viz.rasterizer` — the extracted
  geometry and a z-buffered Lambert-shaded software rasterizer producing
  actual images (``examples/render_reflectivity.py``);
* :func:`render_colormap_slice`, :func:`volume_max_projection` — the 2-D
  colormap and volume-rendering-style images of Figure 1.

The package re-exports only the names other ``repro`` modules use; import
anything else from its defining module.
"""

from repro.viz.framebuffer import Framebuffer
from repro.viz.slice_render import render_colormap_slice
from repro.viz.volume import volume_max_projection
from repro.viz.catalyst import IsosurfaceScript, RenderResult

__all__ = [
    "Framebuffer",
    "render_colormap_slice",
    "volume_max_projection",
    "IsosurfaceScript",
    "RenderResult",
]

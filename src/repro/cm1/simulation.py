"""The stepping synthetic CM1 simulation.

:class:`CM1Simulation` alternates (as the real CM1 does) between a
"computation phase" — here, generating the next snapshot of the synthetic
storm — and an "I/O / in situ phase" where the produced
:class:`~repro.grid.domain.Domain` is handed to the visualization pipeline.

A snapshot is generated slab by slab.  Only the noise is global: the three
turbulence fields are drawn, filtered and normalised on the whole grid.
Everything else — envelopes, mixing ratios, reflectivity, dBZ and the
float32 cast — is elementwise over any mesh slab, so it runs on x-slabs of
about :data:`_SLAB_BYTES` of float64 each, written straight into the float32
``dbz`` grid.  The bytes are those of the whole grid at once.  The transient
memory peaks at four float64 grids while the noise is drawn (the three
fields and the one temporary of ``std``), where the whole-grid passes took
ten.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.cm1.config import CM1Config
from repro.cm1.microphysics import Microphysics
from repro.cm1.reflectivity import reflectivity_dbz
from repro.cm1.storm import make_storm
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid

#: Storage dtype of the reflectivity field, hence of every full block payload.
FIELD_DTYPE = np.dtype(np.float32)

# Float64 bytes of one x-slab of a snapshot's elementwise passes (whole
# x-planes, at least one).  256 KB keeps a slab's dozen temporaries in cache:
# a blue_waters_64 snapshot (2-CPU x86-64 box, one pinned CPU, median of 20
# interleaved) took 405 ms, against 411 / 426 ms with 1 MB / 4 MB slabs and
# 496 ms for the whole grid at once; 64 KB slabs were slower again (417-425
# ms in shorter runs).  From 4 MB on, the slab temporaries outgrow the
# noise's peak (5.5 float64 grids against 4.0).
_SLAB_BYTES = 256 * 1024


class CM1Simulation:
    """Generates a sequence of synthetic CM1 snapshots.

    Parameters
    ----------
    config:
        Run configuration.  Every snapshot carries the one field the
        pipeline visualises, the reflectivity ``"dbz"``.

    Examples
    --------
    >>> sim = CM1Simulation(CM1Config(shape=(44, 44, 12)))
    >>> domain = sim.snapshot(0)
    >>> sorted(domain.fields)
    ['dbz']
    """

    def __init__(self, config: Optional[CM1Config] = None) -> None:
        self.config = config or CM1Config()
        self.grid = RectilinearGrid.cm1_like(
            self.config.shape,
            horizontal_extent_km=self.config.horizontal_extent_km,
            vertical_extent_km=self.config.vertical_extent_km,
        )
        self.storm = make_storm(self.config.storm)
        self.microphysics = Microphysics(self.storm, seed=self.config.seed)

    # -- coordinates -----------------------------------------------------------

    def _normalised_mesh(self) -> tuple:
        """Open normalised coordinate mesh: arrays of shape ``(nx, 1, 1)``,
        ``(1, ny, 1)`` and ``(1, 1, nz)``.

        Every envelope broadcasts over it (or over an x-slab of it), so only
        the terms that need all three axes are ever evaluated on the full
        shape.
        """

        def normalise(axis: np.ndarray) -> np.ndarray:
            span = axis[-1] - axis[0]
            if span <= 0:
                return np.zeros_like(axis)
            return (axis - axis[0]) / span

        return np.meshgrid(
            normalise(self.grid.x),
            normalise(self.grid.y),
            normalise(self.grid.z),
            indexing="ij",
            sparse=True,
        )

    # -- snapshot generation ---------------------------------------------------------

    def model_iteration(self, snapshot_index: int) -> int:
        """Convert a snapshot index into the model's internal iteration counter."""
        if snapshot_index < 0:
            raise ValueError(f"snapshot_index must be >= 0, got {snapshot_index}")
        return self.config.start_iteration + snapshot_index * self.config.iteration_stride

    def snapshot(self, snapshot_index: int) -> Domain:
        """Produce the :class:`Domain` for ``snapshot_index``: the float32
        reflectivity of the mixing ratios on the open mesh.

        The turbulence is drawn on the whole grid; the mixing ratios and
        their reflectivity are computed one x-slab at a time and cast into
        the float32 field.
        """
        iteration = self.model_iteration(snapshot_index)
        xn, yn, zn = self._normalised_mesh()
        shape = np.broadcast(xn, yn, zn).shape
        turbulence = self.microphysics.turbulence(shape, snapshot_index)
        dbz = np.empty(shape, FIELD_DTYPE)
        rows = max(1, _SLAB_BYTES // (shape[1] * shape[2] * 8))
        for lo in range(0, shape[0], rows):
            ratios = self.microphysics.mixing_ratios(
                xn[lo : lo + rows], yn, zn, snapshot_index, turbulence[:, lo : lo + rows]
            )
            dbz[lo : lo + rows] = reflectivity_dbz(ratios)
        return Domain(grid=self.grid, fields={"dbz": dbz}, iteration=iteration)

    def iterate(self, nsnapshots: int, start: int = 0) -> Iterator[Domain]:
        """Yield ``nsnapshots`` successive snapshots starting at ``start``."""
        if nsnapshots < 0:
            raise ValueError(f"nsnapshots must be >= 0, got {nsnapshots}")
        for i in range(start, start + nsnapshots):
            yield self.snapshot(i)

"""The stepping synthetic CM1 simulation.

:class:`CM1Simulation` alternates (as the real CM1 does) between a
"computation phase" — here, generating the next snapshot of the synthetic
storm — and an "I/O / in situ phase" where the produced
:class:`~repro.grid.domain.Domain` is handed to the visualization pipeline.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.cm1.config import CM1Config
from repro.cm1.dynamics import WindField
from repro.cm1.microphysics import Microphysics
from repro.cm1.reflectivity import reflectivity_dbz
from repro.cm1.state import ModelState
from repro.cm1.storm import make_storm
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid


class CM1Simulation:
    """Generates a sequence of synthetic CM1 snapshots.

    Parameters
    ----------
    config:
        Run configuration.  ``config.fields`` selects which fields each
        snapshot carries; ``"dbz"`` is always present.

    Examples
    --------
    >>> sim = CM1Simulation(CM1Config.tiny())
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
        self.wind = WindField(self.storm)

    # -- coordinates -----------------------------------------------------------

    def _normalised_mesh(self) -> tuple:
        """Open normalised coordinate mesh: arrays of shape ``(nx, 1, 1)``,
        ``(1, ny, 1)`` and ``(1, 1, nz)``.

        Every envelope broadcasts over it, so only the terms that need all
        three axes are ever evaluated on the full grid.
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

    def state(self, snapshot_index: int) -> ModelState:
        """Compute the full model state for ``snapshot_index``."""
        xn, yn, zn = self._normalised_mesh()
        state = ModelState(
            iteration=self.model_iteration(snapshot_index), shape=self.config.shape
        )
        ratios = self.microphysics.mixing_ratios(xn, yn, zn, snapshot_index)
        dbz = reflectivity_dbz(ratios)
        state.add("dbz", dbz)
        wanted = set(self.config.fields)
        for name, arr in ratios.items():
            if name in wanted:
                state.add(name, arr)
        if wanted & {"u", "v", "w", "theta"}:
            winds = self.wind.winds(xn, yn, zn, snapshot_index)
            for name, arr in winds.items():
                if name in wanted:
                    state.add(name, arr)
        return state

    def snapshot(self, snapshot_index: int) -> Domain:
        """Produce the :class:`Domain` for ``snapshot_index``."""
        state = self.state(snapshot_index)
        fields: Dict[str, np.ndarray] = {
            name: state.get(name)
            for name in state.names()
            if name in self.config.fields
        }
        return Domain(grid=self.grid, fields=fields, iteration=state.iteration)

    def iterate(self, nsnapshots: int, start: int = 0) -> Iterator[Domain]:
        """Yield ``nsnapshots`` successive snapshots starting at ``start``."""
        if nsnapshots < 0:
            raise ValueError(f"nsnapshots must be >= 0, got {nsnapshots}")
        for i in range(start, start + nsnapshots):
            yield self.snapshot(i)

"""A catalogue workload made runnable: data, decomposition, calibrated platform.

Workload *parameters* live in :class:`~repro.scenarios.spec.ScenarioConfig`
and the catalogue; this module adds what a run needs on top of a config.  An
:class:`ExperimentScenario` bundles:

* a synthetic CM1 dataset at laptop scale (the paper's 2200×2200×380 grid
  scaled down by 10× per horizontal axis, same aspect ratio) — or a stored
  one replayed through memory maps, which is how ``repro serve`` runs;
* a CM1-style horizontal domain decomposition over the configured number of
  virtual ranks, with a constant number of equally-sized blocks per rank;
* a :class:`~repro.perfmodel.platform.PlatformModel` whose rendering cost is
  **calibrated** so that the reference workload (iteration 0, no reduction,
  no redistribution) costs exactly the paper's baseline on the slowest rank
  (160 s on 64 cores, 50 s on 400 cores) — after which every other number the
  drivers report emerges from the data and the model.

A scenario is built from a resolved config,
``ExperimentScenario(create_scenario_config(name, **overrides))``, and
:func:`cached_scenario` memoises that construction keyed by the full config.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.cm1.config import CM1Config
from repro.cm1.dataset import CM1Dataset
from repro.core.config import AdaptationConfig, PipelineConfig
from repro.core.pipeline import InSituPipeline
from repro.grid.batch import BlockColumns, DecomposedField
from repro.grid.block import Block
from repro.grid.decomposition import CartesianDecomposition, factorize_ranks
from repro.grid.domain import Domain
from repro.io.store import DatasetStore
from repro.perfmodel.calibration import PAPER_BASELINES, calibrate_render_model
from repro.perfmodel.platform import PlatformModel
from repro.scenarios.catalog import create_scenario_config
from repro.scenarios.spec import ScenarioConfig
from repro.simmpi.costmodel import NetworkCostModel
from repro.viz.catalyst import IsosurfaceScript

__all__ = [
    "ExperimentScenario",
    "cached_scenario",
    "live_dataset",
    "render_baseline_seconds",
    "scenario_decomposition",
]


def live_dataset(config: ScenarioConfig) -> CM1Dataset:
    """The CM1 simulation a scenario config describes, as a dataset that keeps
    no snapshot: each caller holds what it needs (a scenario its arrivals, the
    replay cache the store it writes), so a second in-memory copy would only
    double the peak memory.
    """
    storm = {} if config.storm is None else {"storm": config.storm}
    cm1 = CM1Config(shape=config.shape, seed=config.seed, **storm)
    return CM1Dataset(cm1, nsnapshots=config.nsnapshots, cache=False)


@dataclass(frozen=True)
class ExchangeCalibratedNetwork(NetworkCostModel):
    """Network model whose block-exchange bandwidth is calibrated separately.

    Latency-bound collectives (barrier, the score sort's gather/broadcast) use
    the physical Blue Waters parameters, while the personalised all-to-all of
    the redistribution step uses an *effective* bandwidth calibrated so that a
    full exchange of this repository's (much smaller) blocks costs what the
    paper measured (~1.2 s on 64 cores, ~0.6 s on 400).
    """

    exchange_bandwidth: float = 6.0e9

    def alltoallv(self, send_matrix_bytes, nranks: int) -> float:
        effective = NetworkCostModel(
            latency=self.latency,
            bandwidth=self.exchange_bandwidth,
            per_rank_overhead=self.per_rank_overhead,
        )
        return effective.alltoallv(send_matrix_bytes, nranks)


def scenario_decomposition(config: ScenarioConfig) -> CartesianDecomposition:
    """The block decomposition ``config`` runs on.

    CM1 decomposes horizontally, so each vertical column stays on one rank.
    ``ValueError`` when the grid cannot host ``config.ncores`` ranks' block
    columns.
    """
    px, py = factorize_ranks(config.ncores, ndims=2)
    return CartesianDecomposition(
        global_shape=config.shape,
        nranks=config.ncores,
        blocks_per_subdomain=config.blocks_per_subdomain,
        rank_dims_override=(px, py, 1),
    )


def render_baseline_seconds(ncores: int) -> float:
    """The paper's no-reduction/no-redistribution rendering baseline for ``ncores``."""
    baselines = PAPER_BASELINES["render_none"]
    if ncores in baselines:
        return baselines[ncores]
    # Scale the 64-core baseline by the core ratio for other configurations.
    return baselines[64] * 64.0 / float(ncores)


class ExperimentScenario:
    """Dataset + decomposition + calibrated platform for one configuration.

    ``dataset`` (optional) replaces the live CM1 simulation with any object
    exposing the :class:`~repro.cm1.dataset.CM1Dataset` access surface
    (``select``, ``per_rank_blocks``) — typically a
    :class:`~repro.cm1.dataset.StoredCM1Dataset` opened with ``mmap=True``,
    which is how the serve mode's replay cache avoids re-simulating CM1.

    A scenario keeps each snapshot once, as the arrival :meth:`blocks_for`
    caches: the live dataset keeps no ``Domain``, and a full-grid reader asks
    :meth:`field`, which assembles the grid back from the arrival.  Building a
    live ``decaying_storm`` scenario and its whole feed retains 1.006x its
    ``nsnapshots`` fields under ``tracemalloc``; with the ``Domain`` cache it
    kept 2.0x (``tests/test_cm1.py::TestLiveScenarioMemory``).
    """

    def __init__(self, config: ScenarioConfig, dataset=None) -> None:
        self.config = config
        self.dataset = dataset if dataset is not None else live_dataset(config)
        self.decomposition = scenario_decomposition(config)
        self._blocks_cache: Dict[int, DecomposedField] = {}
        self.platform = self._calibrated_platform()

    @classmethod
    def from_store(cls, config: ScenarioConfig, store_dir) -> "ExperimentScenario":
        """Scenario replaying the dataset store at ``store_dir`` through
        read-only memory maps: zero-copy, bitwise the live simulation."""
        dataset = CM1Dataset.load(store_dir, field_name=config.field_name, mmap=True)
        return cls(config, dataset=dataset)

    # -- data access --------------------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of virtual ranks of the scenario."""
        return self.config.ncores

    @property
    def nblocks(self) -> int:
        """Total number of blocks per iteration."""
        return self.decomposition.nblocks

    def blocks_for(self, snapshot_index: int) -> DecomposedField:
        """Per-rank block lists of one snapshot (cached; pre-stacked by the dataset).

        Threads sharing the scenario share one arrival per snapshot: two that
        decompose the same snapshot together both return the copy stored first.
        """
        blocks = self._blocks_cache.get(snapshot_index)
        if blocks is None:
            blocks = self._blocks_cache.setdefault(
                snapshot_index,
                self.dataset.per_rank_blocks(
                    self.decomposition, snapshot_index, self.config.field_name
                ),
            )
        return blocks

    def field(self, snapshot_index: int) -> np.ndarray:
        """The global field of one snapshot, assembled from its cached arrival
        (:meth:`~repro.grid.batch.DecomposedField.field`): bitwise the dataset's
        field, a new array the caller owns, and no CM1 step re-run."""
        return self.blocks_for(snapshot_index).field()

    def save(self, directory, extra_metadata: Optional[dict] = None) -> DatasetStore:
        """Persist every snapshot of the live dataset to a store at ``directory``,
        byte for byte what ``self.dataset.save`` writes, from the assembled
        fields instead of a second CM1 run."""
        simulation = self.dataset.simulation
        domains = (
            Domain(
                grid=simulation.grid,
                fields={self.config.field_name: self.field(index)},
                iteration=simulation.model_iteration(index),
            )
            for index in range(self.config.nsnapshots)
        )
        return self.dataset.save(directory, extra_metadata, domains=domains)

    def stream_iteration_blocks(self, count: Optional[int] = None) -> Iterator[Sequence]:
        """Yield the blocks of ``count`` equally spaced snapshots (default: all),
        each read and decomposed only when asked for — a run fed this reports
        iteration 0 before snapshot 1 is touched."""
        count = self.config.nsnapshots if count is None else count
        for index in self.dataset.select(count):
            yield self.blocks_for(index)

    def iteration_blocks(self, count: Optional[int] = None) -> List[Sequence]:
        """Blocks of ``count`` equally spaced snapshots (default: all)."""
        return list(self.stream_iteration_blocks(count))

    def all_blocks(self, snapshot_index: int = 0) -> List[Block]:
        """Flat list of every block of one snapshot."""
        return [b for rank_blocks in self.blocks_for(snapshot_index) for b in rank_blocks]

    # -- calibration ---------------------------------------------------------------

    def reference_workload(self) -> Dict[str, int]:
        """Work counts of the slowest rank at iteration 0, p=0, no redistribution."""
        script = IsosurfaceScript(level=self.config.isosurface_level, mode="count")
        columns = BlockColumns(self.blocks_for(0))
        triangles = columns.per_rank_sum(
            script.triangles_from_cells(script.count_groups(columns.groups))
        )
        # Among equally loaded ranks the last one is the reference.
        rank = max(range(len(triangles)), key=lambda r: (triangles[r], r))
        return {
            "triangles": triangles[rank],
            "points": columns.per_rank_sum(columns.npoints)[rank],
            "blocks": columns.rank_sizes()[rank],
        }

    def _calibrated_platform(self) -> PlatformModel:
        platform = PlatformModel.blue_waters(self.config.ncores)
        worst = self.reference_workload()
        if worst["triangles"] <= 0:
            # Degenerate scenario (no isosurface at iteration 0): keep defaults.
            return platform
        render = calibrate_render_model(
            max_rank_triangles=worst["triangles"],
            max_rank_points=worst["points"],
            max_rank_blocks=worst["blocks"],
            target_seconds=render_baseline_seconds(self.config.ncores),
        )
        network = self._calibrated_network()
        return PlatformModel(
            name=platform.name,
            ncores=platform.ncores,
            network=network,
            render=render,
            metric_costs=dict(platform.metric_costs),
        )

    def _calibrated_network(self) -> NetworkCostModel:
        """Effective network model anchored to the paper's redistribution cost.

        The paper measures ~1.2 s (64 cores) / ~0.6 s (400 cores) to exchange
        the full set of unreduced blocks.  Our synthetic blocks are much
        smaller than the paper's 55x55x38 ones, so the physical Gemini
        bandwidth would make the exchange vanish; instead the *exchange*
        bandwidth is set so that a full shuffle of iteration 0 at 0 percent
        reduced costs the paper's baseline — preserving the relative shape of
        Figure 8 (communication time decreasing with the reduction
        percentage) at the paper's absolute scale.  All other collectives
        (notably the score sort) keep the physical parameters.
        """
        baselines = PAPER_BASELINES["redistribution_comm"]
        target = baselines.get(self.config.ncores)
        if target is None:
            target = baselines[64] * 64.0 / float(self.config.ncores)
        total_bytes = int(BlockColumns(self.blocks_for(0)).nbytes.sum())
        nranks = max(self.nranks, 2)
        # Worst-rank send+receive volume of a full exchange (uniform estimate).
        worst_bytes = 2.0 * total_bytes * (nranks - 1) / nranks / nranks
        default = NetworkCostModel.blue_waters()
        if worst_bytes <= 0 or target <= 0:
            return default
        return ExchangeCalibratedNetwork(
            latency=default.latency,
            bandwidth=default.bandwidth,
            per_rank_overhead=default.per_rank_overhead,
            exchange_bandwidth=worst_bytes / target,
        )

    # -- pipeline construction ------------------------------------------------------

    def build_pipeline(
        self,
        metric: str = "VAR",
        redistribution: str = "none",
        adaptation: Optional[AdaptationConfig] = None,
        render_mode: str = "count",
        engine: Optional[str] = None,
        quality_ladder: Optional[tuple] = None,
    ) -> InSituPipeline:
        """Build a pipeline wired to this scenario's platform and rank count.

        ``engine`` selects the step classes ("vectorized", or the "serial"
        oracle; "parallel" and "process" alias "vectorized"); the default
        follows :class:`PipelineConfig` (vectorized).
        ``quality_ladder`` forwards a reduction quality ladder (``(level,
        fraction)`` rungs); ``None`` keeps the all-corners default.
        """
        config = PipelineConfig(
            metric=metric,
            redistribution=redistribution,
            isosurface_level=self.config.isosurface_level,
            render_mode=render_mode,
            adaptation=adaptation
            if adaptation is not None
            else AdaptationConfig(enabled=False, target_seconds=1.0),
            shuffle_seed=self.config.seed,
            **({} if engine is None else {"engine": engine}),
            **({} if quality_ladder is None else {"quality_ladder": quality_ladder}),
        )
        return InSituPipeline(config, self.platform, nranks=self.nranks)


@lru_cache(maxsize=8)
def _scenario_for_config(config: ScenarioConfig) -> ExperimentScenario:
    """Memoised scenario construction keyed by the *full* config.

    ``ScenarioConfig`` is frozen and hashable, so two workloads that happen
    to share a scale (say ``tiny`` and ``turbulence_field`` at 4 ranks / 2
    snapshots) occupy distinct cache slots — the cache key is the scenario's
    identity, not its size.
    """
    return ExperimentScenario(config)


def cached_scenario(
    name: str, ncores: Optional[int] = None, nsnapshots: Optional[int] = None
) -> ExperimentScenario:
    """Memoised scenario construction shared by the benchmark modules.

    Building a scenario generates the synthetic dataset and calibrates the
    platform, which takes a few seconds at the 400-rank scale; the benchmarks
    for different figures share the same scenario through this cache.
    ``name`` selects a catalogue workload, ``ncores`` / ``nsnapshots``
    override its scale.
    """
    return _scenario_for_config(
        create_scenario_config(name, ncores=ncores, nsnapshots=nsnapshots)
    )

"""Step 4: load redistribution (shuffling) of blocks across processes.

Because every rank holds the same globally sorted block list, every rank can
compute the same target assignment without additional coordination, then
exchange the block payloads with non-blocking point-to-point messages —
modelled here by one personalised all-to-all.

Strategies only return their assignment, as a pair of parallel NumPy arrays
``(block_ids, dest_ranks)``, dealt from the sorted ``(N, 2)`` wire array (or
tuples, which deal the same); :class:`RedistributionStep` plans the exchange in
one global pass over the metadata columns of ``context.columns``, the
iteration's columnar state
(:class:`~repro.grid.batch.BlockColumns`) — on every backend, ``serial``
included: every destination is resolved with one ``np.searchsorted`` over the
id-sorted assignment, the movers' payload bytes are accumulated into the
``P x P`` byte matrix, the communicator charges that matrix
(``charge_alltoallv``), and the holder/owner columns and each rank's order (one
``np.lexsort`` by destination, block id) are rewritten.  No payload is
stacked, copied or serialised, and a ``Block`` is re-created only if somebody
later asks for the lists, and only where its owner changed.

*Wire size* has one definition, payload bytes (``Block.nbytes``): the matrix
total, the step report's ``payload_bytes`` and the communicator's ``stats["alltoallv"]["bytes"]`` are the same number, the one
the scenario's exchange bandwidth is calibrated on.

Two strategies from the paper are provided, plus the no-op:

* :class:`RandomShuffle` — each process receives a random set of blocks (the
  per-process block count stays constant); all ranks derive the permutation
  from the same seed.  Ignores the scores.  This is the paper's baseline.
* :class:`RoundRobin` — blocks sorted by *decreasing* score are dealt to
  processes 0, 1, 2, ... in turn, so the rendering load of the high-score
  region is spread evenly.
* :class:`NoRedistribution` — keep the initial, content-oblivious domain
  decomposition.
"""

from __future__ import annotations

import abc
from typing import Dict, Tuple, Type

import numpy as np

from repro.core.step import IterationContext, SortedOrder, StepReport
from repro.simmpi.communicator import BSPCommunicator
from repro.utils.random import derive_seed, rng_from_seed
from repro.utils.timer import Timer

#: A strategy's assignment: parallel ``(block_ids, dest_ranks)`` int64 arrays
#: (ids need not be sorted; blocks not listed stay with their current rank).
OwnerAssignment = Tuple[np.ndarray, np.ndarray]


def _sorted_ids(sorted_pairs: SortedOrder) -> np.ndarray:
    """The int64 block ids of a sorted order, in that order."""
    wire = np.asarray(sorted_pairs, dtype=np.float64).reshape(-1, 2)
    return wire[:, 0].astype(np.int64)


class RedistributionStrategy(abc.ABC):
    """Computes the target owner of every block."""

    name = "strategy"

    @abc.abstractmethod
    def assign_owners(
        self,
        sorted_pairs: SortedOrder,
        nranks: int,
        iteration: int,
    ) -> OwnerAssignment:
        """Return the assignment as parallel ``(block_ids, dest_ranks)`` arrays."""


class NoRedistribution(RedistributionStrategy):
    """Keep the original owners (the paper's "NONE" configuration)."""

    name = "none"

    def assign_owners(
        self, sorted_pairs: SortedOrder, nranks: int, iteration: int
    ) -> OwnerAssignment:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty


class RandomShuffle(RedistributionStrategy):
    """Random assignment of blocks to ranks, same seed on every rank."""

    name = "shuffle"

    def __init__(self, seed: int = 2016) -> None:
        self.seed = int(seed)

    def assign_owners(
        self, sorted_pairs: SortedOrder, nranks: int, iteration: int
    ) -> OwnerAssignment:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        block_ids = np.sort(_sorted_ids(sorted_pairs))
        nblocks = len(block_ids)
        # Constant number of blocks per process: deal rank labels then shuffle.
        labels = np.arange(nblocks, dtype=np.int64) % nranks
        rng = rng_from_seed(derive_seed(self.seed, "shuffle", iteration))
        rng.shuffle(labels)
        return block_ids, labels


class RoundRobin(RedistributionStrategy):
    """Deal blocks to ranks in decreasing score order."""

    name = "round_robin"

    def assign_owners(
        self, sorted_pairs: SortedOrder, nranks: int, iteration: int
    ) -> OwnerAssignment:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        block_ids = _sorted_ids(sorted_pairs)
        nblocks = len(block_ids)
        # sorted_pairs is ascending; the paper deals from the highest score,
        # so the block at ascending index i sits at dealing position
        # nblocks - 1 - i.
        dests = (nblocks - 1 - np.arange(nblocks, dtype=np.int64)) % nranks
        return block_ids, dests


class RedistributionStep:
    """The pipeline step around a :class:`RedistributionStrategy`.

    The strategies stay independent of the step contract — they only compute
    an assignment from the sorted pairs; this step binds one strategy to the
    pipeline's communicator, plans and charges the exchange, and reports it
    as a collective.
    """

    name = "redistribution"

    def __init__(self, strategy: RedistributionStrategy, comm: BSPCommunicator) -> None:
        self.strategy = strategy
        self.comm = comm

    def execute(self, context: IterationContext) -> StepReport:
        """Plan and charge the exchange on the context's metadata columns alone.

        Rewrites the columns' holder/owner columns and per-rank order (by
        block id); the report carries the measured wall-clock, the modelled
        communication seconds, the exchanged payload bytes and the number of
        blocks that moved.  Blocks the assignment does not list stay on the
        rank that holds them; block ids are globally unique.
        :class:`NoRedistribution` skips the exchange entirely (no
        communication, no modelled cost) but refreshes the owner metadata
        exactly like the exchanging path does for kept blocks — every strategy
        leaves ``block.owner`` equal to the rank that actually holds the block.
        """
        columns, comm = context.columns, self.comm
        sorted_wire = context.require_sorted_array()
        if isinstance(self.strategy, NoRedistribution):
            with Timer() as timer:
                columns.set_owners(columns.ranks)
            return StepReport.collective(
                self.name,
                measured=timer.elapsed,
                modelled=0.0,
                counters={"moved_blocks": 0.0},
            )
        nranks = comm.nranks
        assigned_ids, assigned_dests = self.strategy.assign_owners(
            sorted_wire, nranks, context.iteration
        )
        with Timer() as timer:
            src = columns.ranks
            dest = columns.lookup(
                np.asarray(assigned_ids, dtype=np.int64),
                np.asarray(assigned_dests, dtype=np.int64),
                src,
            )
            if dest.size and (dest.min() < 0 or dest.max() >= nranks):
                raise ValueError(f"block destination outside [0, {nranks})")
            movers = np.flatnonzero(dest != src)
            mover_bytes = columns.nbytes[movers]
            matrix = np.zeros((nranks, nranks), dtype=np.int64)
            np.add.at(matrix, (src[movers], dest[movers]), mover_bytes)
            modelled = comm.charge_alltoallv(matrix)
            columns.move(dest, nranks)
        return StepReport.collective(
            self.name,
            measured=timer.elapsed,
            modelled=modelled,
            payload_bytes=float(mover_bytes.sum()),
            counters={"moved_blocks": float(movers.size)},
        )


#: Every strategy by the name ``PipelineConfig.redistribution``, ``RunRequest``
#: and ``--redistribution`` accept.
STRATEGIES: Dict[str, Type[RedistributionStrategy]] = {
    strategy.name: strategy
    for strategy in (NoRedistribution, RandomShuffle, RoundRobin)
}


def make_strategy(name: str, seed: int = 2016) -> RedistributionStrategy:
    """The strategy registered as ``name`` (a key of :data:`STRATEGIES`);
    ``seed`` is the random shuffle's."""
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown redistribution strategy {name!r}; "
            f"expected one of {tuple(STRATEGIES)}"
        )
    if name == RandomShuffle.name:
        return RandomShuffle(seed=seed)
    return STRATEGIES[name]()

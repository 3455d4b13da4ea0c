"""The redistribution planner against its per-rank oracle, for arbitrary layouts.

``oracle_redistribute`` is the per-rank list-of-lists planner the global pass
in ``repro.core.redistribution`` replaced: it builds ``send_lists``, exchanges
them through the list all-to-all ``oracle_alltoallv``, transposes, and sorts
every rank's list.  Both live here because only these tests use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.redistribution import (
    NoRedistribution,
    RandomShuffle,
    RedistributionStep,
    RoundRobin,
)
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import IterationContext
from repro.grid.block import Block, BlockExtent, level_shape
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.costmodel import NetworkCostModel

EXTENT = BlockExtent((0, 0, 0), (5, 4, 3))


def wire(pairs):
    """``(id, score)`` tuples as the ``(n, 2)`` float64 wire array the steps pass on."""
    return np.array(pairs, dtype=np.float64).reshape(-1, 2)


def oracle_alltoallv(comm, send_lists):
    """``BSPCommunicator.alltoallv`` as it stood in ``src/``: the list form of
    the personalised all-to-all.

    ``send_lists[i][j]`` is the list of blocks rank ``i`` sends to rank ``j``
    (``None`` meaning nothing); returns ``recv[j][i]``.  A payload is sized
    as its blocks' ``nbytes`` and the byte matrix is charged through
    ``comm.charge_alltoallv``.
    """
    nranks = comm.nranks
    matrix = np.zeros((nranks, nranks), dtype=np.int64)
    recv = [[None] * nranks for _ in range(nranks)]
    for i, row in enumerate(send_lists):
        for j, payload in enumerate(row):
            if payload is None:
                continue
            matrix[i, j] = sum(block.nbytes for block in payload)
            recv[j][i] = payload
    comm.charge_alltoallv(matrix)
    return recv


def oracle_redistribute(strategy, comm, per_rank_blocks, sorted_array, iteration):
    """The planner as it stood before the global pass, rank by rank.

    ``comm`` must be fresh: the modelled seconds are read off its ``stats``.
    """
    nranks = comm.nranks
    if isinstance(strategy, NoRedistribution):
        out = [
            [b if b.owner == rank else replace(b, owner=rank) for b in blocks]
            for rank, blocks in enumerate(per_rank_blocks)
        ]
        return out, {"modelled": 0.0, "moved_bytes": 0.0, "moved_blocks": 0.0}
    assigned_ids, assigned_dests = strategy.assign_owners(sorted_array, nranks, iteration)
    assigned_ids = np.asarray(assigned_ids, dtype=np.int64)
    assigned_dests = np.asarray(assigned_dests, dtype=np.int64)
    order = np.argsort(assigned_ids, kind="stable")
    ids_sorted = assigned_ids[order]
    dests_sorted = assigned_dests[order]
    send_lists = [[None] * nranks for _ in range(nranks)]
    kept = [[] for _ in range(nranks)]
    moved_bytes = 0
    moved_blocks = 0
    for rank, blocks in enumerate(per_rank_blocks):
        if not blocks:
            continue
        block_ids = np.fromiter(
            (b.block_id for b in blocks), dtype=np.int64, count=len(blocks)
        )
        if ids_sorted.size:
            pos = np.minimum(
                np.searchsorted(ids_sorted, block_ids), ids_sorted.size - 1
            )
            assigned = ids_sorted[pos] == block_ids
            dest = np.where(assigned, dests_sorted[pos], rank)
        else:
            dest = np.full(len(blocks), rank, dtype=np.int64)
        staying = dest == rank
        kept[rank] = [
            blocks[i] if blocks[i].owner == rank else replace(blocks[i], owner=rank)
            for i in np.flatnonzero(staying)
        ]
        movers = np.flatnonzero(~staying)
        if not movers.size:
            continue
        mover_dest = dest[movers]
        # Stable sort groups movers by destination while preserving input
        # order within each destination.
        grouped = movers[np.argsort(mover_dest, kind="stable")]
        counts = np.bincount(mover_dest, minlength=nranks)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for dest_rank in np.flatnonzero(counts):
            send_lists[rank][dest_rank] = [
                replace(blocks[i], owner=int(dest_rank))
                for i in grouped[bounds[dest_rank] : bounds[dest_rank + 1]]
            ]
        moved_blocks += int(movers.size)
        moved_bytes += int(sum(blocks[i].nbytes for i in movers))
    received = oracle_alltoallv(comm, send_lists)
    new_blocks = []
    for rank in range(nranks):
        mine = list(kept[rank])
        for src in range(nranks):
            payload = received[rank][src]
            if payload:
                mine.extend(payload)
        mine.sort(key=lambda b: b.block_id)
        new_blocks.append(mine)
    info = {
        "modelled": comm.stats["alltoallv"]["seconds"],
        "moved_bytes": float(moved_bytes),
        "moved_blocks": float(moved_blocks),
    }
    return new_blocks, info


@dataclass(frozen=True)
class RecordingNetwork(NetworkCostModel):
    """Cost model that keeps every byte matrix it was asked to price."""

    matrices: List[np.ndarray] = field(default_factory=list, compare=False)

    def alltoallv(self, send_matrix_bytes, nranks: int) -> float:
        self.matrices.append(np.array(send_matrix_bytes))
        return super().alltoallv(send_matrix_bytes, nranks)


@dataclass
class Layout:
    nranks: int
    per_rank_blocks: List[List[Block]]
    sorted_array: np.ndarray


@st.composite
def layouts(draw) -> Layout:
    """Any layout a pipeline step could hand over, and several it would not.

    Uneven and empty ranks, per-rank lists in arbitrary id order, ``owner``
    fields that disagree with the holding rank (or name no rank at all),
    blocks on every ladder level, and score pairs that list only some of the
    held blocks plus ids nobody holds.
    """
    nranks = draw(st.integers(1, 6))
    block_ids = draw(st.lists(st.integers(0, 60), unique=True, max_size=24))
    per_rank_blocks: List[List[Block]] = [[] for _ in range(nranks)]
    for block_id in block_ids:
        level = draw(st.sampled_from((0, 1, 2)))
        data = np.full(level_shape(level, EXTENT.shape), block_id, dtype=np.float32)
        block = Block(
            block_id,
            EXTENT,
            data,
            owner=draw(st.integers(0, nranks + 2)),
            level=level,
        )
        per_rank_blocks[draw(st.integers(0, nranks - 1))].append(block)
    listed = draw(st.lists(st.integers(0, 70), unique=True, max_size=30))
    scores = draw(
        st.lists(st.integers(0, 4), min_size=len(listed), max_size=len(listed))
    )
    sorted_pairs = sorted(
        ((i, float(s)) for i, s in zip(listed, scores)), key=lambda p: (p[1], p[0])
    )
    return Layout(nranks, per_rank_blocks, wire(sorted_pairs))


def signature(per_rank_blocks):
    """What must match between planner and oracle: ids, owners, order."""
    return [[(b.block_id, b.owner) for b in blocks] for blocks in per_rank_blocks]


@pytest.mark.parametrize(
    "strategy",
    [NoRedistribution(), RandomShuffle(seed=11), RoundRobin()],
    ids=lambda s: s.name,
)
class TestPlannerAgainstOracle:
    """One test body shared by every strategy."""

    @settings(max_examples=120, deadline=None)
    @given(layout=layouts(), iteration=st.integers(0, 3))
    def test_equivalence_conservation_and_byte_totals(self, strategy, layout, iteration):
        network = RecordingNetwork()
        comm = BSPCommunicator(layout.nranks, cost_model=network)
        context = IterationContext(
            iteration=iteration,
            percent=0.0,
            per_rank_blocks=layout.per_rank_blocks,
            sorted_array=layout.sorted_array,
        )
        report = RedistributionStep(strategy, comm).execute(context)
        out = context.columns.to_ranks()
        expected, info = oracle_redistribute(
            strategy,
            BSPCommunicator(layout.nranks),
            layout.per_rank_blocks,
            layout.sorted_array,
            iteration,
        )

        # Planner ≡ oracle: ids, owners, order, payload identity, counters.
        assert signature(out) == signature(expected)
        for mine, theirs in zip(out, expected):
            assert all(a.data is b.data for a, b in zip(mine, theirs))
        assert report.payload_bytes == info["moved_bytes"]
        assert report.counters["moved_blocks"] == info["moved_blocks"]
        assert report.modelled_max == info["modelled"]

        # Conservation: same blocks, same payload bytes, owner = holder.
        before = [b for blocks in layout.per_rank_blocks for b in blocks]
        after = [b for blocks in out for b in blocks]
        assert sorted(b.block_id for b in after) == sorted(b.block_id for b in before)
        assert sum(b.nbytes for b in after) == sum(b.nbytes for b in before)
        assert {id(b.data) for b in after} == {id(b.data) for b in before}
        for rank, blocks in enumerate(out):
            assert all(b.owner == rank for b in blocks)

        # One definition of bytes moved.
        matrix_bytes = sum(int(m.sum()) for m in network.matrices)
        recorded = comm.stats.get("alltoallv", {"bytes": 0.0})["bytes"]
        assert matrix_bytes == recorded == report.payload_bytes


def _tiny_exchange(strategy, comm, run_step):
    """The report of ``strategy``'s exchange of six blocks over three ranks."""
    blocks = [
        Block(i, EXTENT, np.zeros(EXTENT.shape, dtype=np.float32), owner=i % 2)
        for i in range(6)
    ]
    pairs = wire([(i, float(i)) for i in range(6)])
    step = RedistributionStep(strategy, comm)
    return run_step(step, [blocks[0::2], blocks[1::2], []], sorted_array=pairs)[1]


def test_modelled_seconds_do_not_depend_on_communicator_history(run_step):
    """Regression: the exchange's cost used to be read back as
    ``(S + c) - S`` off the communicator's running total, so the same
    exchange reported different floats after unrelated collectives."""
    fresh = BSPCommunicator(3)
    used = BSPCommunicator(3)
    for _ in range(7):
        used.gather([np.zeros(3), np.zeros(5), np.zeros(7)])
    on_fresh = _tiny_exchange(RoundRobin(), fresh, run_step)
    on_used = _tiny_exchange(RoundRobin(), used, run_step)
    assert on_fresh.modelled_max == on_used.modelled_max > 0.0


@pytest.mark.parametrize("step_cls", [SortingStep, VectorizedSortingStep])
def test_sorting_seconds_do_not_depend_on_communicator_history(step_cls):
    """The sorting twin: its gather + broadcast used to be read back as a
    difference of the communicator's running total."""
    pair_arrays = [wire([(0, 2.0), (3, 0.5)]), wire([(1, 0.5)]), wire([(2, 1.0), (4, 3.0)])]
    fresh = BSPCommunicator(3)
    used = BSPCommunicator(3)
    for _ in range(7):
        used.gather([np.zeros(3), np.zeros(5), np.zeros(7)])
    on_fresh, on_used = (
        step_cls(comm).execute(
            IterationContext(0, 50.0, [[], [], []], pair_arrays=pair_arrays)
        )
        for comm in (fresh, used)
    )
    assert on_fresh.modelled_per_rank == on_used.modelled_per_rank
    assert on_fresh.modelled_max > 0.0
    assert on_fresh.payload_bytes == on_used.payload_bytes > 0.0
    # Exactly the two collectives it issued, nothing from the history (which
    # is gathers too, so the fresh communicator's record is the one to read).
    assert on_used.modelled_max == (
        fresh.stats["gather"]["seconds"] + fresh.stats["bcast"]["seconds"]
    )


def test_oracle_alltoallv_transposes_and_charges_the_block_bytes():
    """The exchange oracle itself: ``recv[j][i]`` is what rank ``i`` sent
    to ``j``, and the charge is the payloads' bytes, self-sends excluded."""
    full = Block(0, EXTENT, np.zeros(EXTENT.shape, dtype=np.float32))
    corners = Block(1, EXTENT, np.zeros((2, 2, 2), dtype=np.float32), level=2)
    send = [[[full], [corners], None], [None, None, [full, corners]], [[corners], None, None]]
    comm = BSPCommunicator(3)
    recv = oracle_alltoallv(comm, send)
    for i in range(3):
        for j in range(3):
            assert recv[j][i] is send[i][j]
    by_matrix = BSPCommunicator(3)
    by_matrix.charge_alltoallv(
        np.array([[full.nbytes, corners.nbytes, 0], [0, 0, full.nbytes + corners.nbytes],
                  [corners.nbytes, 0, 0]])
    )
    assert comm.stats == by_matrix.stats
    assert comm.stats["alltoallv"]["bytes"] == corners.nbytes * 3 + full.nbytes


def test_out_of_range_destination_rejected(run_step):
    class Astray(RoundRobin):
        def assign_owners(self, sorted_array, nranks, iteration):
            ids, dests = super().assign_owners(sorted_array, nranks, iteration)
            return ids, dests + nranks

    with pytest.raises(ValueError, match="destination"):
        _tiny_exchange(Astray(), BSPCommunicator(3), run_step)


def test_no_pickling_on_the_redistribution_path(monkeypatch, run_step):
    import pickle

    def forbidden(*args, **kwargs):
        raise AssertionError("pickle.dumps reached from redistribution")

    monkeypatch.setattr(pickle, "dumps", forbidden)
    assert _tiny_exchange(RoundRobin(), BSPCommunicator(3), run_step).payload_bytes > 0

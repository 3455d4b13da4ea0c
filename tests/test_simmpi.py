"""Tests for repro.simmpi: cost model, BSP communicator, the two sort twins."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import CATALOGUE
from repro.simmpi.communicator import BSPCommunicator, _payload_nbytes
from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.sort import (
    pairs_from_wire,
    parallel_sort_pairs,
    parallel_sort_pairs_numpy,
)


def oracle_alltoallv_loop(model: NetworkCostModel, send_matrix_bytes, nranks: int) -> float:
    """``NetworkCostModel.alltoallv_loop`` as it stood in ``src/``: the O(P²)
    Python-loop pricing the vectorised :meth:`~NetworkCostModel.alltoallv`
    replaced (also the baseline of ``benchmarks/test_process_scaling.py``)."""
    model._check_ranks(nranks)
    worst = 0.0
    for i in range(nranks):
        send_bytes = 0
        partners = 0
        for j in range(nranks):
            b = int(send_matrix_bytes[i][j]) if i != j else 0
            if b > 0:
                send_bytes += b
                partners += 1
        recv_bytes = 0
        for j in range(nranks):
            b = int(send_matrix_bytes[j][i]) if i != j else 0
            if b > 0:
                recv_bytes += b
                partners += 1
        cost = partners * model.latency + (send_bytes + recv_bytes) / model.bandwidth
        worst = max(worst, cost)
    return worst + model.per_rank_overhead


class TestNetworkCostModel:
    def test_p2p_monotone_in_size(self):
        model = NetworkCostModel.blue_waters()
        assert model.p2p(10_000) > model.p2p(100) > 0

    def test_p2p_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkCostModel().p2p(-1)

    def test_single_rank_collectives_free(self):
        model = NetworkCostModel()
        assert model.bcast(1000, 1) == 0.0
        assert model.gather(1000, 1) == 0.0

    def test_bcast_grows_with_ranks(self):
        model = NetworkCostModel()
        assert model.bcast(1 << 20, 64) >= model.bcast(1 << 20, 4)

    def test_gather_scales_with_total_volume(self):
        model = NetworkCostModel()
        assert model.gather(1 << 20, 64) > model.gather(1 << 20, 8)

    def test_alltoallv_dominated_by_busiest_rank(self):
        model = NetworkCostModel(per_rank_overhead=0.0)
        # Rank 0 sends 1 MB to everyone; others send nothing.
        matrix = [[0] * 4 for _ in range(4)]
        for j in range(1, 4):
            matrix[0][j] = 1 << 20
        cost_hot = model.alltoallv(matrix, 4)
        balanced = [[1 << 18 if i != j else 0 for j in range(4)] for i in range(4)]
        cost_balanced = model.alltoallv(balanced, 4)
        assert cost_hot > cost_balanced

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkCostModel(latency=0.0)
        with pytest.raises(ValueError):
            NetworkCostModel(bandwidth=-1)


class TestNetworkCostModelBatch:
    """The vectorised all-to-all pricing must match its loop reference."""

    def test_alltoallv_shape_validated(self):
        with pytest.raises(ValueError):
            NetworkCostModel().alltoallv(np.zeros((3, 4)), 4)

    def test_alltoallv_matches_loop_on_random_matrices(self):
        """Vectorised pricing returns the *identical* float as the loop."""
        model = NetworkCostModel.blue_waters()
        rng = np.random.default_rng(42)
        for nranks in (1, 2, 3, 8, 17):
            matrix = rng.integers(0, 1 << 16, size=(nranks, nranks))
            assert model.alltoallv(matrix, nranks) == oracle_alltoallv_loop(
                model, matrix, nranks
            )

    def test_alltoallv_matches_loop_on_float_and_negative_entries(self):
        """Floats truncate like int() and non-positive entries carry nothing."""
        model = NetworkCostModel(latency=5.0e-5, bandwidth=1.0e9, per_rank_overhead=2.0e-5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            nranks = int(rng.integers(2, 9))
            matrix = rng.uniform(-1000.0, 1e6, size=(nranks, nranks))
            assert model.alltoallv(matrix, nranks) == oracle_alltoallv_loop(
                model, matrix, nranks
            )

    def test_alltoallv_accepts_nested_lists(self):
        model = NetworkCostModel()
        matrix = [[0, 10, 0], [5, 0, 0], [0, 0, 0]]
        assert model.alltoallv(matrix, 3) == oracle_alltoallv_loop(model, matrix, 3)

    def test_alltoallv_does_not_mutate_input(self):
        model = NetworkCostModel()
        matrix = np.full((4, 4), 100, dtype=np.int64)
        before = matrix.copy()
        model.alltoallv(matrix, 4)
        assert np.array_equal(matrix, before)

    @pytest.mark.parametrize(
        "nranks", sorted({config.ncores for config, *_ in CATALOGUE.values()})
    )
    def test_alltoallv_matches_loop_at_catalogue_rank_counts(self, nranks):
        """At every rank count a catalogue workload runs, a redistribution-
        like exchange (each rank sends whole blocks to a few partners, some
        to itself) prices identically to the loop."""
        model = NetworkCostModel.blue_waters()
        rng = np.random.default_rng(nranks)
        block_bytes = 22 * 22 * 38 * 4
        partners = rng.random((nranks, nranks)) < min(1.0, 8.0 / nranks)
        matrix = np.where(partners, rng.integers(1, 4, (nranks, nranks)) * block_bytes, 0)
        assert matrix[~np.eye(nranks, dtype=bool)].any()
        assert model.alltoallv(matrix, nranks) == oracle_alltoallv_loop(model, matrix, nranks)

    @settings(deadline=None, max_examples=30)
    @given(
        nranks=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_alltoallv_parity_property(self, nranks, seed):
        model = NetworkCostModel.blue_waters()
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-100, 1 << 12, size=(nranks, nranks))
        assert model.alltoallv(matrix, nranks) == oracle_alltoallv_loop(model, matrix, nranks)


class TestBSPCommunicator:
    def test_bcast_delivers_to_all(self):
        comm = BSPCommunicator(4)
        out = comm.bcast({"a": 1}, root=0)
        assert len(out) == 4 and all(v == {"a": 1} for v in out)

    def test_gather_only_root(self):
        comm = BSPCommunicator(3)
        out = comm.gather([10, 20, 30], root=1)
        assert out[1] == [10, 20, 30]
        assert out[0] is None and out[2] is None

    def test_alltoallv_exchange(self):
        comm = BSPCommunicator(2)
        send = [[None, "from0"], ["from1", None]]
        recv = comm.alltoallv(send)
        assert recv[1][0] == "from0"
        assert recv[0][1] == "from1"

    def test_alltoallv_shape_validated(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[None], [None, None]])

    def test_charge_alltoallv_is_what_alltoallv_charges(self):
        """The list form sizes its payloads and delegates to the matrix form:
        same cost, same stats; self-sends are never counted."""
        a, b = np.zeros(10), np.zeros(25)
        by_lists = BSPCommunicator(2)
        by_lists.alltoallv([[a, b], [[a, a], None]])
        by_matrix = BSPCommunicator(2)
        cost = by_matrix.charge_alltoallv(np.array([[80, 200], [160, 0]]))
        assert cost == by_matrix.cost_model.alltoallv([[80, 200], [160, 0]], 2)
        assert by_matrix.stats == by_lists.stats
        assert by_matrix.stats["alltoallv"] == {
            "calls": 1.0, "bytes": 360.0, "seconds": cost,
        }

    def test_charge_alltoallv_shape_validated(self):
        comm = BSPCommunicator(3)
        with pytest.raises(ValueError, match="shape"):
            comm.charge_alltoallv(np.zeros((2, 2), dtype=np.int64))
        assert comm.stats == {}

    def test_value_count_validated(self):
        comm = BSPCommunicator(3)
        with pytest.raises(ValueError):
            comm.gather([1, 2])

    def test_stats_tracking(self):
        comm = BSPCommunicator(2)
        comm.gather([1, 2])
        comm.bcast(1)
        assert comm.stats["gather"]["calls"] == 1
        assert comm.stats["bcast"]["calls"] == 1
        assert comm.communication_seconds() == (
            comm.stats["gather"]["seconds"] + comm.stats["bcast"]["seconds"]
        ) > 0

    def test_payload_nbytes_array_vs_object(self):
        arr = np.zeros(100, dtype=np.float64)
        assert _payload_nbytes(arr) == 800
        assert _payload_nbytes("hello") > 0

    def test_payload_nbytes_sums_items_exposing_nbytes(self, monkeypatch):
        """A list of arrays or blocks costs its payload bytes and is never
        pickled to be measured; a list without ``nbytes`` items still is."""
        import pickle

        from repro.grid.block import Block, BlockExtent

        extent = BlockExtent((0, 0, 0), (3, 4, 5))
        full = Block(0, extent, np.zeros((3, 4, 5), dtype=np.float32))
        corners = Block(1, extent, np.zeros((2, 2, 2), dtype=np.float32), level=2)
        framed = _payload_nbytes([(1, 2.0), (3, 4.0)])
        with monkeypatch.context() as patched:
            patched.setattr(pickle, "dumps", None)
            assert _payload_nbytes([full, corners]) == 240 + 32
            assert _payload_nbytes((np.zeros(3), full)) == 24 + 240
        assert framed == len(pickle.dumps([(1, 2.0), (3, 4.0)], pickle.HIGHEST_PROTOCOL))

    def test_payload_nbytes_unpicklable_uses_estimate(self):
        import threading

        from repro.simmpi.communicator import UNPICKLABLE_PAYLOAD_NBYTES

        lock = threading.Lock()  # TypeError from pickle
        assert _payload_nbytes(lock) == UNPICKLABLE_PAYLOAD_NBYTES
        assert _payload_nbytes(lambda x: x) == UNPICKLABLE_PAYLOAD_NBYTES

    def test_payload_nbytes_real_errors_propagate(self):
        class Exploding:
            def __reduce__(self):
                raise OSError("disk on fire")

        with pytest.raises(OSError):
            _payload_nbytes(Exploding())


class TestParallelSort:
    def test_gather_sort_broadcast_matches_sequential(self):
        comm = BSPCommunicator(4)
        rng = np.random.default_rng(3)
        per_rank = []
        bid = 0
        for _ in range(4):
            pairs = []
            for _ in range(5):
                pairs.append((bid, float(rng.integers(0, 10))))
                bid += 1
            per_rank.append(pairs)
        out = parallel_sort_pairs(comm, per_rank)
        flat = [p for pairs in per_rank for p in pairs]
        expected = sorted(flat, key=lambda p: (p[1], p[0]))
        assert out[0] == expected
        # Every rank receives the same sorted list.
        assert all(o == expected for o in out)

    def test_sort_handles_empty_rank(self):
        comm = BSPCommunicator(3)
        per_rank = [[(0, 1.0)], [], [(1, 0.5)]]
        out = parallel_sort_pairs(comm, per_rank)
        assert out[0] == [(1, 0.5), (0, 1.0)]

    def test_sort_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs(comm, [[(0, 1.0)]])

    @settings(deadline=None, max_examples=25)
    @given(
        scores=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=40
        ),
        nranks=st.sampled_from([2, 3, 4]),
    )
    def test_parallel_sort_property(self, scores, nranks):
        """The distributed sort always equals the sequential (score, id) sort."""
        comm = BSPCommunicator(nranks)
        pairs = [(i, float(s)) for i, s in enumerate(scores)]
        per_rank = [pairs[r::nranks] for r in range(nranks)]
        out = parallel_sort_pairs(comm, per_rank)
        assert out[0] == sorted(pairs, key=lambda p: (p[1], p[0]))


class TestParallelSortNumpy:
    """The lexsort path must be indistinguishable from the Python path —
    values, types, comm calls, bytes, and modelled seconds."""

    def _random_pairs(self, nranks, per_rank_count, seed=3):
        rng = np.random.default_rng(seed)
        per_rank = []
        bid = 0
        for _ in range(nranks):
            pairs = []
            for _ in range(per_rank_count):
                pairs.append((bid, float(rng.integers(0, 10))))
                bid += 1
            per_rank.append(pairs)
        return per_rank

    def test_matches_python_path_bitwise(self):
        per_rank = self._random_pairs(4, 5)
        python_comm = BSPCommunicator(4)
        numpy_comm = BSPCommunicator(4)
        python_out = parallel_sort_pairs(python_comm, per_rank)
        numpy_out = [
            pairs_from_wire(o) for o in parallel_sort_pairs_numpy(numpy_comm, per_rank)
        ]
        assert numpy_out[0] == python_out[0]
        assert all(o == python_out[0] for o in numpy_out)
        # Same tuple element types (int ids, float scores), not np scalars.
        for bid, score in numpy_out[0]:
            assert type(bid) is int and type(score) is float
        # Identical communication: same ops, same calls, same bytes, and
        # therefore identical modelled seconds.
        assert numpy_comm.stats == python_comm.stats

    def test_shared_result_list_across_ranks(self):
        """Every rank holds literally the same wire array, the broadcast
        buffer — what makes the sorting step's agreement check O(nranks)."""
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, self._random_pairs(3, 4))
        assert all(o is out[0] for o in out)

    def test_handles_empty_ranks(self):
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, [[(0, 1.0)], [], [(1, 0.5)]])
        assert pairs_from_wire(out[0]) == [(1, 0.5), (0, 1.0)]

    def test_all_empty(self):
        comm = BSPCommunicator(2)
        out = parallel_sort_pairs_numpy(comm, [[], []])
        assert [pairs_from_wire(o) for o in out] == [[], []]

    def test_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs_numpy(comm, [[(0, 1.0)]])

    @settings(deadline=None, max_examples=25)
    @given(
        scores=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=40,
        ),
        nranks=st.sampled_from([2, 3, 4]),
    )
    def test_numpy_sort_property(self, scores, nranks):
        """The lexsort path always equals the sequential (score, id) sort."""
        comm = BSPCommunicator(nranks)
        pairs = [(i, float(s)) for i, s in enumerate(scores)]
        per_rank = [pairs[r::nranks] for r in range(nranks)]
        out = parallel_sort_pairs_numpy(comm, per_rank)
        assert pairs_from_wire(out[0]) == sorted(pairs, key=lambda p: (p[1], p[0]))

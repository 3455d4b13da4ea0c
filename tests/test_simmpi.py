"""Tests for repro.simmpi: cost model, BSP communicator, the two sort twins."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import CATALOGUE
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.sort import parallel_sort_pairs, parallel_sort_pairs_numpy


def wire(pairs):
    """``(id, score)`` tuples as the ``(n, 2)`` float64 wire array the sorts take."""
    return np.array(pairs, dtype=np.float64).reshape(-1, 2)


def wires(per_rank):
    """Every rank's tuples as its wire array."""
    return [wire(pairs) for pairs in per_rank]


def pairs_from_wire(sorted_array):
    """The ``(id, score)`` tuples of an ``(n, 2)`` float64 wire array."""
    ids, scores = sorted_array[:, 0].astype(np.int64), sorted_array[:, 1]
    return list(zip(ids.tolist(), scores.tolist()))


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
        value = np.arange(6.0)
        out = comm.bcast(value, root=0)
        assert len(out) == 4 and all(v is value for v in out)
        assert comm.stats["bcast"]["bytes"] == 48

    def test_gather_only_root(self):
        comm = BSPCommunicator(3)
        values = [np.zeros(1), np.zeros(4), np.zeros(2)]
        out = comm.gather(values, root=1)
        assert len(out[1]) == 3 and all(a is b for a, b in zip(out[1], values))
        assert out[0] is None and out[2] is None
        # Priced as every rank sending the largest contribution.
        assert comm.stats["gather"]["bytes"] == 3 * 32

    def test_charge_alltoallv_records_the_off_diagonal_bytes(self):
        """The cost is the model's price of the matrix; self-sends are never
        counted as bytes."""
        comm = BSPCommunicator(2)
        cost = comm.charge_alltoallv(np.array([[80, 200], [160, 0]]))
        assert cost == comm.cost_model.alltoallv([[80, 200], [160, 0]], 2)
        assert comm.stats["alltoallv"] == {
            "calls": 1.0, "bytes": 360.0, "seconds": cost,
        }

    def test_charge_alltoallv_self_sends_record_no_bytes(self):
        comm = BSPCommunicator(3)
        cost = comm.charge_alltoallv(np.diag([64, 128, 256]))
        assert cost == comm.cost_model.alltoallv(np.diag([64, 128, 256]), 3)
        assert comm.stats["alltoallv"]["bytes"] == 0

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.int32, np.dtype([("id", np.int64), ("score", np.float64)])]
    )
    def test_gather_and_bcast_price_arrays_by_nbytes(self, dtype):
        """Payloads are arrays: ``(id, score)`` wire records and plain
        vectors alike cost their ``nbytes``, whatever the dtype."""
        comm = BSPCommunicator(2)
        values = [np.zeros(3, dtype=dtype), np.zeros(5, dtype=dtype)]
        comm.gather(values)
        comm.bcast(values[0])
        itemsize = np.dtype(dtype).itemsize
        assert comm.stats["gather"]["bytes"] == 2 * 5 * itemsize
        assert comm.stats["bcast"]["bytes"] == 3 * itemsize
        assert comm.stats["gather"]["seconds"] == comm.cost_model.gather(5 * itemsize, 2)
        assert comm.stats["bcast"]["seconds"] == comm.cost_model.bcast(3 * itemsize, 2)

    def test_charge_alltoallv_shape_validated(self):
        comm = BSPCommunicator(3)
        with pytest.raises(ValueError, match="shape"):
            comm.charge_alltoallv(np.zeros((2, 2), dtype=np.int64))
        assert comm.stats == {}

    def test_value_count_validated(self):
        comm = BSPCommunicator(3)
        with pytest.raises(ValueError):
            comm.gather([np.zeros(1), np.zeros(2)])

    def test_stats_tracking(self):
        comm = BSPCommunicator(2)
        comm.gather([np.zeros(1), np.zeros(2)])
        comm.bcast(np.zeros(3))
        assert comm.stats["gather"]["calls"] == 1
        assert comm.stats["bcast"]["calls"] == 1
        assert comm.stats["gather"]["seconds"] > 0 and comm.stats["bcast"]["seconds"] > 0


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
        out = parallel_sort_pairs(comm, wires(per_rank))
        flat = [p for pairs in per_rank for p in pairs]
        expected = sorted(flat, key=lambda p: (p[1], p[0]))
        # Every rank receives the same sorted array.
        assert all(pairs_from_wire(o) == expected for o in out)

    def test_sort_handles_empty_rank(self):
        comm = BSPCommunicator(3)
        per_rank = [[(0, 1.0)], [], [(1, 0.5)]]
        out = parallel_sort_pairs(comm, wires(per_rank))
        assert pairs_from_wire(out[0]) == [(1, 0.5), (0, 1.0)]

    def test_sort_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs(comm, wires([[(0, 1.0)]]))

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
        out = parallel_sort_pairs(comm, wires(per_rank))
        assert pairs_from_wire(out[0]) == sorted(pairs, key=lambda p: (p[1], p[0]))


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
        per_rank = wires(self._random_pairs(4, 5))
        python_comm = BSPCommunicator(4)
        numpy_comm = BSPCommunicator(4)
        python_out = parallel_sort_pairs(python_comm, per_rank)
        numpy_out = parallel_sort_pairs_numpy(numpy_comm, per_rank)
        assert python_out[0].dtype == numpy_out[0].dtype == np.float64
        assert python_out[0].shape == numpy_out[0].shape == (20, 2)
        assert all(o.tobytes() == python_out[0].tobytes() for o in numpy_out)
        # Identical communication: same ops, same calls, same bytes, and
        # therefore identical modelled seconds.
        assert numpy_comm.stats == python_comm.stats

    def test_shared_result_list_across_ranks(self):
        """Every rank holds literally the same wire array, the broadcast
        buffer — what makes the sorting step's agreement check O(nranks)."""
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, wires(self._random_pairs(3, 4)))
        assert all(o is out[0] for o in out)

    def test_handles_empty_ranks(self):
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, wires([[(0, 1.0)], [], [(1, 0.5)]]))
        assert pairs_from_wire(out[0]) == [(1, 0.5), (0, 1.0)]

    def test_all_empty(self):
        comm = BSPCommunicator(2)
        out = parallel_sort_pairs_numpy(comm, wires([[], []]))
        assert [pairs_from_wire(o) for o in out] == [[], []]

    def test_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs_numpy(comm, wires([[(0, 1.0)]]))

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
        out = parallel_sort_pairs_numpy(comm, wires(per_rank))
        assert pairs_from_wire(out[0]) == sorted(pairs, key=lambda p: (p[1], p[0]))

"""The scoring contract: for every metric in ``METRICS``, ``score_batch`` equals
the ``score_block`` loop, bitwise, on the same blocks.

This is the invariant the execution engines rely on: the reduction and
redistribution decisions are driven by score *order*, so even a one-ulp
difference between the scalar and the batched path could flip a decision and
make the backends diverge.  A score is a function of one block, so the law
holds whatever the layout of the batch (length-1 axes, strided, read-only),
whatever values it holds (NaN and ±inf score alike, or the coders refuse them
alike) and however the process pool cuts it into chunks.  The implementations
come from the metric table (pymor's idiom), so a new metric is checked by
adding its row.
"""

from __future__ import annotations

import pickle
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.batch import stacked_shape_groups
from repro.grid.block import Block, BlockExtent
from repro.grid.fanout import map_shape_groups
from repro.metrics import statistics
from repro.metrics.base import ScoreMetric
from repro.metrics.registry import METRICS, create_metric
from repro.utils.histogram import fixed_range_histogram, fixed_range_histogram_batch

#: The coder-based scorers: their coders refuse non-finite values.
CODERS = {"FPZIP", "LZ"}


def random_blocks(dtype, shape=(7, 6, 5), nblocks=12, seed=99):
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(-60.0, 80.0, size=shape).astype(dtype) for _ in range(nblocks)
    ]


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
class TestScorePathParity:
    def test_three_paths_identical(self, name, dtype):
        metric = create_metric(name)
        blocks = random_blocks(dtype)
        batch = np.stack(blocks)
        scalar = [metric.score_block(b) for b in blocks]
        listed = metric.score_blocks(blocks)
        batched = metric.score_batch(batch)
        assert listed == scalar
        assert np.asarray(batched, dtype=np.float64).tolist() == scalar

    def test_non_contiguous_blocks_identical(self, name, dtype):
        # Blocks carved out of a larger field are views; the batched path
        # stacks them into contiguous rows.  Scores must still match exactly.
        metric = create_metric(name)
        rng = np.random.default_rng(5)
        field = rng.uniform(-60.0, 80.0, size=(16, 14, 12)).astype(dtype)
        views = [
            field[i : i + 6, j : j + 5, k : k + 4]
            for i, j, k in [(0, 0, 0), (5, 4, 3), (10, 9, 8), (3, 7, 1)]
        ]
        scalar = [metric.score_block(v) for v in views]
        batched = metric.score_batch(np.stack(views))
        assert np.asarray(batched, dtype=np.float64).tolist() == scalar


    @pytest.mark.parametrize("layout", ["length-1 axes", "strided", "read-only"])
    def test_batch_equals_block_loop_on_every_layout(self, name, dtype, layout):
        metric = create_metric(name)
        batch = layout_batch(layout, dtype, seed=len(name))
        before = batch.copy()
        expected = [metric.score_block(b) for b in batch]
        assert bits(metric.score_batch(batch)) == bits(expected)
        assert bits(metric.score_blocks(list(batch))) == bits(expected)
        assert before.tobytes() == batch.tobytes()  # the batch is only read

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_values_score_alike_or_raise_alike(self, name, dtype, special):
        metric = create_metric(name)
        batch = layout_batch("read-only", dtype, seed=3, special=special)
        with np.errstate(invalid="ignore", over="ignore"):
            if name in CODERS:
                with pytest.raises(ValueError, match="non-finite"):
                    metric.score_batch(batch)
                for block in batch[::2]:
                    with pytest.raises(ValueError, match="non-finite"):
                        metric.score_block(block)
                return
            expected = [metric.score_block(b) for b in batch]
            assert bits(metric.score_batch(batch)) == bits(expected)

    def test_pool_chunks_equal_block_loop(self, name, dtype, monkeypatch):
        """``score_batch`` over the process pool's row chunks (2 * 3 per shape
        group, one of 1 row) equals the per-block loop in block order."""
        monkeypatch.setattr("repro.grid.fanout.default_process_workers", lambda: 3)
        metric = create_metric(name)
        rng = np.random.default_rng(11)
        shapes = [(4, 3, 2)] * 7 + [(1, 5, 3)] * 5 + [(2, 2, 2)]
        blocks = [
            Block(i, BlockExtent((0, 0, 0), shape), rng.uniform(-60.0, 80.0, shape).astype(dtype))
            for i, shape in enumerate(shapes)
        ]
        expected = [metric.score_block(b.data) for b in blocks]
        groups = stacked_shape_groups(blocks)
        scores = map_shape_groups(groups, metric.score_batch, np.float64, True)
        assert bits(scores) == bits(expected)

    @settings(deadline=None, max_examples=15)
    @given(
        shape=st.tuples(*[st.sampled_from([1, 2, 5]) for _ in range(3)]).filter(
            lambda shape: np.prod(shape) > 1
        ),
        value=st.floats(-60.0, 80.0),
        seed=st.integers(0, 2**16),
    )
    def test_constant_block_never_outscores_a_noisy_one(self, name, dtype, shape, value, seed):
        metric = create_metric(name)
        noisy = np.random.default_rng(seed).uniform(-60.0, 80.0, shape).astype(dtype)
        constant = np.full(shape, value, dtype=dtype)
        scores = metric.score_batch(np.stack([constant, noisy]))
        assert scores[0] <= scores[1]


def bits(scores):
    """The float64 bytes of a score sequence (bitwise comparison, NaN included)."""
    return np.asarray(scores, dtype=np.float64).tobytes()


def layout_batch(layout, dtype, seed, special=None, nblocks=6):
    """A ``(nblocks, sx, sy, sz)`` batch laid out as ``layout``: C-contiguous
    with length-1 axes, a strided view into a larger array, or read-only.
    ``special`` is written into one point of every other block."""
    shape = (1, 5, 1) if layout == "length-1 axes" else (5, 4, 3)
    rng = np.random.default_rng(seed)
    source = rng.uniform(-60.0, 80.0, (2 * nblocks,) + tuple(2 * n for n in shape))
    source = source.astype(dtype)
    if layout == "strided":
        batch = source[::2, ::2, ::2, ::2]
    else:
        batch = np.ascontiguousarray(source[:nblocks, : shape[0], : shape[1], : shape[2]])
    if special is not None:
        batch[::2, 0, -1, 0] = special
    batch.flags.writeable = layout != "read-only"
    return batch


def oracle_var_score_batch(batch):
    """The replaced ``VarianceMetric.score_batch`` body: one ``np.var`` over
    the whole flattened batch (five full passes over it)."""
    arr = ScoreMetric._prepare_batch(batch)
    flat = arr.reshape(arr.shape[0], -1)
    return np.var(flat, axis=1).astype(np.float64)


ORACLES = {"VAR": oracle_var_score_batch}


class TestRowVarianceLaw:
    """VAR scores in row chunks (``statistics.row_variance``); a batch
    scores bitwise like ``score_blocks`` and per-block ``score_block``, and
    like the replaced ``np.var`` body, whatever the chunk boundaries.  The
    hand mutation it catches: the chunk mean accumulated with
    ``dtype=np.float64`` (float32 batches then drift by an ulp)."""

    @staticmethod
    def _bits(scores):
        return np.asarray(scores, dtype=np.float64).tobytes()

    @settings(deadline=None, max_examples=120)
    @given(
        name=st.sampled_from(sorted(ORACLES)),
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.tuples(*[st.sampled_from([1, 2, 5, 13]) for _ in range(3)]),
        chunk_bytes=st.sampled_from([1, 96, 1024, 4096, statistics._CHUNK_BYTES]),
        rows=st.sampled_from(["1", "chunk-1", "chunk", "chunk+1", "2chunk+1"]),
        layout=st.sampled_from(["contiguous", "row-strided", "strided", "read-only"]),
        specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batch_equals_blocks_bitwise(
        self, name, dtype, shape, chunk_bytes, rows, layout, specials, seed
    ):
        count = int(np.prod(shape))
        chunk = max(1, chunk_bytes // (count * np.dtype(dtype).itemsize))
        nrows = {
            "1": 1, "chunk-1": max(1, chunk - 1), "chunk": chunk,
            "chunk+1": chunk + 1, "2chunk+1": 2 * chunk + 1,
        }[rows]
        nrows = min(nrows, 600)
        rng = np.random.default_rng(seed)
        source = rng.uniform(-60.0, 80.0, size=(2 * nrows,) + tuple(2 * n for n in shape))
        source = source.astype(dtype)
        for value in specials:
            source.flat[rng.integers(source.size)] = value
        head = source[:, : shape[0], : shape[1], : shape[2]]
        if layout == "strided":
            batch = source[::2, ::2, ::2, ::2]
        elif layout == "row-strided":
            batch = np.ascontiguousarray(head)[::2]
        else:
            batch = np.ascontiguousarray(head[:nrows])
        batch.flags.writeable = layout != "read-only"
        before = batch.copy()
        metric = create_metric(name)
        with np.errstate(invalid="ignore", over="ignore"):
            with mock.patch.object(statistics, "_CHUNK_BYTES", chunk_bytes):
                batched = metric.score_batch(batch)
            expected = [
                ORACLES[name](batch),
                metric.score_blocks(list(batch)),
                [metric.score_block(b) for b in batch],
            ]
        assert batched.dtype == np.float64 and batched.shape == (nrows,)
        for scores in expected:
            assert self._bits(batched) == self._bits(scores)
        assert before.tobytes() == batch.tobytes()  # the batch is only read

    def test_real_chunk_boundaries_of_a_paper_sized_block(self):
        """55x55x38 float32 blocks (the paper's) at the module's chunk size:
        chunk-1, chunk and chunk+1 rows, a one-row tail included."""
        count = 55 * 55 * 38
        chunk = max(1, statistics._CHUNK_BYTES // (count * 4))
        rng = np.random.default_rng(7)
        full = rng.uniform(-60.0, 80.0, size=(chunk + 1, 55, 55, 38)).astype(np.float32)
        for name, oracle in ORACLES.items():
            metric = create_metric(name)
            for nrows in {max(1, chunk - 1), chunk, chunk + 1}:
                batch = full[:nrows]
                assert self._bits(metric.score_batch(batch)) == self._bits(oracle(batch))
                assert self._bits(metric.score_batch(batch)) == self._bits(
                    [metric.score_block(b) for b in batch]
                )


class TestSupportsBatchFlags:
    def test_batch_rejects_wrong_ndim(self):
        metric = create_metric("VAR")
        with pytest.raises(ValueError):
            metric.score_batch(np.zeros((4, 4, 4)))


class TestCustomMetricOverrides:
    def test_array_like_batch_accepted(self):
        # _prepare_batch accepts anything np.asarray can make 4-D, including
        # nested lists; no score_batch may assume .shape.
        for name in sorted(METRICS):
            metric = create_metric(name)
            blocks = random_blocks(np.float64, shape=(3, 3, 2), nblocks=2)
            nested = [b.tolist() for b in blocks]
            expected = [metric.score_block(b) for b in blocks]
            assert np.asarray(metric.score_batch(nested)).tolist() == expected


class TestFloat16Parity:
    def test_coder_metrics_score_float16_identically(self):
        """The compressors promote float16 to float64 before encoding; the
        batched path must divide by the same promoted size as the scalar
        path (regression: it used to divide by the un-promoted nbytes)."""
        for name in ("FPZIP", "LZ", "LEA"):
            metric = create_metric(name)
            blocks = random_blocks(np.float16, nblocks=4)
            scalar = [metric.score_block(b) for b in blocks]
            batched = metric.score_batch(np.stack(blocks))
            assert np.asarray(batched, dtype=np.float64).tolist() == scalar, name

    def test_var_scores_float16_as_its_float32_cast(self):
        """A float16 sum overflows at 65 504, so a field-ranged block
        (−60…80) must not be summed in float16: both paths score it finite,
        without an overflow warning, and equal to the VAR of its float32
        cast.  Fails if either path drops the promotion (``inf``)."""
        metric = create_metric("VAR")
        blocks = random_blocks(np.float16, nblocks=4)
        widened = [b.astype(np.float32) for b in blocks]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [metric.score_block(b) for b in blocks]
            batched = metric.score_batch(np.stack(blocks))
        assert np.isfinite(scalar).all()
        assert scalar == [metric.score_block(b) for b in widened]
        assert batched.tolist() == metric.score_batch(np.stack(widened)).tolist()


class TestFpzipReentrancy:
    """Nothing stops a caller from sharing one metric between threads (the
    serve thread tier runs pipelines side by side), and the process fan-out
    pickles the metric into every task, so the coder's scratch buffers must
    belong to the call."""

    def test_one_metric_shared_by_four_threads(self):
        metric = create_metric("FPZIP")
        shapes = [(7, 6, 5), (9, 4, 5), (7, 6, 5), (3, 8, 8)]
        batches = [
            np.stack(random_blocks(np.float32, shape=shape, nblocks=40, seed=seed))
            for seed, shape in enumerate(shapes)
        ]
        expected = [metric.score_batch(batch).tolist() for batch in batches]
        rounds = 50

        def score_repeatedly(batch):
            return [metric.score_batch(batch).tolist() for _ in range(rounds)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(score_repeatedly, b) for b in batches]
                observed = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for answers, single_threaded in zip(observed, expected):
            assert answers == [single_threaded] * rounds

    def test_metric_stays_small_on_the_wire(self):
        metric = create_metric("FPZIP")
        assert len(pickle.dumps(metric)) < 1024
        batch = np.stack(random_blocks(np.float32))
        before = metric.score_batch(batch).tolist()
        assert len(pickle.dumps(metric)) < 1024
        clone = pickle.loads(pickle.dumps(metric))
        assert clone.score_batch(batch).tolist() == before


class TestNanHandling:
    def test_histogram_drops_nan(self):
        values = np.array([1.0, np.nan, 5.0])
        counts = fixed_range_histogram(values, 4, (0.0, 8.0))
        assert counts.tolist() == [1, 0, 1, 0]
        counts = fixed_range_histogram(values, 4, (0.0, 8.0), clip=False)
        assert counts.sum() == 2

    def test_histogram_batch_drops_nan(self):
        values = np.array([[1.0, np.nan, 5.0], [np.nan, np.nan, np.nan]])
        for clip in (True, False):
            batch = fixed_range_histogram_batch(values, 4, (0.0, 8.0), clip=clip)
            for row, counts in zip(values, batch):
                expected = fixed_range_histogram(row, 4, (0.0, 8.0), clip=clip)
                np.testing.assert_array_equal(counts, expected)
        assert fixed_range_histogram_batch(values, 4, (0.0, 8.0))[1].sum() == 0

    def test_itl_scores_nan_blocks_identically(self):
        metric = create_metric("ITL")
        blocks = random_blocks(np.float64, nblocks=3)
        blocks[1][0, 0, 0] = np.nan
        scalar = [metric.score_block(b) for b in blocks]
        batched = metric.score_batch(np.stack(blocks))
        assert np.asarray(batched).tolist() == scalar
        assert all(np.isfinite(scalar))


class TestHistogramBatchParity:
    @pytest.mark.parametrize("clip", [True, False])
    def test_batch_rows_match_scalar(self, clip):
        rng = np.random.default_rng(3)
        values = rng.uniform(-100.0, 120.0, size=(9, 240))
        batch = fixed_range_histogram_batch(values, 64, (-60.0, 80.0), clip=clip)
        for row, counts in zip(values, batch):
            expected = fixed_range_histogram(row, 64, (-60.0, 80.0), clip=clip)
            np.testing.assert_array_equal(counts, expected)

    def test_empty_batch(self):
        counts = fixed_range_histogram_batch(np.zeros((0, 10)), 8, (0.0, 1.0))
        assert counts.shape == (0, 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fixed_range_histogram_batch(np.zeros((2, 3)), 0, (0.0, 1.0))
        with pytest.raises(ValueError):
            fixed_range_histogram_batch(np.zeros((2, 3)), 4, (1.0, 1.0))
        with pytest.raises(ValueError):
            fixed_range_histogram_batch(np.zeros(3), 4, (0.0, 1.0))

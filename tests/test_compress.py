"""Tests for the fpzip/zfp/lz-like compressors."""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import fpzip_like
from repro.compress.bitplane import (
    byte_lengths,
    float_to_ordered_uint,
    ordered_uint_to_float,
    pack_nibbles,
    unpack_nibbles,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.fpzip_like import FpzipLikeCompressor, residual_codes
from repro.compress.lz_like import (
    LzLikeCompressor,
    _hash4,
    _hash_all,
    lz77_compress,
    lz77_decompress,
)
from repro.compress.predictors import (
    lorenzo_reconstruct,
    lorenzo_residuals,
)
from repro.compress.zfp_like import ZfpLikeCompressor


# -- oracles ------------------------------------------------------------------
#
# Steps 1–3 of the fpzip-like coder and the batched size path exactly as they
# stood before the fused residual-code kernel replaced them (whole-batch
# temporaries, ``np.where`` ordered-uint map, per-axis shifted copies, uint64
# upcast + masked assignment in ``byte_lengths``), kept verbatim as the
# reference the kernel is tested — and, in ``benchmarks/``, timed — against.


def oracle_float_to_ordered_uint(values):
    arr = np.asarray(values)
    utype, bits = (np.uint32, 32) if arr.dtype == np.float32 else (np.uint64, 64)
    raw = arr.view(utype)
    sign_mask = utype(1) << (bits - 1)
    negative = (raw & sign_mask) != 0
    out = np.where(negative, ~raw, raw | sign_mask)
    return out.astype(utype)


def oracle_zigzag_encode(values, bits):
    itype = np.int32 if bits == 32 else np.int64
    utype = np.uint32 if bits == 32 else np.uint64
    v = np.asarray(values, dtype=itype)
    return ((v << 1) ^ (v >> (bits - 1))).astype(utype)


def oracle_lorenzo_residuals_batch(values):
    v = np.asarray(values)
    if v.ndim != 4:
        raise ValueError(f"expected a 4-D batch, got shape {v.shape}")
    if v.dtype not in (np.uint32, np.uint64):
        raise ValueError(f"expected uint32/uint64 input, got {v.dtype}")
    r = v.copy()
    for axis in (1, 2, 3):
        shifted = np.zeros_like(r)
        idx_src = [slice(None)] * 4
        idx_dst = [slice(None)] * 4
        idx_src[axis] = slice(0, r.shape[axis] - 1)
        idx_dst[axis] = slice(1, None)
        shifted[tuple(idx_dst)] = r[tuple(idx_src)]
        r = r - shifted
    return r


def oracle_byte_lengths(codes, max_bytes):
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    c = np.asarray(codes)
    lengths = np.zeros(c.shape, dtype=np.uint8)
    threshold = np.uint64(1)
    c64 = c.astype(np.uint64)
    for nbytes in range(1, max_bytes + 1):
        threshold = np.uint64(1) << np.uint64(8 * (nbytes - 1))
        lengths[c64 >= threshold] = nbytes
    return lengths


def oracle_compressed_size_batch(batch):
    arr = FpzipLikeCompressor._prepare_batch(batch)
    nblocks = arr.shape[0]
    if nblocks == 0:
        return np.zeros(0, dtype=np.int64)
    bits = 32 if arr.dtype == np.float32 else 64
    max_bytes = bits // 8
    count = int(arr[0].size)

    codes = oracle_float_to_ordered_uint(arr)
    residuals = oracle_lorenzo_residuals_batch(codes)
    zz = oracle_zigzag_encode(
        residuals.view(np.int32 if bits == 32 else np.int64), bits
    )
    lengths = oracle_byte_lengths(zz.reshape(nblocks, -1), max_bytes)

    fixed = fpzip_like._HEADER.size + 4 * max_bytes + (count + 1) // 2
    return fixed + lengths.sum(axis=1, dtype=np.int64)


class TestBitplane:
    def test_ordered_uint_preserves_order_float32(self):
        values = np.array([-1e10, -1.0, -1e-20, 0.0, 1e-20, 1.0, 1e10], dtype=np.float32)
        codes = float_to_ordered_uint(values)
        assert np.all(np.diff(codes.astype(np.float64)) > 0)

    def test_ordered_uint_roundtrip(self):
        values = np.array([-3.5, 0.0, 1.25, -0.0, 7e8], dtype=np.float32)
        codes = float_to_ordered_uint(values)
        back = ordered_uint_to_float(codes, np.float32)
        np.testing.assert_array_equal(np.abs(back), np.abs(values))

    def test_ordered_uint_float64(self):
        values = np.array([-2.0, 3.0], dtype=np.float64)
        back = ordered_uint_to_float(float_to_ordered_uint(values), np.float64)
        np.testing.assert_array_equal(back, values)

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError):
            float_to_ordered_uint(np.zeros(3, dtype=np.int32))

    def test_zigzag_roundtrip(self):
        values = np.array([0, -1, 1, -2, 2, 12345, -99999], dtype=np.int32)
        codes = zigzag_encode(values, 32)
        assert codes[0] == 0 and codes[1] == 1 and codes[2] == 2
        back = zigzag_decode(codes, 32)
        np.testing.assert_array_equal(back, values)

    def test_zigzag_64(self):
        values = np.array([-(2**40), 2**40], dtype=np.int64)
        back = zigzag_decode(zigzag_encode(values, 64), 64)
        np.testing.assert_array_equal(back, values)

    def test_byte_lengths(self):
        codes = np.array([0, 1, 255, 256, 65535, 65536, 2**24], dtype=np.uint64)
        lengths = byte_lengths(codes, 4)
        np.testing.assert_array_equal(lengths, [0, 1, 1, 2, 2, 3, 4])

    def test_pack_unpack_nibbles(self):
        values = np.array([0, 1, 15, 7, 3], dtype=np.uint8)
        packed = pack_nibbles(values)
        np.testing.assert_array_equal(unpack_nibbles(packed, 5), values)

    def test_pack_nibbles_rejects_large(self):
        with pytest.raises(ValueError):
            pack_nibbles(np.array([16], dtype=np.uint8))


class TestPredictors:
    def test_lorenzo_roundtrip(self):
        rng = np.random.default_rng(0)
        values = float_to_ordered_uint(rng.normal(size=(5, 6, 7)).astype(np.float32))
        residuals = lorenzo_residuals(values)
        back = lorenzo_reconstruct(residuals)
        np.testing.assert_array_equal(back, values)

    def test_lorenzo_smooth_residuals_small(self):
        x = np.linspace(0, 1, 16)
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        smooth = (xx + yy + zz).astype(np.float32)
        noisy = np.random.default_rng(1).normal(size=smooth.shape).astype(np.float32)
        res_smooth = lorenzo_residuals(float_to_ordered_uint(smooth))
        res_noisy = lorenzo_residuals(float_to_ordered_uint(noisy))
        # Compare the number of "large" residuals (fair proxy for coding cost).
        big_smooth = np.count_nonzero(res_smooth.astype(np.int64) > 2**20)
        big_noisy = np.count_nonzero(res_noisy.astype(np.int64) > 2**20)
        assert big_smooth < big_noisy

    def test_lorenzo_requires_uint(self):
        with pytest.raises(ValueError):
            lorenzo_residuals(np.zeros((2, 2, 2), dtype=np.float32))


class TestFpzipLike:
    def test_lossless_roundtrip_float32(self, turbulent_block):
        comp = FpzipLikeCompressor()
        result = comp.compress(turbulent_block)
        back = comp.decompress(result)
        np.testing.assert_array_equal(back, turbulent_block)
        assert back.dtype == turbulent_block.dtype

    def test_lossless_roundtrip_float64(self):
        data = np.random.default_rng(3).normal(size=(7, 6, 5))
        comp = FpzipLikeCompressor()
        np.testing.assert_array_equal(comp.decompress(comp.compress(data)), data)

    def test_smooth_compresses_better_than_turbulent(self, smooth_block, turbulent_block):
        comp = FpzipLikeCompressor()
        assert comp.ratio(smooth_block) > comp.ratio(turbulent_block)

    def test_constant_block_high_ratio(self, constant_block):
        assert FpzipLikeCompressor().ratio(constant_block) > 3.0

    def test_rejects_non_finite(self):
        comp = FpzipLikeCompressor()
        data = np.full((3, 3, 3), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            comp.compress(data)

    def test_rejects_wrong_payload(self):
        comp = FpzipLikeCompressor()
        result = comp.compress(np.zeros((3, 3, 3), dtype=np.float32))
        bad = type(result)(
            payload=b"XXXX" + result.payload[4:],
            original_nbytes=result.original_nbytes,
            shape=result.shape,
            dtype=result.dtype,
        )
        with pytest.raises(ValueError):
            comp.decompress(bad)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nx=st.integers(min_value=2, max_value=8),
        ny=st.integers(min_value=2, max_value=8),
        nz=st.integers(min_value=2, max_value=8),
    )
    def test_roundtrip_property(self, seed, nx, ny, nz):
        """fpzip-like coding is lossless for arbitrary finite float32 blocks."""
        data = (np.random.default_rng(seed).normal(size=(nx, ny, nz)) * 10).astype(np.float32)
        comp = FpzipLikeCompressor()
        np.testing.assert_array_equal(comp.decompress(comp.compress(data)), data)


class TestZfpLike:
    def test_reconstruction_within_bound(self, smooth_block):
        comp = ZfpLikeCompressor(precision=18)
        result = comp.compress(smooth_block)
        back = comp.decompress(result)
        bound = comp.error_bound(smooth_block)
        assert np.abs(back - smooth_block.astype(np.float64)).max() <= bound

    def test_higher_precision_lower_error(self, turbulent_block):
        low = ZfpLikeCompressor(precision=8)
        high = ZfpLikeCompressor(precision=24)
        err_low = np.abs(low.decompress(low.compress(turbulent_block)) - turbulent_block).max()
        err_high = np.abs(high.decompress(high.compress(turbulent_block)) - turbulent_block).max()
        assert err_high <= err_low

    def test_smooth_compresses_better(self, smooth_block, turbulent_block):
        comp = ZfpLikeCompressor(precision=16)
        assert comp.ratio(smooth_block) > comp.ratio(turbulent_block)

    def test_constant_block_near_exact(self, constant_block):
        comp = ZfpLikeCompressor(precision=16)
        back = comp.decompress(comp.compress(constant_block))
        np.testing.assert_allclose(back, constant_block, atol=1e-6)

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            ZfpLikeCompressor(precision=0)
        with pytest.raises(ValueError):
            ZfpLikeCompressor(precision=40)

    def test_non_multiple_of_four_shapes(self):
        data = np.random.default_rng(5).normal(size=(5, 7, 3))
        comp = ZfpLikeCompressor(precision=20)
        back = comp.decompress(comp.compress(data))
        assert back.shape == data.shape
        assert np.abs(back - data).max() <= comp.error_bound(data)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_error_bound_property(self, seed):
        data = np.random.default_rng(seed).uniform(-60, 80, size=(6, 6, 6))
        comp = ZfpLikeCompressor(precision=16)
        back = comp.decompress(comp.compress(data))
        assert np.abs(back - data).max() <= comp.error_bound(data)


class TestLz77:
    def test_roundtrip_simple(self):
        data = b"abcabcabcabcabc" * 10
        assert lz77_decompress(lz77_compress(data)) == data

    def test_roundtrip_empty(self):
        assert lz77_decompress(lz77_compress(b"")) == b""

    def test_roundtrip_no_repeats(self):
        data = bytes(range(256))
        assert lz77_decompress(lz77_compress(data)) == data

    def test_repetitive_data_compresses(self):
        data = b"\x00" * 4096
        compressed = lz77_compress(data)
        assert len(compressed) < len(data) / 4

    @settings(deadline=None, max_examples=30)
    @given(st.binary(min_size=0, max_size=2000))
    def test_roundtrip_property(self, data):
        assert lz77_decompress(lz77_compress(data)) == data


class TestLzLikeCompressor:
    def test_lossless_roundtrip(self, turbulent_block):
        comp = LzLikeCompressor()
        small = turbulent_block[:6, :6, :4]
        back = comp.decompress(comp.compress(small))
        np.testing.assert_array_equal(back, small)

    def test_smooth_better_ratio(self, smooth_block, turbulent_block):
        comp = LzLikeCompressor()
        assert comp.ratio(smooth_block) > comp.ratio(turbulent_block)

    def test_sample_limit_bounds_cost(self):
        comp = LzLikeCompressor(sample_limit=256)
        data = np.random.default_rng(0).normal(size=(20, 20, 10)).astype(np.float32)
        ratio = comp.ratio(data)
        assert ratio > 0

    def test_invalid_sample_limit(self):
        with pytest.raises(ValueError):
            LzLikeCompressor(sample_limit=2)


class TestHashAll:
    @settings(deadline=None, max_examples=30)
    @given(st.binary(min_size=0, max_size=300))
    def test_matches_scalar_hash(self, data):
        hashes = _hash_all(data)
        assert len(hashes) == max(0, len(data) - 3)
        assert hashes == [_hash4(data, p) for p in range(len(hashes))]


def _batch_blocks(dtype, shape=(6, 5, 4), nblocks=7, seed=11):
    """A mix of turbulent, smooth, and constant blocks (stackable)."""
    rng = np.random.default_rng(seed)
    blocks = [
        rng.uniform(-60.0, 80.0, size=shape).astype(dtype)
        for _ in range(nblocks - 2)
    ]
    ramp = np.add.outer(
        np.add.outer(np.linspace(0.0, 1.0, shape[0]), np.linspace(0.0, 2.0, shape[1])),
        np.linspace(0.0, 0.5, shape[2]),
    )
    blocks.append(ramp.astype(dtype))
    blocks.append(np.full(shape, 2.5, dtype=dtype))
    return blocks


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize(
    "make",
    [FpzipLikeCompressor, ZfpLikeCompressor, LzLikeCompressor],
    ids=["fpzip", "zfp", "lz"],
)
class TestCompressedSizeBatch:
    """The vectorised size path must agree with per-block compress exactly."""

    def test_sizes_match_per_block_compress(self, make, dtype):
        comp = make()
        blocks = _batch_blocks(dtype)
        sizes = comp.compressed_size_batch(np.stack(blocks))
        expected = [comp.compress(b).compressed_nbytes for b in blocks]
        assert sizes.tolist() == expected

    def test_empty_batch(self, make, dtype):
        comp = make()
        sizes = comp.compressed_size_batch(np.zeros((0, 4, 4, 4), dtype=dtype))
        assert sizes.shape == (0,)

    def test_non_contiguous_batch(self, make, dtype):
        comp = make()
        rng = np.random.default_rng(4)
        field = rng.uniform(-60.0, 80.0, size=(5, 12, 10, 8)).astype(dtype)
        batch = field[:, 2:8, 1:6, ::2]  # strided view
        sizes = comp.compressed_size_batch(batch)
        expected = [comp.compress(batch[i]).compressed_nbytes for i in range(5)]
        assert sizes.tolist() == expected

    def test_non_finite_rejected(self, make, dtype):
        comp = make()
        batch = np.zeros((2, 4, 4, 4), dtype=dtype)
        batch[1, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            comp.compressed_size_batch(batch)

    def test_wrong_ndim_rejected(self, make, dtype):
        with pytest.raises(ValueError):
            make().compressed_size_batch(np.zeros((4, 4, 4), dtype=dtype))


class TestLorenzoBatch:
    """``lorenzo_residuals`` differences the last three axes of any stack."""

    @pytest.mark.parametrize("utype", [np.uint32, np.uint64])
    def test_matches_scalar_blocks(self, utype):
        rng = np.random.default_rng(8)
        batch = rng.integers(0, 2**31, size=(6, 5, 4, 3)).astype(utype)
        batched = lorenzo_residuals(batch)
        np.testing.assert_array_equal(batched, oracle_lorenzo_residuals_batch(batch))
        for i in range(batch.shape[0]):
            np.testing.assert_array_equal(batched[i], lorenzo_residuals(batch[i]))
        # Two leading axes are two levels of independent blocks.
        nested = lorenzo_residuals(batch.reshape(2, 3, 5, 4, 3))
        np.testing.assert_array_equal(nested.reshape(batch.shape), batched)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lorenzo_residuals(np.zeros((4, 4), dtype=np.uint32))
        with pytest.raises(ValueError):
            lorenzo_residuals(np.zeros((2, 4, 4, 4), dtype=np.int32))

    def test_in_place_scratch_leaves_no_other_copy(self):
        values = np.arange(2 * 3 * 4 * 5, dtype=np.uint32).reshape(2, 3, 4, 5) ** 2
        expected = lorenzo_residuals(values)
        a, b = values.copy(), np.empty_like(values)
        assert lorenzo_residuals(a, scratch=(a, b)) is b
        np.testing.assert_array_equal(b, expected)


# -- the residual-code kernel's law -------------------------------------------

_SPECIALS = {
    dtype: np.array(
        [
            0.0,
            -0.0,
            np.finfo(dtype).tiny / 4,  # denormal
            -np.finfo(dtype).tiny / 4,
            np.finfo(dtype).max,
            -np.finfo(dtype).max,
        ],
        dtype=dtype,
    )
    for dtype in (np.float16, np.float32, np.float64)
}


def _law_batch(seed, shape, dtype, nblocks, strided):
    """``nblocks`` stacked blocks cycling turbulent / ramp / constant /
    specials-sprinkled content, optionally as a non-contiguous view."""
    rng = np.random.default_rng(seed)
    count = int(np.prod(shape))
    specials = _SPECIALS[dtype]
    blocks = []
    for i in range(nblocks):
        kind = (seed + i) % 4
        if kind == 0:
            block = rng.uniform(-60.0, 80.0, size=shape)
        elif kind == 1:
            block = np.linspace(-3.0, 7.0, count).reshape(shape)
        elif kind == 2:
            block = np.full(shape, rng.uniform(-60.0, 80.0))
        else:
            block = rng.normal(size=shape)
        block = block.astype(dtype)
        if kind == 3:
            hits = rng.integers(0, count, size=max(1, count // 3))
            block.reshape(-1)[hits] = rng.choice(specials, size=hits.size)
        blocks.append(block)
    batch = np.stack(blocks) if blocks else np.zeros((0,) + shape, dtype=dtype)
    if strided:
        batch = np.repeat(batch, 2, axis=-1)[..., ::2]
        assert not batch.flags.c_contiguous or batch.size <= 1 or shape[-1] == 1
    return batch


class TestResidualCodeKernel:
    """The fused kernel against the code it replaced, by property."""

    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        nblocks=st.sampled_from([0, 1, 2, 3, 5, 8, 13]),
        strided=st.booleans(),
        # 1 B: every block exceeds the budget (one row per chunk); the middle
        # values put the chunk boundary at varying, mostly non-dividing row
        # counts; the last is the shipped constant (a single chunk here).
        chunk_bytes=st.sampled_from([1, 100, 1_000, 10_000, fpzip_like._CHUNK_BYTES]),
        data=st.data(),
    )
    def test_sizes_codes_and_roundtrip(
        self, seed, shape, dtype, nblocks, strided, chunk_bytes, data
    ):
        comp = FpzipLikeCompressor()
        batch = _law_batch(seed, shape, dtype, nblocks, strided)
        with mock.patch.object(fpzip_like, "_CHUNK_BYTES", chunk_bytes):
            sizes = comp.compressed_size_batch(batch)
            split = data.draw(st.integers(min_value=0, max_value=nblocks))
            pieces = [
                comp.compressed_size_batch(batch[:split]),
                comp.compressed_size_batch(batch[split:]),
            ]
        results = [comp.compress(block) for block in batch]

        # New sizes == the replaced implementation's == the real payloads'.
        assert sizes.dtype == np.int64
        assert sizes.tolist() == oracle_compressed_size_batch(batch).tolist()
        assert sizes.tolist() == [len(r.payload) for r in results]
        # Chunk-boundary independence: any split of the batch concatenates.
        assert np.concatenate(pieces).tolist() == sizes.tolist()

        # Lossless down to the bit pattern (signed zeros, denormals).
        encoded = batch if dtype != np.float16 else batch.astype(np.float64)
        for block, result in zip(encoded, results):
            assert comp.decompress(result).tobytes() == block.tobytes()

        # Steps 1–3 on the stack == the replaced steps == per-block steps.
        arr = np.ascontiguousarray(encoded)
        utype = np.uint32 if arr.dtype == np.float32 else np.uint64
        bits = 8 * arr.dtype.itemsize
        codes = float_to_ordered_uint(arr)
        np.testing.assert_array_equal(codes, oracle_float_to_ordered_uint(arr))
        residuals = lorenzo_residuals(codes)
        np.testing.assert_array_equal(
            residuals, oracle_lorenzo_residuals_batch(codes)
        )
        expected = oracle_zigzag_encode(residuals.view(f"i{bits // 8}"), bits)
        fused = residual_codes(arr)
        np.testing.assert_array_equal(fused, expected)
        a, b = np.empty(arr.shape, utype), np.empty(arr.shape, utype)
        assert residual_codes(arr, (a, b)) is b
        np.testing.assert_array_equal(b, expected)
        for i in range(nblocks):
            np.testing.assert_array_equal(
                residuals[i], lorenzo_residuals(codes[i])
            )
        np.testing.assert_array_equal(
            byte_lengths(fused, bits // 8), oracle_byte_lengths(fused, bits // 8)
        )

        # A non-finite value anywhere refuses the whole batch.
        if batch.size:
            poisoned = np.array(batch)
            where = data.draw(st.integers(min_value=0, max_value=batch.size - 1))
            poisoned.reshape(-1)[where] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf])
            )
            with mock.patch.object(fpzip_like, "_CHUNK_BYTES", chunk_bytes):
                with pytest.raises(ValueError):
                    comp.compressed_size_batch(poisoned)

    @pytest.mark.parametrize("max_bytes", [4, 8])
    @pytest.mark.parametrize("utype", [np.uint32, np.uint64])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_byte_lengths_match_oracle(self, utype, max_bytes, data):
        top = np.iinfo(utype).max
        # Values on and around every byte boundary the dtype can hold.
        edges = sorted(
            {
                min(max(256**k + d, 0), top)
                for k in range(np.dtype(utype).itemsize + 1)
                for d in (-1, 0, 1)
            }
            | {0}
        )
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(edges), st.integers(0, int(top))),
                min_size=0,
                max_size=64,
            )
        )
        codes = np.array(values, dtype=utype)
        lengths = byte_lengths(codes, max_bytes)
        assert lengths.dtype == np.uint8
        np.testing.assert_array_equal(lengths, oracle_byte_lengths(codes, max_bytes))

    def test_byte_lengths_rejects_signed_codes(self):
        with pytest.raises(ValueError):
            byte_lengths(np.zeros(3, dtype=np.int64), 8)
        with pytest.raises(ValueError):
            byte_lengths(np.zeros(3, dtype=np.uint32), 0)


def _wire_format_blocks():
    """Three fixed blocks built from exact arithmetic only (no RNG, no libm)."""
    lattice = ((np.arange(120, dtype=np.int64) * 2654435761) % 1000 - 500) / 8.0
    f64 = np.finfo(np.float64)
    edge_cases = [0.0, -0.0, f64.tiny / 4, -f64.tiny / 4, f64.max, -f64.max, 1.5]
    return (
        lattice.astype(np.float32).reshape(6, 5, 4),
        np.array(edge_cases * 3, dtype=np.float64).reshape(3, 1, 7),
        np.full((4, 4, 4), 2.5, dtype=np.float32),
    )


def test_wire_format_pinned():
    """sha256 of ``compress(x).payload``, recorded before the fused kernel
    replaced steps 1–3: the payload format did not move by a byte."""
    recorded = [
        (494, "01fa2721c127b707ccb0cdbaa06e317e03b72b370df5bfb76f8e6462ba8e630e"),
        (109, "de3f82463e89012c2cbcebd7166e99756239e1edc99c246faac3e1fc3b7a89dc"),
        (72, "b27ee9a695e5d5120b81a4366714120ddfb072d5520af12f0cb196e71dd66f54"),
    ]
    comp = FpzipLikeCompressor()
    for block, (nbytes, digest) in zip(_wire_format_blocks(), recorded):
        result = comp.compress(block)
        assert len(result.payload) == nbytes
        assert hashlib.sha256(result.payload).hexdigest() == digest
        assert comp.decompress(result).tobytes() == block.tobytes()

"""Tests for the fpzip/zfp/lz-like compressors."""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import Compressor, fpzip_like, zfp_like
from repro.compress.bitplane import (
    byte_lengths,
    float_to_ordered_uint,
    ordered_uint_to_float,
    pack_nibbles,
    row_code_bytes,
    row_zigzag_bytes,
    unpack_nibbles,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.fpzip_like import FpzipLikeCompressor, residual_codes
from repro.compress.lz_like import (
    _HASH_BITS,
    LzLikeCompressor,
    _hash_all,
    lz77_compress,
    lz77_decompress,
)
from repro.compress.predictors import (
    lorenzo_reconstruct,
    lorenzo_residuals,
)
from repro.compress.zfp_like import ZfpLikeCompressor
from repro.metrics.registry import create_metric


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


# ``residual_codes``' zigzag step, ``byte_lengths`` and the chunked size path
# exactly as they stood before the size path lost its temporaries (a fresh
# sign-word array per chunk, a zero-filled length array plus one bool
# temporary per threshold, an int64 row sum), kept verbatim as the reference
# the kernel is tested — and, in ``benchmarks/``, timed — against.


def oracle_chunked_zigzag_encode(values, bits, out=None):
    if bits not in (32, 64):
        raise ValueError(f"bits must be 32 or 64, got {bits}")
    itype = np.int32 if bits == 32 else np.int64
    utype = np.uint32 if bits == 32 else np.uint64
    v = np.asarray(values, dtype=itype)
    if out is None:
        out = np.empty(v.shape, dtype=utype)
    signs = v >> (bits - 1)
    doubled = np.left_shift(v, 1, out=out.view(itype))
    np.bitwise_xor(doubled, signs, out=doubled)
    return out


def oracle_chunked_byte_lengths(codes, max_bytes):
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    c = np.asarray(codes)
    if c.dtype.kind != "u":
        raise ValueError(f"expected unsigned integer codes, got {c.dtype}")
    lengths = np.zeros(c.shape, dtype=np.uint8)
    # 256^k beyond the dtype's own width is a length no code can reach.
    for k in range(min(max_bytes, c.dtype.itemsize)):
        lengths += c >= c.dtype.type(256**k)
    return lengths


def oracle_residual_codes(values, scratch=None):
    width = values.dtype.itemsize
    if scratch is None:
        scratch = tuple(np.empty(values.shape, f"u{width}") for _ in range(2))
    a, b = scratch
    codes = float_to_ordered_uint(values, out=a)
    residuals = lorenzo_residuals(codes, scratch=(a, b))
    return oracle_chunked_zigzag_encode(residuals.view(f"i{width}"), 8 * width, out=b)


def oracle_chunked_compressed_size_batch(batch):
    arr = FpzipLikeCompressor._prepare_batch(batch)
    nblocks = arr.shape[0]
    max_bytes = arr.dtype.itemsize
    count = int(np.prod(arr.shape[1:]))
    fixed = fpzip_like._HEADER.size + 4 * max_bytes + (count + 1) // 2
    sizes = np.full(nblocks, fixed, dtype=np.int64)
    rows = max(1, min(nblocks, fpzip_like._CHUNK_BYTES // max(1, count * max_bytes)))
    a = np.empty((rows,) + arr.shape[1:], dtype=f"u{max_bytes}")
    b = np.empty_like(a)
    for lo in range(0, nblocks, rows):
        chunk = arr[lo : lo + rows]
        n = chunk.shape[0]
        codes = oracle_residual_codes(chunk, (a[:n], b[:n])).reshape(n, count)
        lengths = oracle_chunked_byte_lengths(codes, max_bytes)
        sizes[lo : lo + n] += lengths.sum(axis=1, dtype=np.int64)
    return sizes


# The zfp-like coder's two quantisations and the lz-like coder's single-block
# byte planes exactly as they stood before each coder got one encoder for one
# block and a stack alike: the per-block pad/cell split, the quantising half
# of ``ZfpLikeCompressor.compress``, ``ZfpLikeCompressor.compressed_size_batch``
# (its own copy of the quantisation, ``precision`` fixed at 16) and
# ``LzLikeCompressor._to_planes``, kept verbatim as the reference the encoders
# are tested against.

_ZFP_CELL = 4
_ZFP_PRECISION = 16


def oracle_zfp_pad_to_multiple(arr, multiple):
    pads = [(0, (-s) % multiple) for s in arr.shape]
    if any(p[1] for p in pads):
        arr = np.pad(arr, pads, mode="edge")
    return arr


def oracle_zfp_to_cells(arr):
    nx, ny, nz = arr.shape
    cells = arr.reshape(
        nx // _ZFP_CELL, _ZFP_CELL, ny // _ZFP_CELL, _ZFP_CELL, nz // _ZFP_CELL, _ZFP_CELL
    )
    cells = cells.transpose(0, 2, 4, 1, 3, 5)
    return cells.reshape(-1, _ZFP_CELL, _ZFP_CELL, _ZFP_CELL)


def oracle_zfp_pad_to_multiple_batch(arr, multiple):
    pads = [(0, 0)] + [(0, (-s) % multiple) for s in arr.shape[1:]]
    if any(p[1] for p in pads):
        arr = np.pad(arr, pads, mode="edge")
    return arr


def oracle_zfp_to_cells_batch(arr):
    nb, nx, ny, nz = arr.shape
    cells = arr.reshape(
        nb, nx // _ZFP_CELL, _ZFP_CELL, ny // _ZFP_CELL, _ZFP_CELL, nz // _ZFP_CELL, _ZFP_CELL
    )
    cells = cells.transpose(0, 1, 3, 5, 2, 4, 6)
    return cells.reshape(nb, -1, _ZFP_CELL, _ZFP_CELL, _ZFP_CELL)


def oracle_zfp_codes(block):
    """The quantising half of ``compress``: a block's per-cell exponents
    (clipped int32) and its zigzag-mapped transform coefficients (uint64)."""
    prepared = ZfpLikeCompressor._prepare(block)
    arr = prepared.astype(np.float64)
    padded = oracle_zfp_pad_to_multiple(arr, _ZFP_CELL)
    cells = oracle_zfp_to_cells(padded)
    ncells = cells.shape[0]

    maxabs = np.abs(cells).reshape(ncells, -1).max(axis=1)
    exponents = np.zeros(ncells, dtype=np.int32)
    nonzero = maxabs > 0
    exponents[nonzero] = np.ceil(np.log2(maxabs[nonzero])).astype(np.int32)
    exponents = np.clip(exponents, -127, 127)
    scale = np.ldexp(1.0, (_ZFP_PRECISION - 2) - exponents)  # leave headroom
    ints = np.rint(cells * scale[:, None, None, None]).astype(np.int64)

    coeffs = ZfpLikeCompressor._forward_transform(ints)

    flat = coeffs.reshape(-1)
    zz = zigzag_encode(flat.astype(np.int64), 64)
    return exponents, zz


def oracle_zfp_compressed_size_batch(batch):
    arr = ZfpLikeCompressor._prepare_batch(batch).astype(np.float64)
    nblocks = arr.shape[0]
    if nblocks == 0:
        return np.zeros(0, dtype=np.int64)
    padded = oracle_zfp_pad_to_multiple_batch(arr, _ZFP_CELL)
    cells = oracle_zfp_to_cells_batch(padded)
    ncells = cells.shape[1]
    flat_cells = cells.reshape(nblocks * ncells, _ZFP_CELL, _ZFP_CELL, _ZFP_CELL)

    maxabs = np.abs(flat_cells).reshape(nblocks * ncells, -1).max(axis=1)
    exponents = np.zeros(nblocks * ncells, dtype=np.int32)
    nonzero = maxabs > 0
    exponents[nonzero] = np.ceil(np.log2(maxabs[nonzero])).astype(np.int32)
    exponents = np.clip(exponents, -127, 127)
    scale = np.ldexp(1.0, (_ZFP_PRECISION - 2) - exponents)
    ints = np.rint(flat_cells * scale[:, None, None, None]).astype(np.int64)

    coeffs = ZfpLikeCompressor._forward_transform(ints)

    zz = zigzag_encode(coeffs.reshape(nblocks, -1).astype(np.int64), 64)
    lengths = byte_lengths(zz, 8)
    ncoeffs = ncells * _ZFP_CELL**3
    fixed = zfp_like._HEADER.size + 32 + ncells + (ncoeffs + 1) // 2
    return fixed + lengths.sum(axis=1, dtype=np.int64)


def oracle_lz_to_planes(arr):
    raw = arr.reshape(-1)
    nbytes_per = raw.dtype.itemsize
    as_bytes = raw.view(np.uint8).reshape(raw.size, nbytes_per)
    planes = []
    for b in range(nbytes_per):
        plane = as_bytes[:, b]
        # XOR-delta within the plane: repeated values become zero runs.
        delta = plane.copy()
        delta[1:] = plane[1:] ^ plane[:-1]
        planes.append(delta.tobytes())
    return b"".join(planes), nbytes_per


def oracle_hash4(data: bytes, pos: int) -> int:
    """Hash of the 4 bytes starting at ``pos`` (assumes pos+4 <= len)."""
    value = (
        data[pos]
        | (data[pos + 1] << 8)
        | (data[pos + 2] << 16)
        | (data[pos + 3] << 24)
    )
    return (value * 2654435761) >> (32 - _HASH_BITS) & ((1 << _HASH_BITS) - 1)


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


class TestHashAll:
    @settings(deadline=None, max_examples=30)
    @given(st.binary(min_size=0, max_size=300))
    def test_matches_scalar_hash(self, data):
        hashes = _hash_all(data)
        assert len(hashes) == max(0, len(data) - 3)
        assert hashes == [oracle_hash4(data, p) for p in range(len(hashes))]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize(
    "make",
    [FpzipLikeCompressor, ZfpLikeCompressor, LzLikeCompressor],
    ids=["fpzip", "zfp", "lz"],
)
class TestCompressedSizeBatch:
    """The size path's edge cases (its sizes are :class:`TestCoderLaw`'s)."""

    def test_empty_batch(self, make, dtype):
        comp = make()
        sizes = comp.compressed_size_batch(np.zeros((0, 4, 4, 4), dtype=dtype))
        assert sizes.shape == (0,)

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
        with mock.patch.object(fpzip_like, "_CHUNK_BYTES", chunk_bytes):
            assert sizes.tolist() == oracle_chunked_compressed_size_batch(batch).tolist()
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

    @pytest.mark.parametrize(
        "shape,dtype", [((1, 41, 41, 41), np.float64), ((1, 26, 26, 26), np.float32)]
    )
    def test_row_sums_past_two_bytes(self, shape, dtype):
        """A noise block whose code bytes sum past 2^16 (float32: 17 576
        points, nearly all with 4-byte codes): the law's small blocks never
        get there, so only this case sees a row accumulator narrower than
        uint32 wrap."""
        block = np.random.default_rng(44).uniform(-60.0, 80.0, size=shape).astype(dtype)
        max_bytes = block.dtype.itemsize
        codes = residual_codes(block).reshape(1, -1)
        total = int(byte_lengths(codes, max_bytes).sum(dtype=np.int64))
        assert total > 2**16

        row = row_code_bytes(codes, max_bytes)
        assert row.dtype == np.uint32 and row.tolist() == [total]
        sizes = FpzipLikeCompressor().compressed_size_batch(block)
        assert sizes.tolist() == oracle_compressed_size_batch(block).tolist()
        assert sizes.tolist() == oracle_chunked_compressed_size_batch(block).tolist()
        assert sizes.tolist() == [len(FpzipLikeCompressor().compress(block[0]).payload)]

    @pytest.mark.parametrize("itype", [np.int32, np.int64])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_row_zigzag_bytes_equal_the_codes(self, itype, data):
        """Summed from the folded residuals, the byte lengths are those of
        the zigzag codes, on and around every byte boundary of the codes."""
        info, width = np.iinfo(itype), np.dtype(itype).itemsize
        edges = sorted(
            {
                min(max(sign * 2 ** (8 * k - 1) + d, info.min), info.max)
                for k in range(1, width + 1)
                for sign in (1, -1)
                for d in (-2, -1, 0, 1)
            }
            | {0, -1, info.min, info.max}
        )
        nrows = data.draw(st.integers(min_value=1, max_value=3))
        ncols = data.draw(st.integers(min_value=0, max_value=24))
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(edges), st.integers(info.min, info.max)),
                min_size=nrows * ncols,
                max_size=nrows * ncols,
            )
        )
        residuals = np.array(values, dtype=itype).reshape(nrows, ncols)
        codes = oracle_zigzag_encode(residuals, 8 * width)
        expected = oracle_byte_lengths(codes, width).sum(axis=1, dtype=np.int64)
        scratch = (np.empty(codes.shape, np.uint8), np.empty(codes.shape, bool))
        row = row_zigzag_bytes(residuals, np.empty_like(residuals), scratch)
        assert row.dtype == np.uint32
        assert row.tolist() == expected.tolist()

    def test_row_code_bytes_refuses_what_it_cannot_sum(self):
        with pytest.raises(ValueError, match="2-D"):
            row_code_bytes(np.zeros(4, dtype=np.uint32), 4)
        with pytest.raises(ValueError, match="unsigned"):
            row_code_bytes(np.zeros((1, 4), dtype=np.int32), 4)
        with pytest.raises(ValueError, match="int32/int64"):
            row_zigzag_bytes(np.zeros((1, 4), dtype=np.uint32), None, None)
        with pytest.raises(ValueError, match="2-D"):
            row_zigzag_bytes(np.zeros(4, dtype=np.int32), None, None)
        # 2^29 eight-byte codes could sum to 2^32: refused before any pass
        # or scratch allocation (the codes are a broadcast view of one zero).
        wide = np.broadcast_to(np.zeros(1, dtype=np.uint64), (1, 2**29))
        with pytest.raises(ValueError, match="uint32"):
            row_code_bytes(wide, 8)
        with pytest.raises(ValueError, match="uint32"):
            row_zigzag_bytes(wide.view(np.int64), None, None)

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
        row = row_code_bytes(codes.reshape(1, -1), max_bytes)
        assert row.tolist() == [int(oracle_byte_lengths(codes, max_bytes).sum())]

    def test_byte_lengths_rejects_signed_codes(self):
        with pytest.raises(ValueError):
            byte_lengths(np.zeros(3, dtype=np.int64), 8)
        with pytest.raises(ValueError):
            byte_lengths(np.zeros(3, dtype=np.uint32), 0)


# -- the encoders' oracle law --------------------------------------------------

#: Edge values inside float32's range (signed zeros, a float32 denormal, ±max):
#: float32 is what the simulation hands the coders, and beyond that range the
#: zfp-like coder's int64 quantisation overflows.
_CODER_SPECIALS = {
    np.float16: _SPECIALS[np.float16],
    np.float32: _SPECIALS[np.float32],
    np.float64: _SPECIALS[np.float32].astype(np.float64),
}


def _coder_batch(seed, shape, dtype, nblocks, layout):
    """``nblocks`` stacked blocks cycling noisy / ramp / constant / subnormal
    float32 / specials-sprinkled content, laid out C-contiguous, as a strided
    view or read-only."""
    rng = np.random.default_rng(seed)
    count = int(np.prod(shape))
    blocks = []
    for i in range(nblocks):
        kind = (seed + i) % 5
        if kind == 0:
            block = rng.uniform(-60.0, 80.0, size=shape)
        elif kind == 1:
            block = np.linspace(-3.0, 7.0, count).reshape(shape)
        elif kind == 2:
            block = np.full(shape, rng.uniform(-60.0, 80.0))
        elif kind == 3:
            block = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32) * np.float32(1e-40)
        else:
            block = rng.normal(size=shape)
            hits = rng.integers(0, count, size=max(1, count // 3))
            block.reshape(-1)[hits] = rng.choice(_CODER_SPECIALS[dtype], size=hits.size)
        blocks.append(block.astype(dtype))
    batch = np.stack(blocks) if blocks else np.zeros((0,) + shape, dtype=dtype)
    if layout == "strided":
        batch = np.repeat(batch, 2, axis=-1)[..., ::2]
    elif layout == "read-only":
        batch.flags.writeable = False
    return batch


_LAYOUTS = ["C", "strided", "read-only"]


class TestEncoderOracles:
    """ZFP's and LZ's encoders against the code they replaced, by property.

    Named mutation: ``_codes`` taking ``np.floor`` of ``log2`` instead of
    ``np.ceil`` changes the exponents and the codes, and fails this law.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        nblocks=st.sampled_from([0, 1, 2, 3, 5]),
        layout=st.sampled_from(_LAYOUTS),
    )
    def test_codes_and_sizes_equal_the_oracles(self, seed, shape, dtype, nblocks, layout):
        batch = _coder_batch(seed, shape, dtype, nblocks, layout)
        zfp = ZfpLikeCompressor()
        sizes = zfp.compressed_size_batch(batch)
        assert sizes.tolist() == oracle_zfp_compressed_size_batch(batch).tolist()
        exponents, codes = zfp._codes(zfp._prepare_batch(batch))
        assert exponents.dtype == np.int32 and codes.dtype == np.uint64
        header = zfp_like._HEADER.size + 32
        for i, block in enumerate(batch):
            oracle_exponents, oracle_codes = oracle_zfp_codes(block)
            assert exponents[i].tobytes() == oracle_exponents.tobytes()
            assert codes[i].tobytes() == oracle_codes.tobytes()
            # ``compress`` serialises the same codes.
            payload = zfp.compress(block).payload
            cells = payload[header : header + exponents.shape[1]]
            nibbles = payload[header + exponents.shape[1] :][: (codes.shape[1] + 1) // 2]
            assert cells == oracle_exponents.astype(np.int8).tobytes()
            assert nibbles == pack_nibbles(byte_lengths(oracle_codes, 8))

        prepared = LzLikeCompressor._prepare_batch(batch)
        if nblocks:
            streams = LzLikeCompressor._to_planes_batch(prepared)
            assert streams == [oracle_lz_to_planes(b)[0] for b in prepared]


#: The compressor-based scorers of the metric table, and whether each
#: one's coder is lossless.
CODER_METRICS = {"FPZIP": True, "ZFP": False, "LZ": True}


def registered_coder(name):
    """The coder the table's ``name`` metric scores with (pymor's idiom:
    the implementations under test come from the metric table)."""
    return create_metric(name).compressor


_SHAPES = st.tuples(*[st.integers(min_value=1, max_value=9)] * 3)
_CELL_SHAPES = st.tuples(*[st.integers(min_value=4, max_value=9)] * 3)


def _ramp(shape):
    """A trilinear ramp over ``shape``."""
    axes = [np.linspace(0.0, 1.0 + k, n) for k, n in enumerate(shape)]
    return np.add.outer(np.add.outer(axes[0], axes[1]), axes[2])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64], ids=lambda t: t.__name__)
@pytest.mark.parametrize("name", sorted(CODER_METRICS))
class TestCoderLaw:
    """The laws every coder keeps, for each of float16/32/64, over length-1
    axes, subnormal float32 and edge values (inside float32's range), and
    C, strided and read-only stacks."""

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shape=_SHAPES, layout=st.sampled_from(_LAYOUTS))
    def test_decode_inverts_encode(self, name, dtype, seed, shape, layout):
        """decode∘encode is the identity (lossless coders, on the prepared
        float32/float64 block) or within ``error_bound`` (ZFP)."""
        coder = registered_coder(name)
        for block in _coder_batch(seed, shape, dtype, 5, layout):
            back = coder.decompress(coder.compress(block))
            assert back.shape == block.shape
            if CODER_METRICS[name]:
                encoded = Compressor._prepare(block)
                assert back.dtype == encoded.dtype
                assert back.tobytes() == encoded.tobytes()
            else:
                assert back.dtype == block.dtype
                error = np.abs(back.astype(np.float64) - block.astype(np.float64)).max()
                assert error <= coder.error_bound(block)

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 10_000),
        shape=_SHAPES,
        nblocks=st.sampled_from([0, 1, 2, 5]),
        layout=st.sampled_from(_LAYOUTS),
    )
    def test_batch_sizes_are_payload_lengths(self, name, dtype, seed, shape, nblocks, layout):
        coder = registered_coder(name)
        batch = _coder_batch(seed, shape, dtype, nblocks, layout)
        sizes = coder.compressed_size_batch(batch)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [len(coder.compress(block).payload) for block in batch]

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shape=_CELL_SHAPES)
    def test_smooth_never_larger_than_noisy(self, name, dtype, seed, shape):
        """A trilinear ramp never encodes larger than uniform noise of the
        same shape: the content sensitivity the scoring metric relies on.
        Blocks hold at least one 4×4×4 cell: two noisy values can happen to
        code shorter than two ramp values."""
        coder = registered_coder(name)
        noisy = np.random.default_rng(seed).uniform(-60.0, 80.0, size=shape)
        small, large = coder.compressed_size_batch(np.stack([_ramp(shape), noisy]).astype(dtype))
        assert small <= large

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shape=_CELL_SHAPES)
    def test_constant_never_larger_than_smooth(self, name, dtype, seed, shape):
        """A constant block, which carries no information, never encodes
        larger than a trilinear ramp of the same shape."""
        coder = registered_coder(name)
        constant = np.full(shape, np.random.default_rng(seed).uniform(-60.0, 80.0))
        small, large = coder.compressed_size_batch(np.stack([constant, _ramp(shape)]).astype(dtype))
        assert small <= large

    def test_refuses_non_finite_blocks_and_foreign_payloads(self, name, dtype):
        coder = registered_coder(name)
        with pytest.raises(ValueError):
            coder.compress(np.full((3, 3, 3), np.nan, dtype=dtype))
        result = coder.compress(np.zeros((3, 3, 3), dtype=dtype))
        foreign = dataclasses.replace(result, payload=b"XXXX" + result.payload[4:])
        with pytest.raises(ValueError):
            coder.decompress(foreign)


class TestZfpLike:
    def test_constant_block_near_exact(self, constant_block):
        comp = ZfpLikeCompressor()
        back = comp.decompress(comp.compress(constant_block))
        np.testing.assert_allclose(back, constant_block, atol=1e-6)

    @pytest.mark.parametrize(
        "block",
        [
            (np.arange(64, dtype=np.float32).reshape(4, 4, 4) - 30) * np.float32(3e-42),
            np.array([[[0.36, np.finfo(np.float32).max]]], dtype=np.float32),
        ],
        ids=["subnormal", "max"],
    )
    def test_extreme_float32_blocks_within_bound(self, block):
        """The bound follows the stored exponent, clipped at ±127 — a cell of
        float32 denormals is quantised on the coarser step of −127 — and a
        value rounded past float32's largest decodes to it, not to inf."""
        comp = ZfpLikeCompressor()
        back = comp.decompress(comp.compress(block))
        error = np.abs(back.astype(np.float64) - block.astype(np.float64)).max()
        assert error <= comp.error_bound(block)

    @staticmethod
    def _float64_ramp(magnitude):
        return np.linspace(-magnitude, magnitude, 64).reshape(4, 4, 4)

    def test_float64_block_below_the_int64_lifting_limit_codes_within_bound(self):
        """A float64 cell's exponent is clipped to 127, so its quantised
        values grow with it; at 1e51 they still fit the int64 lifting."""
        comp, block = ZfpLikeCompressor(), self._float64_ramp(1e51)
        back = comp.decompress(comp.compress(block))
        assert np.abs(back - block).max() <= comp.error_bound(block)
        sizes = comp.compressed_size_batch(np.stack([np.zeros_like(block), block]))
        assert sizes[1] == len(comp.compress(block).payload)

    @pytest.mark.parametrize("magnitude", [1e52, 1e53])
    def test_float64_blocks_beyond_the_int64_lifting_are_refused(self, magnitude):
        """From 2**170 the lifting overflows int64: 1e52 used to decode 6e51
        off (bound 8.3e34), 1e53 to garbage.  Such a block is refused, alone
        or in a batch, like a non-finite one."""
        comp, block = ZfpLikeCompressor(), self._float64_ramp(magnitude)
        with pytest.raises(ValueError, match="int64 range"):
            comp.compress(block)
        with pytest.raises(ValueError, match="int64 range"):
            comp.compressed_size_batch(np.stack([np.zeros_like(block), block]))


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
    """sha256 of ``compress(x).payload`` for each coder: FPZIP's recorded
    before the fused kernel replaced steps 1–3, ZFP's and LZ's before each got
    one encoder for a block and a stack alike.  No payload moved by a byte;
    ZFP refuses the float64 block holding ±max, whose quantisation overflows."""
    recorded = {
        FpzipLikeCompressor: [
            (494, "01fa2721c127b707ccb0cdbaa06e317e03b72b370df5bfb76f8e6462ba8e630e"),
            (109, "de3f82463e89012c2cbcebd7166e99756239e1edc99c246faac3e1fc3b7a89dc"),
            (72, "b27ee9a695e5d5120b81a4366714120ddfb072d5520af12f0cb196e71dd66f54"),
        ],
        ZfpLikeCompressor: [
            (414, "5515fc044b9a100e2566e85ec72790e31aa88be7d9ec759f8bb2e105f8a5062a"),
            None,
            (88, "e29113c6b495f047e766b152df2de4b6435f89a833c9a92e925f31d1624d2160"),
        ],
        LzLikeCompressor: [
            (244, "00ad5c48a608272b747966b4f65edd18b2bf9bcff1f7e49b5786bcc35d4c3dfd"),
            (66, "7172237a8dc430956258cf6c68d59b0a59ee9442d0322b3d53ec053e82f7cdbb"),
            (55, "a58883103e356295b8dc36e21e5d6f2f0818bd2733aeadb6d27c30794d90c2e3"),
        ],
    }
    for make, pins in recorded.items():
        comp = make()
        for block, pin in zip(_wire_format_blocks(), pins):
            if pin is None:
                with pytest.raises(ValueError, match="int64 range"):
                    comp.compress(block)
                continue
            nbytes, digest = pin
            result = comp.compress(block)
            assert len(result.payload) == nbytes
            assert hashlib.sha256(result.payload).hexdigest() == digest
            if make is not ZfpLikeCompressor:
                assert comp.decompress(result).tobytes() == block.tobytes()

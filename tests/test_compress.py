"""Tests for the fpzip- and lz-like coders.

The program keeps each coder as the size it encodes a block to
(``compressed_size_batch``).  The encoders that write the payloads and the
decoders that read them back live in this module, and are the oracle of the
coder laws: every size is the length of a payload that decodes to its block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import bitplane, fpzip_like, lz_like
from repro.compress.bitplane import float_to_ordered_uint, row_zigzag_bytes
from repro.compress.fpzip_like import FpzipLikeCompressor
from repro.compress.lz_like import (
    _HASH_BITS,
    LzLikeCompressor,
    _hash_all,
    lz77_compress,
)
from repro.compress.predictors import lorenzo_residuals
from repro.metrics.registry import create_metric
from repro.scenarios import create_scenario_config
from repro.scenarios.scenario import scenario_decomposition
from repro.utils.validation import ensure_3d


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

# The lz-like coder's single-block byte planes and its scalar 4-byte hash
# exactly as they stood before the batched plane pass and the vectorised
# hashes replaced them, kept verbatim as the reference those are tested
# against.


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


# -- the coders' encoders and decoders ------------------------------------------
#
# A scoring metric reads only the size a block encodes to, so the program
# keeps each coder's ``compressed_size_batch``.  The payloads those sizes
# count are written and read back here: the encode and decode halves of both
# coders, moved verbatim out of ``repro.compress`` (``Compressor._prepare``
# and ``CompressionResult``; FPZIP's ``residual_codes`` and its code
# container; LZ's token-stream decoder), are the oracle of the coder laws
# below — each size is the length of the oracle's payload, and the oracle's
# decoder gives the block back bit for bit.  The one change: the LZ encoder
# builds its byte planes with the single-block ``oracle_lz_to_planes``, not
# the program's batched pass, so the size law checks that pass too.


@dataclasses.dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one block.

    Attributes
    ----------
    payload:
        The encoded byte string.
    original_nbytes:
        Size of the uncompressed input buffer.
    shape:
        Shape of the original array (needed for decompression).
    dtype:
        Dtype string of the original array.
    """

    payload: bytes
    original_nbytes: int
    shape: Tuple[int, int, int]
    dtype: str

    @property
    def compressed_nbytes(self) -> int:
        """Size of the encoded payload in bytes."""
        return len(self.payload)


def ordered_uint_to_float(codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`float_to_ordered_uint`."""
    utype, itype, bits = bitplane._spec(dtype)
    codes = np.asarray(codes, dtype=utype)
    sign_mask = utype(1) << (bits - 1)
    was_positive = (codes & sign_mask) != 0
    raw = np.where(was_positive, codes & ~sign_mask, ~codes)
    return raw.astype(utype).view(dtype).copy()


def zigzag_encode(
    values: np.ndarray,
    bits: int,
    out: Optional[np.ndarray] = None,
    signs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Map signed residuals to unsigned codes: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.

    ``out`` (unsigned, ``values``' shape) receives the codes and may be
    ``values``' own buffer: the sign words are taken first.  ``signs`` (any
    ``bits``-wide integer array of ``values``' shape, sharing no memory with
    ``values`` or ``out``) holds the sign words; allocated when omitted.
    """
    if bits not in (32, 64):
        raise ValueError(f"bits must be 32 or 64, got {bits}")
    itype = np.int32 if bits == 32 else np.int64
    utype = np.uint32 if bits == 32 else np.uint64
    v = np.asarray(values, dtype=itype)
    if out is None:
        out = np.empty(v.shape, dtype=utype)
    signs = np.right_shift(
        v, bits - 1, out=None if signs is None else signs.view(itype)
    )
    doubled = np.left_shift(v, 1, out=out.view(itype))
    np.bitwise_xor(doubled, signs, out=doubled)
    return out


def zigzag_decode(codes: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    if bits not in (32, 64):
        raise ValueError(f"bits must be 32 or 64, got {bits}")
    utype = np.uint32 if bits == 32 else np.uint64
    itype = np.int32 if bits == 32 else np.int64
    c = np.asarray(codes, dtype=utype)
    return ((c >> 1).astype(itype)) ^ -((c & 1).astype(itype))


def _check_codes(codes: np.ndarray, max_bytes: int) -> np.ndarray:
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    c = np.asarray(codes)
    if c.dtype.kind != "u":
        raise ValueError(f"expected unsigned integer codes, got {c.dtype}")
    return c


def _fill_byte_lengths(
    codes: np.ndarray, max_bytes: int, lengths: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``lengths`` (uint8, ``codes``' shape) ← each code's byte length, as
    ``Σ_k (code ≥ 256^k)``: the first threshold is written straight into
    ``lengths``, each further one added through ``mask``."""
    np.not_equal(codes, 0, out=lengths.view(bool))
    # 256^k beyond the dtype's own width is a length no code can reach.
    top = min(max_bytes, codes.dtype.itemsize)
    return bitplane._add_thresholds(
        codes, (256**k for k in range(1, top)), lengths, mask
    )


def byte_lengths(codes: np.ndarray, max_bytes: int) -> np.ndarray:
    """Number of little-endian bytes needed to represent each unsigned code.

    Zero needs 0 bytes; values below 256 need 1; and so on up to ``max_bytes``.
    """
    c = _check_codes(codes, max_bytes)
    lengths = np.empty(c.shape, dtype=np.uint8)
    return _fill_byte_lengths(c, max_bytes, lengths, np.empty(c.shape, dtype=bool))


def pack_nibbles(values: np.ndarray) -> bytes:
    """Pack an array of 4-bit values (0..15) into a byte string (two per byte)."""
    v = np.asarray(values, dtype=np.uint8)
    if np.any(v > 15):
        raise ValueError("nibble values must be < 16")
    if v.size % 2 == 1:
        v = np.concatenate([v, np.zeros(1, dtype=np.uint8)])
    packed = (v[0::2] << 4) | v[1::2]
    return packed.tobytes()


def unpack_nibbles(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`; returns ``count`` nibble values."""
    packed = np.frombuffer(data, dtype=np.uint8)
    high = packed >> 4
    low = packed & 0x0F
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = high
    out[1::2] = low
    if count > out.size:
        raise ValueError(f"requested {count} nibbles but only {out.size} stored")
    return out[:count]


def pack_codes(codes: np.ndarray, max_bytes: int) -> Tuple[bytes, bytes, bytes]:
    """The byte-length-grouped container of unsigned ``codes``.

    Returns ``(sizes, nibbles, body)``: ``sizes`` is a table of ``max_bytes``
    little-endian uint32, the byte size of each length group 1..``max_bytes``;
    ``nibbles`` every code's byte length, two per byte (:func:`pack_nibbles`);
    ``body`` the groups in turn, each holding its codes' significant
    little-endian bytes in input order, so decoding scatters them back
    deterministically.  Zero codes take no body bytes at all.
    """
    flat = np.asarray(codes).reshape(-1)
    lengths = byte_lengths(flat, max_bytes)
    flat_bytes = flat.astype(f"<u{max_bytes}").view(np.uint8)
    flat_bytes = flat_bytes.reshape(flat.size, max_bytes)
    groups = [flat_bytes[lengths == n, :n].tobytes() for n in range(1, max_bytes + 1)]
    sizes = struct.pack(f"<{max_bytes}I", *(len(g) for g in groups))
    return sizes, pack_nibbles(lengths), b"".join(groups)


def unpack_codes(
    payload: bytes, offset: int, sizes_at: int, count: int, max_bytes: int
) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`pack_codes`: the ``count`` codes whose nibble stream
    starts at ``offset`` in ``payload`` (the body follows it) and whose size
    table starts at ``sizes_at``.  Returns the codes (unsigned, ``max_bytes``
    wide) and the offset just past the body."""
    sizes = struct.unpack_from(f"<{max_bytes}I", payload, sizes_at)
    nibble_bytes = (count + 1) // 2
    lengths = unpack_nibbles(payload[offset : offset + nibble_bytes], count)
    offset += nibble_bytes
    codes = np.zeros(count, dtype=f"u{max_bytes}")
    for nbytes, size in enumerate(sizes, start=1):
        group = payload[offset : offset + size]
        offset += size
        mask = lengths == nbytes
        selected = int(np.count_nonzero(mask))
        if selected == 0:
            continue
        padded = np.zeros((selected, max_bytes), dtype=np.uint8)
        padded[:, :nbytes] = np.frombuffer(group, dtype=np.uint8).reshape(selected, nbytes)
        codes[mask] = padded.view(f"<u{max_bytes}").reshape(selected)
    return codes, offset


def lorenzo_reconstruct(residuals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lorenzo_residuals` (cumulative sums along each axis)."""
    r = np.asarray(residuals)
    if r.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {r.shape}")
    if r.dtype not in (np.uint32, np.uint64):
        raise ValueError(f"expected uint32/uint64 input, got {r.dtype}")
    out = r.copy()
    for axis in range(3):
        # Cumulative sum with wrap-around in the original dtype.
        np.cumsum(out, axis=axis, dtype=out.dtype, out=out)
    return out


def residual_codes(
    values: np.ndarray, scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Steps 1–3 of the coder: floats ``(..., sx, sy, sz)`` → zigzag codes.

    ``values`` (C-contiguous float32/float64) is only read.  ``scratch`` is an
    optional pair of C-contiguous unsigned arrays of its shape and width,
    allocated when omitted; both are overwritten, the second holds the codes.
    """
    width = values.dtype.itemsize
    if scratch is None:
        scratch = tuple(np.empty(values.shape, f"u{width}") for _ in range(2))
    a, b = scratch
    residuals = fpzip_like._residuals(values, a, b)
    # ``a`` is free once the residuals are in ``b``: it takes the sign words.
    return zigzag_encode(residuals.view(f"i{width}"), 8 * width, out=b, signs=a)


_FPZIP_MAGIC = b"FPZL"
_LZ_MAGIC = b"LZBM"


def _code_dtype(code: int) -> np.dtype:
    if code == 4:
        return np.dtype(np.float32)
    if code == 8:
        return np.dtype(np.float64)
    raise ValueError(f"unsupported dtype code {code}")


def lz77_decompress(payload: bytes) -> bytes:
    """Inverse of :func:`lz77_compress`."""
    out = bytearray()
    pos = 0
    n = len(payload)
    while pos < n:
        # varint literal length
        shift = 0
        count = 0
        while True:
            byte = payload[pos]
            pos += 1
            count |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
            else:
                break
        out.extend(payload[pos : pos + count])
        pos += count
        if pos >= n:
            break
        token = payload[pos]
        pos += 1
        (dist,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        if token == 0:
            break
        length = token + lz_like._MIN_MATCH - 1
        start = len(out) - dist
        if start < 0:
            raise ValueError("corrupt LZ77 stream: distance beyond output")
        for i in range(length):
            out.append(out[start + i])
    return bytes(out)


class OracleCoder:
    """A coder's encode and decode halves (``compress`` / ``decompress``)."""

    @staticmethod
    def _prepare(block: np.ndarray) -> np.ndarray:
        """Validate and normalise an input block (3-D float32/float64)."""
        arr = ensure_3d(block, "block")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("block contains non-finite values")
        return np.ascontiguousarray(arr)


class FpzipOracle(OracleCoder):
    """The fpzip-like coder's payload: header, group-size table, nibbles, body."""

    def compress(self, block: np.ndarray) -> CompressionResult:
        """Encode ``block`` losslessly (the format: :mod:`repro.compress.fpzip_like`)."""
        arr = self._prepare(block)
        sizes, nibbles, body = pack_codes(residual_codes(arr), arr.dtype.itemsize)
        header = fpzip_like._HEADER.pack(
            _FPZIP_MAGIC, arr.dtype.itemsize, 0, 0, arr.shape[0], arr.shape[1], arr.shape[2]
        )
        return CompressionResult(
            payload=header + sizes + nibbles + body,
            original_nbytes=int(arr.nbytes),
            shape=tuple(arr.shape),
            dtype=str(arr.dtype),
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Bit-exact reconstruction of the original block."""
        payload = result.payload
        magic, dcode, _, _, nx, ny, nz = fpzip_like._HEADER.unpack_from(payload, 0)
        if magic != _FPZIP_MAGIC:
            raise ValueError("not an fpzip-like payload")
        dtype = _code_dtype(dcode)
        max_bytes = dtype.itemsize
        header_size = fpzip_like._HEADER.size
        codes, _ = unpack_codes(
            payload, header_size + 4 * max_bytes, header_size, nx * ny * nz, max_bytes
        )
        residuals = zigzag_decode(codes, 8 * max_bytes).view(codes.dtype)
        ordered = lorenzo_reconstruct(residuals.reshape(nx, ny, nz))
        return ordered_uint_to_float(ordered, dtype).reshape(nx, ny, nz)


class LzOracle(OracleCoder):
    """The lz-like coder's payload: header, then the LZ77 token stream of the
    block's XOR-delta byte planes."""

    @staticmethod
    def _from_planes(data: bytes, nvalues: int, nplanes: int, dtype: np.dtype) -> np.ndarray:
        planes = np.frombuffer(data, dtype=np.uint8).reshape(nplanes, nvalues)
        undeltaed = np.empty_like(planes)
        for p in range(nplanes):
            undeltaed[p] = np.bitwise_xor.accumulate(planes[p])
        as_bytes = undeltaed.T.copy()
        return as_bytes.reshape(-1).view(dtype)[:nvalues].copy()

    def compress(self, block: np.ndarray) -> CompressionResult:
        """Compress the full block losslessly."""
        arr = self._prepare(block)
        compressed = lz77_compress(oracle_lz_to_planes(arr)[0])
        width = arr.dtype.itemsize  # the dtype code and the plane count
        header = lz_like._HEADER.pack(_LZ_MAGIC, width, width, 0, *arr.shape, arr.size)
        return CompressionResult(
            payload=header + compressed,
            original_nbytes=int(arr.nbytes),
            shape=tuple(arr.shape),
            dtype=str(arr.dtype),
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Bit-exact reconstruction of the original block."""
        payload = result.payload
        magic, dcode, nplanes, _, nx, ny, nz, nvalues = lz_like._HEADER.unpack_from(
            payload, 0
        )
        if magic != _LZ_MAGIC:
            raise ValueError("not an lz-like payload")
        dtype = np.dtype(np.float64 if dcode == 8 else np.float32)
        stream = lz77_decompress(payload[lz_like._HEADER.size :])
        values = self._from_planes(stream, nvalues, nplanes, dtype)
        return values.reshape(nx, ny, nz)


#: Each coder metric's oracle, by its name in the metric table.
ORACLES = {"FPZIP": FpzipOracle(), "LZ": LzOracle()}


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
    [FpzipLikeCompressor, LzLikeCompressor],
    ids=["fpzip", "lz"],
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

    def test_a_row_sizes_alone_as_in_the_stack(self, make, dtype):
        """A size is a function of its block alone: each row of a stack sizes
        as a stack of one (how a coder metric scores one block), and a
        reversed stack gives the reversed sizes."""
        comp = make()
        batch = _coder_batch(17, (5, 4, 3), dtype, 10, "C")
        sizes = comp.compressed_size_batch(batch)
        alone = [int(comp.compressed_size_batch(batch[i : i + 1])[0]) for i in range(len(batch))]
        assert sizes.tolist() == alone
        assert comp.compressed_size_batch(batch[::-1]).tolist() == alone[::-1]

    def test_the_batch_is_only_read(self, make, dtype):
        comp = make()
        batch = _coder_batch(23, (6, 5, 4), dtype, 6, "C")
        before = batch.copy()
        comp.compressed_size_batch(batch)
        assert before.tobytes() == batch.tobytes()


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
        comp, oracle = FpzipLikeCompressor(), ORACLES["FPZIP"]
        batch = _law_batch(seed, shape, dtype, nblocks, strided)
        with mock.patch.object(fpzip_like, "_CHUNK_BYTES", chunk_bytes):
            sizes = comp.compressed_size_batch(batch)
            split = data.draw(st.integers(min_value=0, max_value=nblocks))
            pieces = [
                comp.compressed_size_batch(batch[:split]),
                comp.compressed_size_batch(batch[split:]),
            ]
        results = [oracle.compress(block) for block in batch]

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
            assert oracle.decompress(result).tobytes() == block.tobytes()

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

        signed = f"i{max_bytes}"
        residuals = lorenzo_residuals(float_to_ordered_uint(block)).view(signed)
        residuals = residuals.reshape(1, -1)
        scratch = (np.empty(residuals.shape, np.uint8), np.empty(residuals.shape, bool))
        row = row_zigzag_bytes(residuals, np.empty_like(residuals), scratch)
        assert row.dtype == np.uint32 and row.tolist() == [total]
        sizes = FpzipLikeCompressor().compressed_size_batch(block)
        assert sizes.tolist() == oracle_compressed_size_batch(block).tolist()
        assert sizes.tolist() == oracle_chunked_compressed_size_batch(block).tolist()
        assert sizes.tolist() == [len(ORACLES["FPZIP"].compress(block[0]).payload)]

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

    def test_row_zigzag_bytes_refuses_what_it_cannot_sum(self):
        with pytest.raises(ValueError, match="int32/int64"):
            row_zigzag_bytes(np.zeros((1, 4), dtype=np.uint32), None, None)
        with pytest.raises(ValueError, match="2-D"):
            row_zigzag_bytes(np.zeros(4, dtype=np.int32), None, None)
        # 2^29 eight-byte codes could sum to 2^32: refused before any pass or
        # scratch allocation (the residuals are a broadcast view of one zero).
        wide = np.broadcast_to(np.zeros(1, dtype=np.int64), (1, 2**29))
        with pytest.raises(ValueError, match="uint32"):
            row_zigzag_bytes(wide, None, None)

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


# -- the coder laws -------------------------------------------------------------


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
            block = rng.normal(size=shape).astype(dtype)
            if count:
                hits = rng.integers(0, count, size=max(1, count // 3))
                block.reshape(-1)[hits] = rng.choice(_SPECIALS[dtype], size=hits.size)
        blocks.append(block.astype(dtype))
    batch = np.stack(blocks) if blocks else np.zeros((0,) + shape, dtype=dtype)
    if layout == "strided":
        batch = np.repeat(batch, 2, axis=-1)[..., ::2]
    elif layout == "read-only":
        batch.flags.writeable = False
    return batch


_LAYOUTS = ["C", "strided", "read-only"]


class TestEncoderOracles:
    """LZ's batched byte planes against the single-block planes they
    replaced, by property."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
        dtype=st.sampled_from([np.float16, np.float32, np.float64]),
        nblocks=st.sampled_from([0, 1, 2, 3, 5]),
        layout=st.sampled_from(_LAYOUTS),
    )
    def test_lz_planes_equal_the_oracle(self, seed, shape, dtype, nblocks, layout):
        batch = _coder_batch(seed, shape, dtype, nblocks, layout)
        prepared = LzLikeCompressor._prepare_batch(batch)
        if nblocks:
            streams = LzLikeCompressor._to_planes_batch(prepared)
            assert streams == [oracle_lz_to_planes(b)[0] for b in prepared]


def registered_coder(name):
    """The coder the table's ``name`` metric scores with (pymor's idiom:
    the implementations under test come from the metric table)."""
    return create_metric(name).compressor


#: The block shapes the reproduction ledger scores: every block of the
#: paper's two configurations.
LEDGER_SHAPES = sorted(
    {
        extent.shape
        for decomposition in (
            scenario_decomposition(create_scenario_config(name))
            for name in ("blue_waters_64", "blue_waters_400")
        )
        for rank in range(decomposition.nranks)
        for extent in decomposition.block_extents(rank)
    }
)

#: Small blocks, length-1 and zero-extent axes included, and the ledger's.
_SHAPES = st.one_of(
    st.tuples(*[st.integers(min_value=0, max_value=9)] * 3),
    st.sampled_from(LEDGER_SHAPES),
)
_CELL_SHAPES = st.tuples(*[st.integers(min_value=4, max_value=9)] * 3)


def _ramp(shape):
    """A trilinear ramp over ``shape``."""
    axes = [np.linspace(0.0, 1.0 + k, n) for k, n in enumerate(shape)]
    return np.add.outer(np.add.outer(axes[0], axes[1]), axes[2])


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64], ids=lambda t: t.__name__)
@pytest.mark.parametrize("name", sorted(ORACLES))
class TestCoderLaw:
    """The laws every coder of the metric table keeps against its oracle,
    for each of float16/32/64, over length-1 and zero-extent axes, the
    ledger's block shapes, subnormal float32 and edge values, and C, strided
    and read-only stacks.

    Named mutations, each failing the size law: FPZIP's ``fixed`` term
    without ``(count + 1) // 2`` (the nibble stream), and LZ's sizes without
    ``_HEADER.size``.
    """

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shape=_SHAPES, layout=st.sampled_from(_LAYOUTS))
    def test_decode_inverts_encode(self, name, dtype, seed, shape, layout):
        """The round-trip law: decode∘encode is the identity on the prepared
        float32/float64 block, bit for bit."""
        oracle = ORACLES[name]
        for block in _coder_batch(seed, shape, dtype, 5, layout):
            back = oracle.decompress(oracle.compress(block))
            encoded = OracleCoder._prepare(block)
            assert back.shape == block.shape
            assert back.dtype == encoded.dtype
            assert back.tobytes() == encoded.tobytes()

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 10_000),
        shape=_SHAPES,
        nblocks=st.sampled_from([0, 1, 2, 5]),
        layout=st.sampled_from(_LAYOUTS),
    )
    def test_batch_sizes_are_payload_lengths(self, name, dtype, seed, shape, nblocks, layout):
        """The size law: a stack's sizes are its blocks' payload lengths."""
        coder, oracle = registered_coder(name), ORACLES[name]
        batch = _coder_batch(seed, shape, dtype, nblocks, layout)
        sizes = coder.compressed_size_batch(batch)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [len(oracle.compress(block).payload) for block in batch]

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), shape=_CELL_SHAPES)
    def test_smooth_never_larger_than_noisy(self, name, dtype, seed, shape):
        """A trilinear ramp never encodes larger than uniform noise of the
        same shape: the content sensitivity the scoring metric relies on.
        Blocks hold at least 4 points along each axis: two noisy values can
        happen to code shorter than two ramp values."""
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
        coder, oracle = registered_coder(name), ORACLES[name]
        with pytest.raises(ValueError):
            coder.compressed_size_batch(np.full((1, 3, 3, 3), np.nan, dtype=dtype))
        with pytest.raises(ValueError):
            oracle.compress(np.full((3, 3, 3), np.nan, dtype=dtype))
        result = oracle.compress(np.zeros((3, 3, 3), dtype=dtype))
        foreign = dataclasses.replace(result, payload=b"XXXX" + result.payload[4:])
        with pytest.raises(ValueError):
            oracle.decompress(foreign)


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
    """sha256 of the oracle's ``compress(x).payload`` for each coder: FPZIP's
    recorded before the fused kernel replaced steps 1–3, LZ's before it got
    one encoder for a block and a stack alike, both while the encoders were
    still part of the program.  No payload moved by a byte, and the sizes
    are the payloads' lengths."""
    recorded = {
        "FPZIP": [
            (494, "01fa2721c127b707ccb0cdbaa06e317e03b72b370df5bfb76f8e6462ba8e630e"),
            (109, "de3f82463e89012c2cbcebd7166e99756239e1edc99c246faac3e1fc3b7a89dc"),
            (72, "b27ee9a695e5d5120b81a4366714120ddfb072d5520af12f0cb196e71dd66f54"),
        ],
        "LZ": [
            (244, "00ad5c48a608272b747966b4f65edd18b2bf9bcff1f7e49b5786bcc35d4c3dfd"),
            (66, "7172237a8dc430956258cf6c68d59b0a59ee9442d0322b3d53ec053e82f7cdbb"),
            (55, "a58883103e356295b8dc36e21e5d6f2f0818bd2733aeadb6d27c30794d90c2e3"),
        ],
    }
    for name, pins in recorded.items():
        coder, oracle = registered_coder(name), ORACLES[name]
        for block, (nbytes, digest) in zip(_wire_format_blocks(), pins):
            result = oracle.compress(block)
            assert len(result.payload) == nbytes
            assert hashlib.sha256(result.payload).hexdigest() == digest
            assert coder.compressed_size_batch(block[None]).tolist() == [nbytes]
            assert oracle.decompress(result).tobytes() == block.tobytes()

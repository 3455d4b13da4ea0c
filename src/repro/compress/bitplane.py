"""Bit-level utilities shared by the compressors.

* monotone float ↔ unsigned-int mapping (so integer prediction residuals
  reflect numerical closeness of the floats);
* zigzag mapping of signed residuals to unsigned ints (small magnitudes map
  to small codes);
* byte-length classification and the length-grouped container the
  fpzip-like and zfp-like coders store their codes in (:func:`pack_codes`,
  :func:`unpack_codes`).

Steps 1 and 3 of the fpzip-like coder's kernel
(:func:`repro.compress.fpzip_like.residual_codes`) live here: both maps are
three ufunc passes (no bool temporary, no ``astype`` copy) into caller-owned
buffers, or allocate their result when none is given.
:func:`byte_lengths` is ``Σ_k (code ≥ 256^k)``: the first threshold written
straight into the uint8 result, each further one through one bool buffer and
a uint8 add.  The coders' size paths need only its per-row sum, in uint32:
:func:`row_code_bytes` (ZFP's codes) and :func:`row_zigzag_bytes` (FPZIP's
residuals, summed without forming their zigzag codes).  FPZIP's sizes of
one ``blue_waters_64`` snapshot, from the codes, read 9.2 ms with the uint32
row sum, 9.5 with an int64 one and 13.2 counting each threshold with a bool
``count_nonzero`` along the rows; from the residuals, 8.7 (4 snapshots, one
pinned CPU, interleaved, medians).
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional, Tuple

import numpy as np

_FLOAT_TO_UINT = {
    np.dtype(np.float32): (np.uint32, np.int32, 32),
    np.dtype(np.float64): (np.uint64, np.int64, 64),
}


def _spec(dtype: np.dtype) -> Tuple[type, type, int]:
    spec = _FLOAT_TO_UINT.get(np.dtype(dtype))
    if spec is None:
        raise ValueError(f"unsupported float dtype: {dtype}")
    return spec


def float_to_ordered_uint(
    values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Map floats to unsigned ints preserving numerical order.

    The classic trick: positive floats keep their bit pattern with the sign
    bit set; negative floats are bitwise inverted.  After the mapping,
    ``a < b`` (as floats) iff ``map(a) < map(b)`` (as unsigned ints), so
    integer differences are meaningful prediction residuals.

    Computed as ``raw ^ ((raw_as_int >> bits-1) | sign)``: the arithmetic
    shift smears the sign bit over the word, so one XOR inverts a negative
    and sets the sign bit of a positive.  ``out`` (unsigned, ``values``'
    shape) receives the codes; ``values`` is never written.
    """
    arr = np.asarray(values)
    utype, itype, bits = _spec(arr.dtype)
    if out is None:
        out = np.empty(arr.shape, dtype=utype)
    np.right_shift(arr.view(itype), bits - 1, out=out.view(itype))
    np.bitwise_or(out, utype(1) << (bits - 1), out=out)
    return np.bitwise_xor(out, arr.view(utype), out=out)


def ordered_uint_to_float(codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`float_to_ordered_uint`."""
    utype, itype, bits = _spec(dtype)
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


def _add_thresholds(
    words: np.ndarray, thresholds: Iterable[int], lengths: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``lengths += (words ≥ t)`` for each ``t``, through the bool buffer
    ``mask`` (both of ``words``' shape): one compare and one uint8 add each."""
    for t in thresholds:
        np.greater_equal(words, words.dtype.type(t), out=mask)
        np.add(lengths, mask.view(np.uint8), out=lengths)
    return lengths


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
    return _add_thresholds(codes, (256**k for k in range(1, top)), lengths, mask)


def _check_rows(shape: Tuple[int, ...], max_bytes: int) -> None:
    """Refuse, before any pass, rows whose byte lengths (each ≤ ``max_bytes``)
    could sum past a uint32: 2-D only, ``count * max_bytes < 2^32``."""
    if len(shape) != 2:
        raise ValueError(f"expected 2-D codes, got shape {shape}")
    if shape[1] * max_bytes >= 2**32:
        raise ValueError(f"rows of {shape[1]} codes overflow a uint32 byte sum")


def _row_sums(lengths: np.ndarray) -> np.ndarray:
    return np.add.reduce(lengths, axis=1, dtype=np.uint32)


def byte_lengths(codes: np.ndarray, max_bytes: int) -> np.ndarray:
    """Number of little-endian bytes needed to represent each unsigned code.

    Zero needs 0 bytes; values below 256 need 1; and so on up to ``max_bytes``.
    """
    c = _check_codes(codes, max_bytes)
    lengths = np.empty(c.shape, dtype=np.uint8)
    return _fill_byte_lengths(c, max_bytes, lengths, np.empty(c.shape, dtype=bool))


def row_code_bytes(codes: np.ndarray, max_bytes: int) -> np.ndarray:
    """Σ :func:`byte_lengths` of each row of 2-D unsigned ``codes``, as uint32.

    A row of ``count`` codes sums to at most ``count * max_bytes``, which must
    stay below 2^32.
    """
    c = _check_codes(codes, max_bytes)
    _check_rows(c.shape, max_bytes)
    return _row_sums(byte_lengths(c, max_bytes))


def row_zigzag_bytes(
    residuals: np.ndarray,
    signs: np.ndarray,
    scratch: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """``row_code_bytes(zigzag_encode(residuals), width)`` without the codes.

    ``residuals`` is 2-D int32/int64 and ``width`` its itemsize.  A code is
    nonzero iff its residual is, and ``zigzag(r) ≥ 2^(8k)`` iff the folded
    word ``r ^ (r >> bits-1)`` (``zigzag(r) >> 1``) is ``≥ 2^(8k-1)``, so one
    fold replaces the map's shift and the thresholds move down by one bit.
    The fold overwrites ``residuals``; ``signs`` (same shape and dtype, no
    memory shared) takes the sign words; ``scratch`` is a pair ``(lengths,
    mask)`` of C-contiguous uint8 and bool arrays of their shape, overwritten.
    """
    r = np.asarray(residuals)
    if r.dtype not in (np.int32, np.int64):
        raise ValueError(f"expected int32/int64 residuals, got {r.dtype}")
    width = r.dtype.itemsize
    _check_rows(r.shape, width)
    lengths, mask = scratch
    np.not_equal(r, 0, out=lengths.view(bool))
    np.right_shift(r, 8 * width - 1, out=signs)
    folded = np.bitwise_xor(r, signs, out=r)
    thresholds = (2 ** (8 * k - 1) for k in range(1, width))
    return _row_sums(_add_thresholds(folded, thresholds, lengths, mask))


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

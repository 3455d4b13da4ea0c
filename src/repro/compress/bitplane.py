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
three ufunc passes (no bool temporary, no ``astype`` copy) into a caller-owned
``out`` buffer, or allocate their result when none is given.
:func:`byte_lengths` is ``Σ_k (code ≥ 256^k)`` as uint8 adds on the codes' own
dtype — cheap enough that the size path sums it per row rather than counting
each threshold (a bool ``count_nonzero`` along an axis is the slower
reduction: 8.7 vs 6.5 ms per ``blue_waters_64`` snapshot).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

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
    values: np.ndarray, bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Map signed residuals to unsigned codes: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.

    ``out`` (unsigned, ``values``' shape) receives the codes and may be
    ``values``' own buffer: the sign words are taken first.
    """
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


def zigzag_decode(codes: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    if bits not in (32, 64):
        raise ValueError(f"bits must be 32 or 64, got {bits}")
    utype = np.uint32 if bits == 32 else np.uint64
    itype = np.int32 if bits == 32 else np.int64
    c = np.asarray(codes, dtype=utype)
    return ((c >> 1).astype(itype)) ^ -((c & 1).astype(itype))


def byte_lengths(codes: np.ndarray, max_bytes: int) -> np.ndarray:
    """Number of little-endian bytes needed to represent each unsigned code.

    Zero needs 0 bytes; values below 256 need 1; and so on up to ``max_bytes``.
    """
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

"""Bit-level kernels of the fpzip-like coder's size path.

* :func:`float_to_ordered_uint` — the monotone float → unsigned-int map (so
  integer prediction residuals reflect numerical closeness of the floats),
  step 1 of the coder: three ufunc passes (no bool temporary, no ``astype``
  copy) into a caller-owned buffer, or into a fresh one when none is given;
* :func:`row_zigzag_bytes` — steps 3–4 as the size needs them: per row, the
  total byte length of the residuals' zigzag codes (small magnitudes map to
  small codes, zero needs no byte), summed without forming the codes.

A code's byte length is ``Σ_k (code ≥ 256^k)``, each threshold one compare
into a bool buffer and one uint8 add; the row sum is a uint32.  FPZIP's sizes
of one ``blue_waters_64`` snapshot, from the codes, read 9.2 ms with the
uint32 row sum, 9.5 with an int64 one and 13.2 counting each threshold with a
bool ``count_nonzero`` along the rows; from the residuals, 8.7 (4 snapshots,
one pinned CPU, interleaved, medians).  The inverse maps and the
length-grouped code container the payload stores are the oracle of
``tests/test_compress.py``.
"""

from __future__ import annotations

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


def _add_thresholds(
    words: np.ndarray, thresholds: Iterable[int], lengths: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``lengths += (words ≥ t)`` for each ``t``, through the bool buffer
    ``mask`` (both of ``words``' shape): one compare and one uint8 add each."""
    for t in thresholds:
        np.greater_equal(words, words.dtype.type(t), out=mask)
        np.add(lengths, mask.view(np.uint8), out=lengths)
    return lengths


def row_zigzag_bytes(
    residuals: np.ndarray,
    signs: np.ndarray,
    scratch: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Σ of each row's zigzag code byte lengths, as uint32, without the codes.

    ``residuals`` is 2-D int32/int64, ``width`` its itemsize, and a row of
    ``count`` codes sums to at most ``count * width``, below 2^32.  A code is
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
    # Refused before any pass: rows whose byte lengths could sum past a uint32.
    if r.ndim != 2:
        raise ValueError(f"expected 2-D residuals, got shape {r.shape}")
    if r.shape[1] * width >= 2**32:
        raise ValueError(f"rows of {r.shape[1]} residuals overflow a uint32 byte sum")
    lengths, mask = scratch
    np.not_equal(r, 0, out=lengths.view(bool))
    np.right_shift(r, 8 * width - 1, out=signs)
    folded = np.bitwise_xor(r, signs, out=r)
    thresholds = (2 ** (8 * k - 1) for k in range(1, width))
    _add_thresholds(folded, thresholds, lengths, mask)
    return np.add.reduce(lengths, axis=1, dtype=np.uint32)

"""Prediction schemes for the fpzip-like coder.

FPZIP (Lindstrom & Isenburg 2006) predicts each sample with the 3-D Lorenzo
predictor — the alternating-sign sum of the already-decoded neighbours of the
sample's "lower corner" cube — and encodes the prediction residuals.  Smooth
fields predict almost perfectly (tiny residuals, small output); turbulent
fields do not, which is exactly the content sensitivity the scoring metric
needs.

:func:`lorenzo_residuals` is step 2 of the coder's size path
(:meth:`repro.compress.fpzip_like.FpzipLikeCompressor.compressed_size_batch`),
on one block or a stack.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def lorenzo_residuals(
    values: np.ndarray, scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """First-order 3-D Lorenzo prediction residuals (computed modulo 2^bits).

    The residual at each point is the value minus the Lorenzo prediction from
    its seven causal neighbours.  Equivalently it is the mixed first
    difference along the last three axes, which is what this implementation
    computes; leading axes index independent blocks, so ``residuals(batch)[i]
    == residuals(batch[i])`` bit for bit.  Input must be an unsigned integer
    array (the ordered-uint map of the floats); arithmetic wraps modulo 2^bits.

    Each axis is differenced as one *flat* shifted subtraction over the
    row-major buffer (shift 1, ``sz``, ``sy·sz``) — long contiguous loops
    instead of loops over a last axis of length 4–5.  The flat shift is exact
    except on the axis' leading plane, where it reaches into the previous
    row, plane or block; that plane's residual is the value itself (zero
    prediction), so it is copied back from the source buffer after each pass
    — which also makes the shift across block boundaries harmless.

    ``scratch`` is an optional pair ``(a, b)`` of C-contiguous arrays of
    ``values``' shape and dtype: the passes ping-pong ``values → b → a → b``
    and return ``b``; ``a`` may be ``values`` itself, else it is not written.
    """
    v = np.ascontiguousarray(values)
    if v.ndim < 3:
        raise ValueError(f"expected at least 3 dimensions, got shape {v.shape}")
    if v.dtype not in (np.uint32, np.uint64):
        raise ValueError(f"expected uint32/uint64 input, got {v.dtype}")
    a, b = scratch if scratch is not None else (np.empty_like(v), np.empty_like(v))
    sy, sz = v.shape[-2:]
    whole, first = slice(None), slice(0, 1)
    src = v
    for dst, shift, plane in (
        (b, 1, (..., first)),
        (a, sz, (..., first, whole)),
        (b, sy * sz, (..., first, whole, whole)),
    ):
        flat_src, flat_dst = src.reshape(-1), dst.reshape(-1)
        np.subtract(flat_src[shift:], flat_src[:-shift], out=flat_dst[shift:])
        dst[plane] = src[plane]
        src = dst
    return b

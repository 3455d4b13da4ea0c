"""Block reduction (corner values and the mipmap ladder) and reconstruction.

The paper's reduction step (Section IV-C) keeps only the 8 corners of a 3-D
block (55×55×38 → 2×2×2 in their runs): this preserves the block's extent and
continuity with its neighbours, and lets visualization algorithms rebuild
interior points by trilinear interpolation — at the cost of blurring the
region, as visible in their Figure 1(b).

On top of that all-or-nothing jump this module provides the *reduction
ladder*: level 0 is the identity, level 1 keeps every second point plus the
high edge along each axis (:func:`~repro.grid.block.axis_sample_indices` —
roughly a 1/8 payload, with the 8 corners preserved exactly so the
neighbour-continuity guarantee of the corner reduction carries over), and
level 2 is the existing corner reduction.  :func:`expand_from_level` rebuilds
any level by piecewise-trilinear interpolation between the retained samples;
retained points — corners included — are reproduced exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.grid.block import Block, axis_sample_indices
from repro.utils.validation import ensure_3d


def reduce_to_corners(data: np.ndarray) -> np.ndarray:
    """Return the 2×2×2 array of corner values of a 3-D block.

    For axes of length 1 the single value is used for both corners, so the
    result always has shape ``(2, 2, 2)``.
    """
    data = ensure_3d(data, "block data")
    ix = [0, data.shape[0] - 1]
    iy = [0, data.shape[1] - 1]
    iz = [0, data.shape[2] - 1]
    return np.ascontiguousarray(data[np.ix_(ix, iy, iz)])


def _lerp_corners(c000, c001, c010, c011, c100, c101, c110, c111, u, v, w):
    """Shared trilinear interpolation arithmetic.

    The scalar (:func:`trilinear_sample`) and batched
    (:func:`reduction_error_batch`) paths both call this single
    implementation, so their per-element arithmetic — and therefore the
    TRILIN scores the execution engines compare bitwise — cannot drift
    apart.  Corner arguments may be scalars or arrays broadcastable against
    ``u``/``v``/``w``.
    """
    c00 = c000 * (1 - w) + c001 * w
    c01 = c010 * (1 - w) + c011 * w
    c10 = c100 * (1 - w) + c101 * w
    c11 = c110 * (1 - w) + c111 * w
    c0 = c00 * (1 - v) + c01 * v
    c1 = c10 * (1 - v) + c11 * v
    return c0 * (1 - u) + c1 * u


def trilinear_sample(corners: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trilinearly interpolate 2×2×2 ``corners`` at normalised coordinates.

    ``u``, ``v``, ``w`` are broadcastable arrays in [0, 1]; 0 maps to the low
    corner and 1 to the high corner along each axis.
    """
    corners = np.asarray(corners, dtype=np.float64)
    if corners.shape != (2, 2, 2):
        raise ValueError(f"corners must have shape (2, 2, 2), got {corners.shape}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return _lerp_corners(
        corners[0, 0, 0], corners[0, 0, 1],
        corners[0, 1, 0], corners[0, 1, 1],
        corners[1, 0, 0], corners[1, 0, 1],
        corners[1, 1, 0], corners[1, 1, 1],
        u, v, w,
    )


def expand_from_corners(corners: np.ndarray, shape: Tuple[int, int, int]) -> np.ndarray:
    """Rebuild a full block of ``shape`` by trilinear interpolation of corners.

    This is exactly the reconstruction a visualization algorithm performs when
    rendering a reduced block, and it is also the reference used by the TRILIN
    scoring metric (interpolation error of the reduced representation).
    """
    nx, ny, nz = (int(s) for s in shape)
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError(f"invalid target shape: {shape}")
    u = np.linspace(0.0, 1.0, nx) if nx > 1 else np.zeros(1)
    v = np.linspace(0.0, 1.0, ny) if ny > 1 else np.zeros(1)
    w = np.linspace(0.0, 1.0, nz) if nz > 1 else np.zeros(1)
    uu, vv, ww = np.meshgrid(u, v, w, indexing="ij")
    return trilinear_sample(corners, uu, vv, ww)


def reduce_to_level(data: np.ndarray, level: int) -> np.ndarray:
    """Reduce a full-resolution 3-D block payload to ladder ``level``.

    Level 0 returns the payload unchanged, level 1 gathers the strided
    sample grid (:func:`~repro.grid.block.axis_sample_indices` per axis, a
    pure fancy-index copy — no arithmetic, so values are bitwise those of the
    original), and level 2 delegates to :func:`reduce_to_corners`.  Because
    the level-1 sample grid contains both edges of every axis, taking the
    corners of a level-1 payload yields bitwise the same 2×2×2 array as
    taking them from the full payload — which is what lets the reduction
    step deepen a level-1 block to level 2 without going back to the source.
    """
    if level == 0:
        return np.asarray(data)
    if level == 2:
        return reduce_to_corners(data)
    if level != 1:
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    data = ensure_3d(data, "block data")
    ix, iy, iz = (axis_sample_indices(n) for n in data.shape)
    return np.ascontiguousarray(data[np.ix_(ix, iy, iz)])


def _level1_axis_weights(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point segment indices and fractions for one level-1 axis.

    Returns ``(low, high, u)`` arrays of length ``n``: point ``t`` is rebuilt
    as ``payload[low[t]] * (1 - u[t]) + payload[high[t]] * u[t]``.  Retained
    sample points land exactly on ``u = 0`` (or ``u = 1`` for the final
    sample), so the interpolation reproduces them bitwise.
    """
    samples = np.asarray(axis_sample_indices(n), dtype=np.int64)
    if samples.size == 1:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(n)
    t = np.arange(n, dtype=np.int64)
    low = np.clip(np.searchsorted(samples, t, side="right") - 1, 0, samples.size - 2)
    high = low + 1
    u = (t - samples[low]) / (samples[high] - samples[low])
    return low, high, u


def _expand_level1(payload: np.ndarray, shape: Tuple[int, int, int]) -> np.ndarray:
    """Rebuild a full block of ``shape`` from its level-1 sample grid.

    Piecewise-trilinear interpolation between adjacent retained samples,
    sharing :func:`_lerp_corners`'s per-element arithmetic with the corner
    path.  ``payload`` may carry a leading batch axis — the per-axis weights
    are broadcast over it, so the batched result is bitwise equal to
    expanding the blocks one at a time.
    """
    nx, ny, nz = (int(s) for s in shape)
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError(f"invalid target shape: {shape}")
    payload = np.asarray(payload, dtype=np.float64)
    batched = payload.ndim == 4
    if not batched:
        payload = payload[None]
    expected = tuple(len(axis_sample_indices(n)) for n in (nx, ny, nz))
    if tuple(payload.shape[1:]) != expected:
        raise ValueError(
            f"level-1 payload for shape {tuple(shape)} must have shape "
            f"{expected}, got {tuple(payload.shape[1:])}"
        )
    lx, hx, u = _level1_axis_weights(nx)
    ly, hy, v = _level1_axis_weights(ny)
    lz, hz, w = _level1_axis_weights(nz)
    uu = u[:, None, None]
    vv = v[None, :, None]
    ww = w[None, None, :]

    def gather(ax, ay, az):
        return payload[:, ax[:, None, None], ay[None, :, None], az[None, None, :]]

    rebuilt = _lerp_corners(
        gather(lx, ly, lz), gather(lx, ly, hz),
        gather(lx, hy, lz), gather(lx, hy, hz),
        gather(hx, ly, lz), gather(hx, ly, hz),
        gather(hx, hy, lz), gather(hx, hy, hz),
        uu, vv, ww,
    )
    return rebuilt if batched else rebuilt[0]


def expand_from_level(
    payload: np.ndarray, level: int, shape: Tuple[int, int, int]
) -> np.ndarray:
    """Rebuild a full block of ``shape`` from a ladder-``level`` payload.

    Level 0 returns the payload unchanged, level 1 interpolates piecewise
    between the strided samples (:func:`_expand_level1`), level 2 delegates
    to :func:`expand_from_corners`.  Every retained sample point — corners
    included — is reproduced exactly, which is the ladder's continuity
    guarantee: adjacent blocks at different levels still agree on their
    shared faces' retained points.
    """
    if level == 0:
        return np.asarray(payload)
    if level == 1:
        return _expand_level1(payload, shape)
    if level == 2:
        return expand_from_corners(payload, shape)
    raise ValueError(f"level must be 0, 1 or 2, got {level}")


def reduce_block(block: Block, level: int = 2) -> Block:
    """Return a copy of ``block`` reduced to ladder ``level``.

    A no-op when the block already sits at or beyond the requested level —
    levels only ever deepen.  A level-1 block deepened to level 2 keeps
    bitwise the corner values a direct full→corners reduction would produce
    (the level-1 grid retains the corners exactly).
    """
    if block.level >= level:
        return block
    return block.with_level_payload(reduce_to_level(block.data, level), level)


def reconstruct_block(block: Block) -> np.ndarray:
    """Return a full-resolution array for ``block``.

    Full blocks return their payload unchanged; reduced blocks are expanded
    by (piecewise-)trilinear interpolation over their original extent shape,
    whatever ladder level they sit on.
    """
    if block.level == 0:
        return np.asarray(block.data)
    return expand_from_level(
        np.asarray(block.data, dtype=np.float64), block.level, block.extent.shape
    )


def reduce_to_corners_batch(data: np.ndarray) -> np.ndarray:
    """Corner values of a stacked ``(nblocks, sx, sy, sz)`` batch.

    Vectorised counterpart of :func:`reduce_to_corners`; returns an array of
    shape ``(nblocks, 2, 2, 2)`` with identical values to reducing the blocks
    one at a time.
    """
    return reduce_to_level_batch(data, 2)


def reduce_to_level_batch(
    data: np.ndarray, level: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Ladder reduction of the ``rows`` of a stacked ``(nblocks, sx, sy, sz)``
    batch (every block when ``rows`` is ``None``).

    Vectorised counterpart of :func:`reduce_to_level`, values bitwise those of
    reducing the blocks one at a time.  Level 2 reads the corners through a
    strided view and only then takes ``rows``, so a subset of a group never
    copies its full payloads; an axis of length 1 takes the fancy-index gather
    instead (``[0, n - 1]`` repeats index 0 there, which no slice step can),
    as level 1 always does.
    """
    arr = np.asarray(data)
    if level == 0:
        return arr if rows is None else arr[rows]
    if level not in (1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    if arr.ndim != 4:
        raise ValueError(f"batch data must be 4-D, got shape {arr.shape}")
    _, sx, sy, sz = arr.shape
    if level == 2 and min(sx, sy, sz) > 1:
        corners = arr[:, :: sx - 1, :: sy - 1, :: sz - 1]
        if rows is None:
            return np.ascontiguousarray(corners)
        # ``take`` copies each row's corners straight out of the strided view;
        # ``corners[rows]`` took 1.2–1.6x as long in ``BlockColumns.reduce_to``
        # (``blue_waters_64`` at 75 %, four snapshots cycled).
        return np.take(corners, rows, axis=0)
    if rows is not None:
        arr = arr[rows]
    ix, iy, iz = (
        np.asarray([0, n - 1] if level == 2 else axis_sample_indices(n), dtype=np.int64)
        for n in (sx, sy, sz)
    )
    return np.ascontiguousarray(
        arr[:, ix[:, None, None], iy[None, :, None], iz[None, None, :]]
    )


def reduction_error_batch(data: np.ndarray, level: int = 2) -> np.ndarray:
    """Per-block reduction MSE of a stacked ``(nblocks, ...)`` batch.

    Vectorised counterpart of :func:`reduction_error`: the interpolation
    weights are shared across the batch and applied with the same
    per-element arithmetic as :func:`trilinear_sample`, so every entry is
    bitwise equal to ``reduction_error(data[i], level)``.  The default
    ``level=2`` scores the paper's corner reduction (what the TRILIN metric
    uses); ``level=1`` scores the strided downsample.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(f"batch data must be 4-D, got shape {arr.shape}")
    n, nx, ny, nz = arr.shape
    if level == 0:
        return np.zeros(n)
    if level == 1:
        rebuilt = _expand_level1(reduce_to_level_batch(arr, 1), (nx, ny, nz))
        diff = (arr - rebuilt) ** 2
        return np.mean(diff.reshape(n, -1), axis=1)
    if level != 2:
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    corners = reduce_to_corners_batch(arr)
    u = np.linspace(0.0, 1.0, nx) if nx > 1 else np.zeros(1)
    v = np.linspace(0.0, 1.0, ny) if ny > 1 else np.zeros(1)
    w = np.linspace(0.0, 1.0, nz) if nz > 1 else np.zeros(1)
    uu, vv, ww = np.meshgrid(u, v, w, indexing="ij")
    c = corners.reshape(n, 8)[:, :, None, None, None]
    rebuilt = _lerp_corners(*(c[:, i] for i in range(8)), uu, vv, ww)
    diff = (arr - rebuilt) ** 2
    return np.mean(diff.reshape(n, -1), axis=1)


def reduction_error(data: np.ndarray, level: int = 2) -> float:
    """Mean-square error committed by reducing ``data`` to ladder ``level``.

    At the default ``level=2`` this is the quantity the TRILIN metric
    scores: blocks whose content is far from trilinear (high internal
    variability) get a large error and are therefore preserved.  ``level=1``
    gives the (never larger) error of the strided downsample, the number the
    quality-vs-cost benchmark gate compares against the corner error.
    """
    data = np.asarray(ensure_3d(data, "block data"), dtype=np.float64)
    if level == 0:
        return 0.0
    if level == 1:
        rebuilt = _expand_level1(reduce_to_level(data, 1), data.shape)
    elif level == 2:
        rebuilt = expand_from_corners(reduce_to_corners(data), data.shape)
    else:
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    return float(np.mean((data - rebuilt) ** 2))

"""Blocks: the unit of scoring, reduction, and redistribution.

A :class:`Block` carries a regular subarray of the domain (its *extent* in
global index space) plus the field payload for that extent.  After the
reduction step a block's payload is replaced by a coarser representation
from the reduction ladder — level 1 keeps every second point plus the high
edge, level 2 keeps only the 8 corner values (2×2×2) — but its extent is
unchanged, so downstream consumers can still reconstruct an interpolated
approximation over the original region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

#: The reduction ladder: 0 = full resolution, 1 = strided downsample
#: (every second point plus the high edge, corners preserved exactly),
#: 2 = the paper's 2×2×2 corner reduction.
REDUCTION_LEVELS: Tuple[int, ...] = (0, 1, 2)


# Pure in small ints and asked per block per iteration: memoised (errors are not).
@lru_cache(maxsize=1024)
def axis_sample_indices(n: int) -> Tuple[int, ...]:
    """Level-1 sample indices along an axis of length ``n``.

    Every second point starting at 0, with the last point ``n - 1`` always
    included so both corners survive exactly — that is what keeps a level-1
    block continuous with its (full or reduced) neighbours, the same
    guarantee the corner reduction gives.  ``n = 1`` yields ``(0,)``.
    """
    if n < 1:
        raise ValueError(f"axis length must be >= 1, got {n}")
    samples = list(range(0, n, 2))
    if samples[-1] != n - 1:
        samples.append(n - 1)
    return tuple(samples)


@lru_cache(maxsize=1024)
def level_shape(level: int, full_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Payload shape of a block of ``full_shape`` at reduction ``level``."""
    if level == 0:
        return tuple(int(s) for s in full_shape)
    if level == 1:
        return tuple(len(axis_sample_indices(int(n))) for n in full_shape)
    if level == 2:
        return (2, 2, 2)
    raise ValueError(f"level must be one of {REDUCTION_LEVELS}, got {level}")


def check_level_payload(level: int, full_shape: Tuple[int, int, int], data_shape) -> None:
    """Raise unless ``data_shape`` is the payload shape of a level-``level``
    block covering ``full_shape`` points."""
    expected = level_shape(level, full_shape)
    if tuple(data_shape) != expected:
        raise ValueError(
            f"level-{level} block data must have shape {expected} for "
            f"extent shape {full_shape}, got {tuple(data_shape)}"
        )


@dataclass(frozen=True)
class BlockExtent:
    """Half-open index extent ``[start, stop)`` of a block in global index space."""

    start: Tuple[int, int, int]
    stop: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.start) != 3 or len(self.stop) != 3:
            raise ValueError("start and stop must be 3-tuples")
        start = tuple(int(v) for v in self.start)
        stop = tuple(int(v) for v in self.stop)
        for lo, hi in zip(start, stop):
            if lo < 0 or hi <= lo:
                raise ValueError(f"invalid extent: start={start} stop={stop}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Number of points covered along each axis."""
        return tuple(hi - lo for lo, hi in zip(self.start, self.stop))

    @property
    def npoints(self) -> int:
        """Total number of points covered by the extent."""
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def slices(self) -> Tuple[slice, slice, slice]:
        """Index slices selecting this extent from a global array."""
        return tuple(slice(lo, hi) for lo, hi in zip(self.start, self.stop))


@dataclass(frozen=True)
class Block:
    """A block of field data.

    Attributes
    ----------
    block_id:
        Globally unique integer id (dense, ``0 .. nblocks-1``).
    extent:
        Position of the block in global index space.
    data:
        Payload array.  Shape equals ``extent.shape`` for a full block, or
        ``(2, 2, 2)`` (``(2, 2)`` for 2-D use) for a reduced block.
    owner:
        Rank currently responsible for this block.
    home:
        Rank that originally produced the block (before redistribution).
    score:
        Relevance score assigned by the scoring step, if any.
    field_name:
        Name of the field the payload belongs to (e.g. ``"dbz"``).
    level:
        Rung of the reduction ladder the payload sits on: 0 = full
        resolution, 1 = strided downsample (:func:`axis_sample_indices`
        per axis), 2 = 2×2×2 corners.
    """

    block_id: int
    extent: BlockExtent
    data: np.ndarray
    owner: int = 0
    home: int = 0
    score: Optional[float] = None
    field_name: str = "dbz"
    level: int = 0

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise ValueError(f"block_id must be >= 0, got {self.block_id}")
        level = int(self.level)
        if level not in REDUCTION_LEVELS:
            raise ValueError(
                f"level must be one of {REDUCTION_LEVELS}, got {self.level}"
            )
        object.__setattr__(self, "level", level)
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"block data must be 3-D, got shape {data.shape}")
        check_level_payload(level, self.extent.shape, data.shape)
        object.__setattr__(self, "data", data)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (what redistribution actually transfers)."""
        return int(self.data.nbytes)

    def _clone_with(self, **updates: object) -> "Block":
        """Copy of the block with some fields replaced, skipping re-validation.

        The caller vouches for the new values (a new payload is checked with
        :func:`check_level_payload` first); ``dataclasses.replace`` would
        re-validate the whole block on every copy.  The frozen-dataclass guard
        lives in ``__setattr__``, so filling the fresh instance's ``__dict__``
        directly is both legal and the fastest copy Python offers.
        """
        clone = object.__new__(Block)
        clone.__dict__.update(self.__dict__)
        clone.__dict__.update(updates)
        return clone

    def with_score(self, score: float) -> "Block":
        """Return a copy of the block with ``score`` attached."""
        return self._clone_with(score=float(score))

    def with_level_payload(self, data: np.ndarray, level: int) -> "Block":
        """Return a copy carrying a ``level``-rung payload (shape checked)."""
        level = int(level)
        data = np.asarray(data)
        check_level_payload(level, self.extent.shape, data.shape)
        return self._clone_with(data=data, level=level)

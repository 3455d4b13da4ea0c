"""BlockBatch: a structure-of-arrays view over a set of equally-shaped blocks.

The per-block :class:`~repro.grid.block.Block` objects are the unit of
*semantics* (scoring, reduction, redistribution decisions), but iterating them
one ``np.ndarray`` at a time keeps every hot loop in Python.  A
:class:`BlockBatch` stacks the payloads of many equally-shaped blocks into one
``(nblocks, sx, sy, sz)`` array — plus parallel arrays for ids, extents,
owners, and scores — so that metrics and other array-friendly kernels can run
once over the whole batch instead of once per block.

The conversion is lossless: ``BlockBatch.from_blocks(blocks).to_blocks()``
reproduces the input blocks exactly (ids, extents, owners, homes, reduced
flags, ladder levels, scores, field names, payload values, and payload
dtype).  Blocks of
mixed shapes or dtypes cannot share one stacked array; use
:func:`partition_by_shape` to split an arbitrary block list into homogeneous
batches while remembering each block's original position.

Every batched step consumes this layout through :func:`stacked_shape_groups`
(the one place block payloads are stacked): scoring and counting-mode
rendering via :func:`repro.grid.fanout.map_shape_groups`, the reduction for
its gather.  A post-reduction block list yields at most a handful of groups —
typically the full-block shapes plus one 2×2×2 group holding every reduced
block.  The hot paths stack payloads only; :func:`partition_by_shape`
additionally carries the metadata arrays for consumers that need a full
:class:`BlockBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.grid.block import Block, BlockExtent
from repro.grid.reduction import (  # re-exported: the ladder's batched twins
    expand_from_level_batch,
    reduce_to_level_batch,
)

__all__ = [
    "BlockBatch",
    "expand_from_level_batch",
    "group_positions_by_shape",
    "partition_by_shape",
    "reduce_to_level_batch",
    "stacked_shape_groups",
]


@dataclass(frozen=True)
class BlockBatch:
    """Stacked payloads and metadata of ``nblocks`` equally-shaped blocks.

    Attributes
    ----------
    data:
        ``(nblocks, sx, sy, sz)`` stacked payload array (C-contiguous).
    block_ids:
        ``(nblocks,)`` int64 global block ids.
    starts, stops:
        ``(nblocks, 3)`` int64 extent bounds in global index space.
    owners, homes:
        ``(nblocks,)`` int64 current / original owner ranks.
    reduced:
        ``(nblocks,)`` bool flags (payload reduced, i.e. ``levels > 0``).
    levels:
        ``(nblocks,)`` int64 reduction-ladder rungs (0 full, 1 strided
        downsample, 2 corners).
    scores:
        ``(nblocks,)`` float64 scores; entries are only meaningful where
        ``score_mask`` is True (a block without a score keeps mask False, so
        even NaN scores round-trip losslessly).
    score_mask:
        ``(nblocks,)`` bool — whether the block carries a score.
    field_names:
        Per-block field names.
    """

    data: np.ndarray
    block_ids: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    owners: np.ndarray
    homes: np.ndarray
    reduced: np.ndarray
    levels: np.ndarray
    scores: np.ndarray
    score_mask: np.ndarray
    field_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 4:
            raise ValueError(f"batch data must be 4-D, got shape {data.shape}")
        n = data.shape[0]
        object.__setattr__(self, "data", data)
        for name, width in (
            ("block_ids", None),
            ("owners", None),
            ("homes", None),
            ("reduced", None),
            ("levels", None),
            ("scores", None),
            ("score_mask", None),
            ("starts", 3),
            ("stops", 3),
        ):
            arr = np.asarray(getattr(self, name))
            expected = (n,) if width is None else (n, width)
            if arr.shape != expected:
                raise ValueError(
                    f"{name} must have shape {expected}, got {arr.shape}"
                )
            object.__setattr__(self, name, arr)
        if len(self.field_names) != n:
            raise ValueError(
                f"field_names must have {n} entries, got {len(self.field_names)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Sequence[Block]) -> "BlockBatch":
        """Stack ``blocks`` (non-empty, equal payload shapes) into one batch."""
        if not blocks:
            raise ValueError("cannot build a BlockBatch from an empty block list")
        shape = tuple(blocks[0].data.shape)
        for b in blocks:
            if tuple(b.data.shape) != shape:
                raise ValueError(
                    f"all blocks must share one payload shape; got {shape} and "
                    f"{tuple(b.data.shape)} (use partition_by_shape for mixed lists)"
                )
        ids, starts, stops, owners, homes, reduced, levels, raw_scores, field_names = zip(
            *(
                (
                    b.block_id,
                    b.extent.start,
                    b.extent.stop,
                    b.owner,
                    b.home,
                    b.reduced,
                    b.level,
                    b.score,
                    b.field_name,
                )
                for b in blocks
            )
        )
        mask = np.array([s is not None for s in raw_scores], dtype=bool)
        scores = np.array(
            [0.0 if s is None else float(s) for s in raw_scores], dtype=np.float64
        )
        return cls(
            data=np.stack([b.data for b in blocks]),
            block_ids=np.array(ids, dtype=np.int64),
            starts=np.array(starts, dtype=np.int64),
            stops=np.array(stops, dtype=np.int64),
            owners=np.array(owners, dtype=np.int64),
            homes=np.array(homes, dtype=np.int64),
            reduced=np.array(reduced, dtype=bool),
            levels=np.array(levels, dtype=np.int64),
            scores=scores,
            score_mask=mask,
            field_names=tuple(field_names),
        )

    def to_blocks(self) -> List[Block]:
        """Rebuild the per-block objects (payloads are independent copies)."""
        blocks: List[Block] = []
        for i in range(self.nblocks):
            blocks.append(
                Block(
                    block_id=int(self.block_ids[i]),
                    extent=BlockExtent(
                        start=tuple(int(v) for v in self.starts[i]),
                        stop=tuple(int(v) for v in self.stops[i]),
                    ),
                    data=np.array(self.data[i]),
                    owner=int(self.owners[i]),
                    home=int(self.homes[i]),
                    reduced=bool(self.reduced[i]),
                    level=int(self.levels[i]),
                    score=float(self.scores[i]) if self.score_mask[i] else None,
                    field_name=self.field_names[i],
                )
            )
        return blocks

    # -- basic properties ---------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Number of blocks in the batch."""
        return int(self.data.shape[0])

    @property
    def block_shape(self) -> Tuple[int, int, int]:
        """Common payload shape of every block."""
        return tuple(int(s) for s in self.data.shape[1:])

    @property
    def npoints(self) -> int:
        """Total number of payload points across the batch."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the batch."""
        return int(self.data.nbytes)

    @property
    def flat_data(self) -> np.ndarray:
        """``(nblocks, npoints_per_block)`` view of the stacked payloads."""
        return self.data.reshape(self.nblocks, -1)

    # -- updates ------------------------------------------------------------

    def with_scores(self, scores: np.ndarray) -> "BlockBatch":
        """Return a copy of the batch with one score per block attached."""
        arr = np.asarray(scores, dtype=np.float64)
        if arr.shape != (self.nblocks,):
            raise ValueError(
                f"scores must have shape ({self.nblocks},), got {arr.shape}"
            )
        return replace(
            self, scores=arr, score_mask=np.ones(self.nblocks, dtype=bool)
        )


def group_positions_by_shape(blocks: Sequence[Block]) -> List[List[int]]:
    """Group block positions by payload shape *and* dtype.

    This is the batching key every stacked hot path shares (scoring,
    counting-mode rendering, the reduction gather): blocks whose
    payloads share one shape/dtype stack without promotion.  Returns one
    position list per group, positions in input order; a typical
    pre-reduction rank list yields exactly one group, and all reduced
    2×2×2 blocks fall into one group.
    """
    groups: Dict[Tuple[Tuple[int, ...], np.dtype], List[int]] = {}
    for position, block in enumerate(blocks):
        key = (tuple(block.data.shape), block.data.dtype)
        groups.setdefault(key, []).append(position)
    return list(groups.values())


def stacked_shape_groups(
    blocks: Sequence[Block],
) -> Iterator[Tuple[List[int], np.ndarray]]:
    """Yield ``(positions, stacked)`` for every shape/dtype group of ``blocks``.

    ``stacked[row]`` is the payload of ``blocks[positions[row]]``.  Only the
    payloads are stacked — the hot paths (scoring, counting, the reduction
    gather) never read the batch metadata; use :func:`partition_by_shape`
    when a full :class:`BlockBatch` is needed.
    """
    for positions in group_positions_by_shape(blocks):
        yield positions, np.stack([blocks[i].data for i in positions])


def partition_by_shape(
    blocks: Sequence[Block],
) -> List[Tuple[List[int], BlockBatch]]:
    """Split ``blocks`` into homogeneous batches, keeping original positions.

    Returns ``(indices, batch)`` pairs where ``blocks[indices[i]]`` is row
    ``i`` of ``batch``; the grouping key is :func:`group_positions_by_shape`'s.
    """
    return [
        (indices, BlockBatch.from_blocks([blocks[i] for i in indices]))
        for indices in group_positions_by_shape(blocks)
    ]

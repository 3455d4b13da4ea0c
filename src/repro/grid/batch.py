"""Structure-of-arrays layouts over blocks: ``DecomposedField`` and
``BlockColumns``.

The per-block :class:`~repro.grid.block.Block` objects are the unit of
*semantics* (scoring, reduction, redistribution decisions), but iterating them
one ``np.ndarray`` at a time keeps every hot loop in Python.  The pipeline runs
on two layouts that replace the loop by array passes:

* :class:`DecomposedField` — one snapshot as the decomposition hands it to the
  pipeline (the *arrival*): a read-only per-block geometry table plus the
  payloads already gathered into stacked shape/dtype groups.  It reads as the
  per-rank ``Block`` lists it stands for, built only if an element is accessed,
  and it gives the global field back (:meth:`DecomposedField.field`), so a
  holder of the arrival needs no other copy of the snapshot.
* :class:`BlockColumns` — the iteration state of the batched pipeline steps:
  *all* ranks' blocks as flat metadata columns (ids, holding rank, owners,
  ladder levels, scores) plus the payloads as a short list of stacked
  shape/dtype groups.  It is built once per iteration — an arrival's columns
  and groups taken as they are, or read off per-rank ``Block`` lists, their
  payloads stacked once (and only if a kernel asks) — every batched step reads
  and writes columns, and ``Block`` objects are built again only by
  :meth:`BlockColumns.to_ranks`, for the callers that ask for lists — one
  clone per block that changed.

Blocks of mixed shapes or dtypes cannot share one stacked array:
:func:`group_positions_by_shape` is the grouping key and
:func:`stacked_shape_groups` the one place a block list's payloads are stacked
for the hot paths.  A post-reduction iteration has a handful of groups —
typically the full-block shapes plus one 2×2×2 group holding every corner
block.  A reduction copies only the rows that change level: the rows a group
keeps stay in the stack they arrived in, the group naming them by position
(``(rows, stacked, take)``), so a kept row of an arrival is read from the
arrival's own read-only array until the iteration ends.
"""

from __future__ import annotations

from collections import abc
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.grid.block import Block, BlockExtent, check_level_payload
from repro.grid.reduction import reduce_to_level_batch

__all__ = [
    "BlockColumns",
    "DecomposedField",
    "group_positions_by_shape",
    "stacked_shape_groups",
]

#: ``(rows, stacked)``: the int64 positions of a shape/dtype group's blocks and
#: their payloads as one ``(len(rows), sx, sy, sz)`` array.  In the state of a
#: reduced iteration a group may also be ``(rows, stacked, take)``: the rows'
#: payloads are ``stacked[take]``, rows of a stack the group does not copy
#: (``take`` the sorted int64 positions in it; see :meth:`BlockColumns.reduce_to`).
ShapeGroup = Tuple[np.ndarray, ...]


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


def stacked_shape_groups(blocks: Sequence[Block]) -> List[ShapeGroup]:
    """``(positions, stacked)`` for every shape/dtype group of ``blocks``.

    ``stacked[row]`` is the payload of ``blocks[positions[row]]``.  The one
    place a block list's payloads are stacked for the hot paths (a
    :class:`BlockColumns` built from lists calls it once per iteration, the
    list-facing ``count_blocks_batched`` per call; a :class:`DecomposedField`
    arrives with these very groups); every group is written straight into a
    preallocated output — bitwise ``np.stack``, without its temporaries.
    """
    groups: List[ShapeGroup] = []
    for positions in group_positions_by_shape(blocks):
        first = blocks[positions[0]].data
        stacked = np.empty((len(positions),) + first.shape, dtype=first.dtype)
        np.concatenate(
            [blocks[i].data for i in positions],
            axis=0,
            out=stacked.reshape((-1,) + first.shape[1:]),
        )
        groups.append((np.array(positions, dtype=np.int64), stacked))
    return groups


class DecomposedField(abc.Sequence):
    """One snapshot cut into blocks, as the decomposition hands it over.

    Row ``i`` is one block; rows run rank after rank, each rank's blocks in
    local order: ``ids`` and ``homes`` (producing rank, non-decreasing) are
    ``(n,)`` int64, ``starts``/``stops`` the ``(n, 3)`` extent bounds, rank
    ``r`` produced rows ``bounds[r]:bounds[r + 1]``.  The payloads are held only
    as ``groups`` — the ``(rows, stacked)`` groups :func:`stacked_shape_groups`
    would form from the blocks, same order, same rows, bitwise — gathered from
    the global field by :meth:`CartesianDecomposition.decompose
    <repro.grid.decomposition.CartesianDecomposition.decompose>`.

    It is also the ``Sequence`` of ``nranks`` per-rank ``Block`` lists it stands
    for: the first element access builds every block through the validating
    :class:`Block` constructor (payloads are views of the stack rows), so
    list-based callers read it as ``per_rank_blocks`` while
    ``BlockColumns(arrival)`` never touches a ``Block``.

    An arrival is *input only*.  Every array is marked read-only — a kernel
    writing in place fails loudly instead of corrupting the snapshot's next
    replay — and nothing computed from the payload values belongs on it.

    Since the blocks of a decomposition tile its domain, the arrival is also the
    one copy of its snapshot a holder needs: :meth:`field` assembles the global
    field back, bitwise the one ``decompose`` cut.
    """

    def __init__(
        self,
        ids: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        homes: np.ndarray,
        groups: Sequence[ShapeGroup],
        nranks: int,
        field_name: str = "dbz",
    ) -> None:
        # What ``Block`` and ``BlockExtent`` check per block, on whole columns.
        n = len(ids)
        if ids.shape != (n,) or homes.shape != (n,) or not starts.shape == stops.shape == (n, 3):
            raise ValueError("ids/homes must have shape (n,), starts/stops (n, 3)")
        if n and (ids.min() < 0 or starts.min() < 0 or (stops <= starts).any()):
            raise ValueError("block ids must be >= 0 and extents non-empty")
        if n and (homes[0] < 0 or homes[-1] >= nranks or (np.diff(homes) < 0).any()):
            raise ValueError(f"homes must be non-decreasing ranks in [0, {nranks})")
        seen = np.zeros(n, dtype=np.int64)
        self.groups = tuple(groups)
        for rows, stacked in self.groups:
            if stacked.ndim != 4 or len(stacked) != len(rows):
                raise ValueError(f"block data must be 3-D, one per row: got {stacked.shape}")
            if (stops[rows] - starts[rows] != stacked.shape[1:]).any():
                raise ValueError(f"a {stacked.shape[1:]} group holds blocks of another extent")
            np.add.at(seen, rows, 1)
            rows.flags.writeable = stacked.flags.writeable = False
        if (seen != 1).any():
            raise ValueError("every block must be in exactly one payload group")
        self.ids, self.starts, self.stops, self.homes = ids, starts, stops, homes
        self.bounds = np.searchsorted(homes, np.arange(nranks + 1))
        self.nranks, self.nblocks, self.field_name = int(nranks), n, field_name
        for array in (ids, starts, stops, homes, self.bounds):
            array.flags.writeable = False

    @cached_property
    def _rank_lists(self) -> List[List[Block]]:
        blocks: List[Optional[Block]] = [None] * self.nblocks
        ids, homes = self.ids.tolist(), self.homes.tolist()
        starts, stops = self.starts.tolist(), self.stops.tolist()
        for rows, stacked in self.groups:
            for row, data in zip(rows.tolist(), stacked):
                extent = BlockExtent(tuple(starts[row]), tuple(stops[row]))
                blocks[row] = Block(
                    ids[row], extent, data, homes[row], homes[row], field_name=self.field_name
                )
        bounds = self.bounds.tolist()
        return [blocks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def __len__(self) -> int:
        return self.nranks

    def __getitem__(self, rank):
        return self._rank_lists[rank]

    def field(self) -> np.ndarray:
        """The global field the blocks tile, as a new writeable array: the
        inverse of :meth:`CartesianDecomposition.decompose
        <repro.grid.decomposition.CartesianDecomposition.decompose>`, one
        strided scatter per shape group.  ``ValueError`` when the blocks do not
        cover ``[0, max(stops))`` point for point."""
        shape = tuple(self.stops.max(axis=0).tolist())
        if (self.stops - self.starts).prod(axis=1).sum() != np.prod(shape):
            raise ValueError(f"the blocks do not tile a {shape} field")
        out = np.empty(shape, dtype=self.groups[0][1].dtype)
        for rows, stacked in self.groups:
            window = sliding_window_view(out, stacked.shape[1:], writeable=True)
            window[tuple(self.starts[rows].T)] = stacked
        return out


def _template_column(name: str) -> cached_property:
    """A :class:`BlockColumns` int64 column, read off the templates' ``name``
    attribute when a step first asks for it."""
    read = attrgetter(name)
    return cached_property(
        lambda self: np.fromiter(map(read, self.templates), np.int64, len(self))
    )


class BlockColumns:
    """One iteration's blocks, all ranks, as flat columns plus payload groups.

    Row ``i`` describes one block.  Rows never move: an exchange rewrites the
    ``ranks``/``owners`` columns and the per-rank ``order``, a reduction the
    ``levels`` column and the payload groups (new arrays for the deepened rows
    only), scoring the ``scores`` column.
    The ingested :class:`Block` objects are kept as immutable *templates*
    (extent, home, field name, and the payload until a reduction replaces
    it); :meth:`to_ranks` is the one place blocks are built from the columns.

    Built from a :class:`DecomposedField` the state *is* the arrival's read-only
    columns and groups (only the columns a step writes in place are fresh), and
    the templates are its blocks, built if :meth:`to_ranks` or :meth:`payloads` asks.

    Attributes
    ----------
    templates:
        The ingested blocks, one per row; ``nranks`` ranks hold them.
    ids, ranks, owners, levels, npoints, nbytes:
        ``(n,)`` int64 columns: block id, holding rank, ``owner`` field,
        ladder level, payload points and payload bytes.
    scores:
        ``(n,)`` float64 column once a scoring step wrote it, else ``None``
        (the templates then keep whatever score they arrived with).
    order, bounds:
        Rank ``r`` holds rows ``order[bounds[r]:bounds[r + 1]]``, in that order.
    """

    def __init__(
        self, per_rank_blocks: Union[DecomposedField, Sequence[Sequence[Block]]]
    ) -> None:
        self._groups: Optional[List[ShapeGroup]] = None
        if isinstance(per_rank_blocks, DecomposedField):
            self._arrival = per_rank_blocks
            n = per_rank_blocks.nblocks
            self.nranks = per_rank_blocks.nranks
            self.ids = per_rank_blocks.ids
            self.ranks = self.owners = per_rank_blocks.homes
            self.bounds = per_rank_blocks.bounds
            self.levels = np.zeros(n, dtype=np.int64)
            self.npoints, self.nbytes = np.empty((2, n), dtype=np.int64)
            self._groups = list(per_rank_blocks.groups)
            for rows, stacked in self._groups:
                self.npoints[rows], self.nbytes[rows] = stacked[0].size, stacked[0].nbytes
        else:
            self.templates = [b for blocks in per_rank_blocks for b in blocks]
            n = len(self.templates)
            counts = [len(blocks) for blocks in per_rank_blocks]
            self.nranks = len(counts)
            self.ranks = np.repeat(np.arange(self.nranks, dtype=np.int64), counts)
            self.bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self.scores: Optional[np.ndarray] = None
        self.order = np.arange(n, dtype=np.int64)
        # Rows whose payload is a group row, no longer the template's array,
        # and rows that differ from their template in any field.
        self._replaced = np.zeros(n, dtype=bool)
        self._dirty = np.zeros(n, dtype=bool)

    @cached_property
    def templates(self) -> List[Block]:
        return [block for blocks in self._arrival for block in blocks]

    ids = _template_column("block_id")
    owners = _template_column("owner")
    levels = _template_column("level")
    npoints = _template_column("data.size")
    nbytes = _template_column("data.nbytes")

    def __len__(self) -> int:
        return len(self.order)

    # -- payloads -------------------------------------------------------------

    @property
    def groups(self) -> List[ShapeGroup]:
        """The payloads as shape/dtype groups, ``(rows, stacked)`` or, after a
        reduction kept some of a group's rows, ``(rows, stacked, take)``.

        An arrival's own stacks, or stacked from the templates when a batched
        kernel first asks — a step that plans on the metadata columns alone
        never pays for it.  Scoring runs before any reduction and only ever
        sees the dense pairs.
        """
        if self._groups is None:
            self._groups = stacked_shape_groups(self.templates)
        return self._groups

    def payloads(self) -> List[np.ndarray]:
        """Every row's current payload (the template's array unless replaced;
        a replaced row of a ``take`` group is ``stacked[take[local]]``)."""
        out = [block.data for block in self.templates]
        if self._replaced.any():
            for rows, stacked, *take in self._groups:
                local = np.flatnonzero(self._replaced[rows])
                at = take[0][local] if take else local
                for row, position in zip(rows[local].tolist(), at.tolist()):
                    out[row] = stacked[position]
        return out

    def reduce_to(self, targets: np.ndarray) -> None:
        """Deepen every row to at least ladder level ``targets[row]``.

        Only the rows that change level get new arrays: one
        :func:`~repro.grid.reduction.reduce_to_level_batch` gather per
        (group, target level), handed the rows' positions in the group's stack
        (the corner rung reads only the corners).  The rows a group keeps are
        not copied: a group that keeps every row stays as it is, one that keeps
        some becomes ``(rows[local], stacked, take[local])`` over the same
        stack (``take`` is ``local`` for a dense group).  The new arrays are
        grouped by shape/dtype, so all corner payloads end up in one 2×2×2
        group.
        """
        todo = targets > self.levels
        if not todo.any():
            return
        pieces: Dict[object, List[ShapeGroup]] = {}
        for index, (rows, stacked, *take) in enumerate(self.groups):
            goal = np.where(todo[rows], targets[rows], 0)
            for level in np.flatnonzero(np.bincount(goal)).tolist():
                local = np.flatnonzero(goal == level)
                whole = local.size == rows.size
                at = take[0][local] if take else (None if whole else local)
                if level == 0:
                    # Keyed by the group alone: kept rows never join a copy.
                    pieces[index] = [
                        (rows, stacked, *take) if whole else (rows[local], stacked, at)
                    ]
                    continue
                part = reduce_to_level_batch(stacked, level, at)
                pieces.setdefault((part.shape[1:], part.dtype), []).append(
                    (rows[local], part)
                )
        self._groups = [
            parts[0]
            if len(parts) == 1
            else tuple(np.concatenate(column) for column in zip(*parts))
            for parts in pieces.values()
        ]
        self.levels = np.where(todo, targets, self.levels)
        self._replaced |= todo
        self._dirty |= todo
        for rows, stacked, *_ in self._groups:
            self.npoints[rows] = stacked[0].size
            self.nbytes[rows] = stacked[0].nbytes

    # -- metadata writers -----------------------------------------------------

    def set_scores(self, scores: np.ndarray) -> None:
        """Attach one score per row."""
        self.scores = np.asarray(scores, dtype=np.float64)
        self._dirty[:] = True

    def set_owners(self, owners: np.ndarray) -> None:
        """Rewrite the ``owner`` field of every row."""
        self._dirty |= self.owners != owners
        self.owners = owners

    def move(self, dest: np.ndarray, nranks: int) -> None:
        """Hand row ``i`` to rank ``dest[i]`` (holder and owner) of ``nranks``;
        every rank's rows end up ordered by block id."""
        self.set_owners(dest)
        self.ranks = dest
        self.nranks = int(nranks)
        self.order = np.lexsort((self.ids, dest))
        self.bounds = np.searchsorted(dest[self.order], np.arange(self.nranks + 1))

    # -- readers ----------------------------------------------------------------

    def lookup(self, keys: np.ndarray, values: np.ndarray, default) -> np.ndarray:
        """Per row: ``values[k]`` of the first ``keys[k] == ids[row]``, else
        ``default`` (a scalar or an ``(n,)`` array)."""
        if not keys.size:
            return np.broadcast_to(default, self.ids.shape)
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        pos = np.minimum(np.searchsorted(sorted_keys, self.ids), keys.size - 1)
        return np.where(sorted_keys[pos] == self.ids, values[by_key][pos], default)

    def rank_sizes(self) -> List[int]:
        """Number of rows each rank holds."""
        return np.diff(self.bounds).tolist()

    def per_rank_sum(self, values: np.ndarray) -> List[int]:
        """Sum of an integer (or boolean) per-row column over each rank's rows."""
        sums = np.bincount(self.ranks, weights=values, minlength=self.nranks)
        return sums.astype(np.int64).tolist()

    def split(self, ordered: Sequence) -> list:
        """Cut a sequence laid out in ``order`` (all of rank 0's rows, then
        rank 1's, ...) into its per-rank slices."""
        bounds = self.bounds.tolist()
        return [ordered[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def pair_arrays(self) -> List[np.ndarray]:
        """Per rank, the ``(n_r, 2)`` float64 ``(id, score)`` rows the sort gathers."""
        wire = np.empty((len(self), 2), dtype=np.float64)
        wire[:, 0] = self.ids[self.order]
        wire[:, 1] = self.scores[self.order]
        return self.split(wire)

    def to_ranks(self) -> List[List[Block]]:
        """Materialise the per-rank block lists.

        A row nothing wrote to comes back as its template, the same object;
        any other costs exactly one clone.  A replaced payload is checked
        against the row's level and the template's extent on the way out.
        """
        blocks = list(self.templates)
        rows = np.flatnonzero(self._dirty).tolist()
        if rows:
            owners = self.owners.tolist()
            scores = None if self.scores is None else self.scores.tolist()
            replaced = self._replaced.tolist()
            if any(replaced):
                payloads, levels = self.payloads(), self.levels.tolist()
            for row in rows:
                template = blocks[row]
                updates: Dict[str, object] = {"owner": owners[row]}
                if scores is not None:
                    updates["score"] = scores[row]
                if replaced[row]:
                    level, data = levels[row], payloads[row]
                    check_level_payload(level, template.extent.shape, data.shape)
                    updates.update(data=data, level=level)
                blocks[row] = template._clone_with(**updates)
        return self.split([blocks[row] for row in self.order.tolist()])

"""Cartesian domain decomposition into subdomains and blocks.

CM1 decomposes its fixed rectilinear domain regularly across processes,
independently of content (Section II-A).  Each process's subdomain is further
subdivided into a constant number of equally-sized blocks; those blocks are
the unit of scoring, reduction, and redistribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.grid.batch import DecomposedField
from repro.grid.block import Block, BlockExtent


def factorize_ranks(nranks: int, ndims: int = 3) -> Tuple[int, ...]:
    """Split ``nranks`` into ``ndims`` factors as close to each other as possible.

    This mirrors ``MPI_Dims_create``: the product of the returned factors is
    exactly ``nranks`` and the factors are non-increasing.

    Examples
    --------
    >>> factorize_ranks(64)
    (4, 4, 4)
    >>> factorize_ranks(400)
    (10, 8, 5)
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if ndims < 1:
        raise ValueError(f"ndims must be >= 1, got {ndims}")
    dims = [1] * ndims
    remaining = nranks
    # Greedy assignment of prime factors (largest first) to the smallest dim.
    primes: List[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            primes.append(f)
            n //= f
        f += 1
    if n > 1:
        primes.append(n)
    for p in sorted(primes, reverse=True):
        smallest = int(np.argmin(dims))
        dims[smallest] *= p
    return tuple(sorted(dims, reverse=True))


def split_axis(npoints: int, nparts: int) -> List[Tuple[int, int]]:
    """Split ``npoints`` indices into ``nparts`` contiguous [start, stop) ranges.

    The first ``npoints % nparts`` parts get one extra point, mirroring the
    standard block distribution used by regular domain decompositions.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if npoints < nparts:
        raise ValueError(f"cannot split {npoints} points into {nparts} parts")
    base = npoints // nparts
    extra = npoints % nparts
    ranges = []
    start = 0
    for i in range(nparts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class CartesianDecomposition:
    """Regular decomposition of a global domain into subdomains and blocks.

    Parameters
    ----------
    global_shape:
        Number of grid points of the whole domain along x, y, z.
    nranks:
        Number of processes.
    blocks_per_subdomain:
        Number of blocks each subdomain is divided into along x, y, z.
        Constant across processes, as required by the paper.
    rank_dims:
        Optional explicit process-grid dimensions (product must equal
        ``nranks``).  CM1 decomposes its domain horizontally only, so the
        experiment drivers pass e.g. ``(8, 8, 1)`` for 64 ranks; when omitted
        the ranks are factorised over all three axes.
    """

    global_shape: Tuple[int, int, int]
    nranks: int
    blocks_per_subdomain: Tuple[int, int, int] = (2, 2, 1)
    rank_dims_override: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        gs = tuple(int(v) for v in self.global_shape)
        bps = tuple(int(v) for v in self.blocks_per_subdomain)
        if len(gs) != 3 or any(v < 1 for v in gs):
            raise ValueError(f"invalid global_shape: {self.global_shape}")
        if len(bps) != 3 or any(v < 1 for v in bps):
            raise ValueError(f"invalid blocks_per_subdomain: {self.blocks_per_subdomain}")
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        object.__setattr__(self, "global_shape", gs)
        object.__setattr__(self, "blocks_per_subdomain", bps)
        if self.rank_dims_override is not None:
            # Validate the tuple's arity before converting or multiplying, so
            # a 2-tuple (or a bare int) fails with a clear message instead of
            # a TypeError or a misleading product mismatch.
            try:
                dims = tuple(int(v) for v in self.rank_dims_override)
            except TypeError:
                raise ValueError(
                    f"invalid rank_dims_override: {self.rank_dims_override!r} "
                    f"(expected a 3-tuple of positive ints)"
                ) from None
            if len(dims) != 3 or any(v < 1 for v in dims):
                raise ValueError(f"invalid rank_dims_override: {self.rank_dims_override}")
            if dims[0] * dims[1] * dims[2] != self.nranks:
                raise ValueError(
                    f"rank_dims_override {dims} does not multiply to nranks={self.nranks}"
                )
            object.__setattr__(self, "rank_dims_override", dims)
            object.__setattr__(self, "_rank_dims", dims)
        else:
            object.__setattr__(self, "_rank_dims", factorize_ranks(self.nranks))
        for axis in range(3):
            nparts = self._rank_dims[axis] * bps[axis]
            if gs[axis] < nparts:
                raise ValueError(
                    f"axis {axis}: {gs[axis]} points cannot be split into "
                    f"{nparts} block columns"
                )

    # -- rank-level layout -------------------------------------------------

    @property
    def rank_dims(self) -> Tuple[int, int, int]:
        """Number of subdomains along each axis (product == nranks)."""
        return self._rank_dims  # type: ignore[attr-defined]

    def rank_coords(self, rank: int) -> Tuple[int, int, int]:
        """Cartesian coordinates of ``rank`` in the process grid (row-major)."""
        self._check_rank(rank)
        px, py, pz = self.rank_dims
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def subdomain_extent(self, rank: int) -> BlockExtent:
        """Global index extent of the subdomain owned by ``rank``."""
        coords = self.rank_coords(rank)
        starts, stops = [], []
        for axis in range(3):
            ranges = split_axis(self.global_shape[axis], self.rank_dims[axis])
            lo, hi = ranges[coords[axis]]
            starts.append(lo)
            stops.append(hi)
        return BlockExtent(tuple(starts), tuple(stops))

    # -- block-level layout --------------------------------------------------

    @property
    def blocks_per_rank(self) -> int:
        """Number of blocks each rank owns initially."""
        bx, by, bz = self.blocks_per_subdomain
        return bx * by * bz

    @property
    def nblocks(self) -> int:
        """Total number of blocks in the domain."""
        return self.blocks_per_rank * self.nranks

    def block_extents(self, rank: int) -> List[BlockExtent]:
        """Extents of the blocks inside ``rank``'s subdomain (local ordering)."""
        sub = self.subdomain_extent(rank)
        bx, by, bz = self.blocks_per_subdomain
        x_ranges = split_axis(sub.shape[0], bx)
        y_ranges = split_axis(sub.shape[1], by)
        z_ranges = split_axis(sub.shape[2], bz)
        extents = []
        for xr in x_ranges:
            for yr in y_ranges:
                for zr in z_ranges:
                    extents.append(
                        BlockExtent(
                            (sub.start[0] + xr[0], sub.start[1] + yr[0], sub.start[2] + zr[0]),
                            (sub.start[0] + xr[1], sub.start[1] + yr[1], sub.start[2] + zr[1]),
                        )
                    )
        return extents

    def block_ids(self, rank: int) -> List[int]:
        """Global ids of the blocks initially owned by ``rank``."""
        self._check_rank(rank)
        base = rank * self.blocks_per_rank
        return list(range(base, base + self.blocks_per_rank))

    def owner_of_block(self, block_id: int) -> int:
        """Rank that initially owns ``block_id``."""
        if not (0 <= block_id < self.nblocks):
            raise ValueError(f"block_id {block_id} out of range [0, {self.nblocks})")
        return block_id // self.blocks_per_rank

    def all_block_extents(self) -> Dict[int, BlockExtent]:
        """Mapping block id -> extent for the whole domain."""
        out: Dict[int, BlockExtent] = {}
        for rank in range(self.nranks):
            for bid, ext in zip(self.block_ids(rank), self.block_extents(rank)):
                out[bid] = ext
        return out

    # -- data extraction -------------------------------------------------------

    @cached_property
    def _block_table(self) -> tuple:
        """``(ids, starts, stops, homes, shape_groups)`` of every block, rank
        after rank in local order: :meth:`block_extents` for all ranks, from the
        same per-axis cuts, as arrays built once.  ``shape_groups`` holds ``(shape,
        rows, (x0, y0, z0))`` per distinct block shape, first appearance first,
        rows ascending (:func:`~repro.grid.batch.stacked_shape_groups`'s grouping)."""
        cuts = [
            np.array(
                [
                    [(lo + a, lo + b) for a, b in split_axis(hi - lo, nblk)]
                    for lo, hi in split_axis(npoints, nsub)
                ],
                dtype=np.int64,
            )
            for npoints, nsub, nblk in zip(
                self.global_shape, self.rank_dims, self.blocks_per_subdomain
            )
        ]
        # Block id = rank * blocks_per_rank + local, both row-major.
        coords = np.indices(self.rank_dims + self.blocks_per_subdomain).reshape(6, -1)
        starts, stops = np.stack(
            [cuts[axis][coords[axis], coords[axis + 3]] for axis in range(3)], axis=1
        ).transpose(2, 0, 1).copy()
        ids = np.arange(self.nblocks, dtype=np.int64)
        shapes, first, inverse = np.unique(
            stops - starts, axis=0, return_index=True, return_inverse=True
        )
        shape_groups = []
        for group in np.argsort(first).tolist():
            rows = np.flatnonzero(inverse.ravel() == group)
            shape_groups.append((tuple(shapes[group].tolist()), rows, tuple(starts[rows].T)))
        return ids, starts, stops, ids // self.blocks_per_rank, shape_groups

    def decompose(self, global_field: np.ndarray, field_name: str = "dbz") -> DecomposedField:
        """Cut a full-domain field array into every rank's blocks at once.

        The returned arrival reads as ``[extract_blocks(rank, ...) for rank in
        range(nranks)]`` but holds the payloads pre-stacked: one strided gather
        per distinct block shape, straight from ``global_field`` (an ndarray or a
        read-only ``np.memmap``), and no ``Block`` until a caller asks for one.
        """
        field = self._checked(global_field)
        ids, starts, stops, homes, shape_groups = self._block_table
        groups = [
            (rows, np.ascontiguousarray(sliding_window_view(field, shape)[corner]))
            for shape, rows, corner in shape_groups
        ]
        return DecomposedField(ids, starts, stops, homes, groups, self.nranks, field_name)

    def extract_blocks(
        self, rank: int, global_field: np.ndarray, field_name: str = "dbz"
    ) -> List[Block]:
        """Cut ``rank``'s blocks out of a full-domain field array — the per-rank
        form of :meth:`decompose` and the oracle it is pinned against:
        ``decompose(field)[rank]`` equals this, field by field."""
        field = self._checked(global_field)
        blocks = []
        for bid, ext in zip(self.block_ids(rank), self.block_extents(rank)):
            blocks.append(
                Block(
                    block_id=bid,
                    extent=ext,
                    data=np.ascontiguousarray(field[ext.slices]),
                    owner=rank,
                    home=rank,
                    field_name=field_name,
                )
            )
        return blocks

    # -- helpers ---------------------------------------------------------------

    def _checked(self, global_field: np.ndarray) -> np.ndarray:
        field = np.asarray(global_field)
        if tuple(field.shape) != self.global_shape:
            raise ValueError(
                f"field shape {field.shape} does not match domain {self.global_shape}"
            )
        return field

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")

    def validate_coverage(self) -> bool:
        """Check that blocks tile the domain exactly (no gaps, no overlaps).

        Intended for tests; O(nblocks^2) in the worst case for the overlap
        check so only use on small decompositions.
        """
        extents = list(self.all_block_extents().values())
        total = sum(e.npoints for e in extents)
        nx, ny, nz = self.global_shape
        if total != nx * ny * nz:
            return False
        for i, a in enumerate(extents):
            for b in extents[i + 1 :]:
                if a.overlaps(b):
                    return False
        return True

"""Isosurface extraction.

The paper extracts the 45 dBZ isosurface with the marching cubes algorithm.
This implementation extracts the same surface by decomposing every grid cell
into six tetrahedra and triangulating each tetrahedron (marching tetrahedra).
The tetrahedral route produces the identical surface topology up to the usual
ambiguity-resolution differences of classic marching cubes, avoids the
ambiguous-case problems of the 256-entry table, and — importantly for this
reproduction — yields the same *load structure*: the number of emitted
triangles is proportional to the number of grid cells crossed by the
isosurface, which is what drives per-process rendering time.

The extraction is vectorised: candidate cells are detected with array min/max
tests, and triangles are generated per (tetrahedron, sign-pattern) group, so
the cost scales with the number of active cells rather than the domain size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.viz.mesh import TriangleMesh

#: Corner offsets of a cell, indexed 0..7 (x, y, z).
_CORNER_OFFSETS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=np.int64,
)

#: Decomposition of a cell into 6 tetrahedra sharing the main diagonal 0-6.
_TETRAHEDRA = np.array(
    [
        (0, 5, 1, 6),
        (0, 1, 2, 6),
        (0, 2, 3, 6),
        (0, 3, 7, 6),
        (0, 7, 4, 6),
        (0, 4, 5, 6),
    ],
    dtype=np.int64,
)


def _build_tet_cases() -> Dict[int, List[Tuple[Tuple[int, int], ...]]]:
    """Triangulation of a tetrahedron for each of the 16 inside/outside patterns.

    For a case (bitmask of which of the 4 tet corners are above the level),
    the value is a list of triangles; each triangle is 3 edges, and each edge
    is a pair of local corner indices (one above, one below) on which the
    isosurface vertex is interpolated.
    """
    cases: Dict[int, List[Tuple[Tuple[int, int], ...]]] = {}
    for case in range(16):
        inside = [i for i in range(4) if case & (1 << i)]
        outside = [i for i in range(4) if i not in inside]
        triangles: List[Tuple[Tuple[int, int], ...]] = []
        if len(inside) == 1:
            a = inside[0]
            edges = [(a, b) for b in outside]
            triangles.append((edges[0], edges[1], edges[2]))
        elif len(inside) == 3:
            a = outside[0]
            edges = [(b, a) for b in inside]
            triangles.append((edges[0], edges[1], edges[2]))
        elif len(inside) == 2:
            a, b = inside
            c, d = outside
            # Quad with corners on edges (a,c), (a,d), (b,d), (b,c); split it
            # along one diagonal.
            e_ac, e_ad, e_bd, e_bc = (a, c), (a, d), (b, d), (b, c)
            triangles.append((e_ac, e_ad, e_bd))
            triangles.append((e_ac, e_bd, e_bc))
        cases[case] = triangles
    return cases


_TET_CASES = _build_tet_cases()


def _active_cell_mask(f: np.ndarray, level: float) -> np.ndarray:
    """Boolean mask of the cells crossed by the ``level`` isosurface.

    ``f`` must already be a 3-D float64 array with every axis >= 2.  The mask
    is the single source of truth for cell activity: the counting helpers and
    the mesh extractor all derive from it, so their cell counts can never
    disagree.
    """
    c = [f[:-1, :-1, :-1], f[1:, :-1, :-1], f[:-1, 1:, :-1], f[1:, 1:, :-1],
         f[:-1, :-1, 1:], f[1:, :-1, 1:], f[:-1, 1:, 1:], f[1:, 1:, 1:]]
    stacked_min = np.minimum.reduce(c)
    stacked_max = np.maximum.reduce(c)
    return (stacked_min < level) & (stacked_max >= level)


def count_active_cells(field: np.ndarray, level: float) -> int:
    """Number of grid cells crossed by the ``level`` isosurface.

    This is the cheap load estimate used by the performance model: rendering
    cost is proportional to the number of active cells / emitted triangles.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError(f"field must be 3-D, got shape {f.shape}")
    if min(f.shape) < 2:
        return 0
    return int(np.count_nonzero(_active_cell_mask(f, level)))


#: Payload bytes per row chunk of :func:`count_active_cells_batch`: the gather
#: buffer and the two byte scratch buffers stay in L2, yet the ~10 ufunc
#: dispatches per chunk amortise.  A measured constant, not a knob — one
#: ``blue_waters_64`` snapshot (2 048 blocks, 1.84 M float32), best of 7, median
#: of 5, on a 2 MB L2: 64 KB → 1.72 ms, 128 KB → 1.18, 256 KB → 1.03, 512 KB →
#: 0.87, 1 MB → 0.94, 4 MB → 0.87.  512 KB would be faster, but its gather
#: buffer would take the scratch peak from 0.13× to 0.25× the payload.
_CHUNK_BYTES = 256 * 1024


def count_active_cells_batch(
    batch: np.ndarray, level: float, take: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-block active-cell counts of the rows ``take`` (every row when
    ``None``) of a stacked ``(nblocks, sx, sy, sz)`` batch, in ``take`` order.

    Batched counterpart of :func:`count_active_cells` — entry ``i`` is bitwise
    ``count_active_cells(batch[take[i]], level)`` — in two passes over
    cache-sized row chunks (:data:`_CHUNK_BYTES`), each chunk of ``take``
    gathered into one reused buffer (``np.take(..., mode="clip")``: the
    default ``"raise"`` buffers ``out=`` and took 2.4–2.6x as long), so the
    rows are read where they lie.

    1. *Reach.*  One ``x >= level`` per point and an OR per row: a block none
       of whose points reaches the level has no active cell (NaN compares
       false, so a NaN row is unreached, as the scalar test leaves it).
    2. *Classify.*  Only the reaching rows, gathered into full chunks, go
       through the byte-code pipeline.  Each point is classified once,
       ``3 + (x >= level) - (x < level)``: 2 = below, 4 = at or above, 3 =
       neither (NaN).  Three shifted ORs over the *flat* chunk (``+1``,
       ``+sz``, ``+sy*sz``) leave at every cell's first corner the OR of its
       eight corner codes, which is 6 exactly when some corner is below, some
       at or above and none NaN (a 3 sets the low bit): the scalar test
       ``min < level <= max`` under NaN-propagating ``minimum``/``maximum``.
       The flat shifts run across row, plane and block ends; what they mix
       there lands only on positions that are not cells (last
       plane/row/column), and those are compared against 255, which no OR of
       codes reaches.

    float32 payloads are compared in float32 when ``level`` is exactly
    representable there (the cast to float64 preserves order), everything
    else in float64, converted buffer-wise by the ufunc; ``batch`` is only
    read.
    """
    arr = np.asarray(batch)
    if arr.ndim != 4:
        raise ValueError(f"batch must be 4-D, got shape {arr.shape}")
    _, sx, sy, sz = arr.shape
    nrows = len(arr) if take is None else len(take)
    counts = np.zeros(nrows, dtype=np.int64)
    if nrows == 0 or min(sx, sy, sz) < 2:
        return counts
    level = float(level)
    narrow = arr.dtype == np.float32 and float(np.float32(level)) == level
    loop = "ff->?" if narrow else "dd->?"
    count = sx * sy * sz
    rows = max(1, min(nrows, _CHUNK_BYTES // (count * arr.itemsize)))
    buffer = np.empty((rows, sx, sy, sz), dtype=arr.dtype)
    scratch = np.empty((2, rows * count), dtype=np.uint8)

    def gather(positions: np.ndarray) -> np.ndarray:
        return np.take(arr, positions, axis=0, out=buffer[: len(positions)], mode="clip")

    reach = np.empty(nrows, dtype=bool)
    for lo in range(0, nrows, rows):
        chunk = arr[lo : lo + rows] if take is None else gather(take[lo : lo + rows])
        at_or_above = scratch[0, : chunk.size].view(bool)
        np.greater_equal(chunk, level, out=at_or_above.reshape(chunk.shape), signature=loop)
        np.logical_or.reduce(
            at_or_above.reshape(-1, count), axis=1, out=reach[lo : lo + len(chunk)]
        )
    hits = np.flatnonzero(reach)
    if not hits.size:
        return counts
    positions = hits if take is None else take[hits]
    want = np.full((sx, sy, sz), 255, dtype=np.uint8)
    want[:-1, :-1, :-1] = 6
    want = want.reshape(count)
    for lo in range(0, len(hits), rows):
        chunk = gather(positions[lo : lo + rows])
        code, spare = scratch[:, : chunk.size]
        np.less(chunk, level, out=spare.view(bool).reshape(chunk.shape), signature=loop)
        np.greater_equal(
            chunk, level, out=code.view(bool).reshape(chunk.shape), signature=loop
        )
        np.subtract(code, spare, out=code)  # uint8 wraps: 255, 0, 1
        np.add(code, 3, out=code)
        for shift in (1, sz, sy * sz):
            # Ping-pong: an in-place shifted OR would alias input and output.
            np.bitwise_or(code[:-shift], code[shift:], out=spare[:-shift])
            code, spare = spare, code
        active = spare.view(bool).reshape(-1, count)
        np.equal(code.reshape(-1, count), want, out=active)
        counts[hits[lo : lo + rows]] = active.sum(axis=1, dtype=np.min_scalar_type(count))
    return counts


def extract_isosurface(
    field: np.ndarray,
    level: float,
    coords: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[TriangleMesh, int]:
    """Extract the ``level`` isosurface and count the crossed cells in one pass.

    Identical to :func:`marching_cubes` but also returns the number of active
    (isosurface-crossing) cells from the *same* detection pass, so callers that
    need both the geometry and the cell count — the isosurface rendering
    scripts do — scan the field once instead of twice.  The count is bitwise
    identical to :func:`count_active_cells` (both derive from
    :func:`_active_cell_mask`).

    Returns
    -------
    (mesh, active_cells)
        Triangle soup of the isosurface plus the active-cell count.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError(f"field must be 3-D, got shape {f.shape}")
    if min(f.shape) < 2:
        return TriangleMesh(), 0
    if coords is None:
        axes = [np.arange(n, dtype=np.float64) for n in f.shape]
    else:
        if len(coords) != 3:
            raise ValueError("coords must provide three axes")
        axes = [np.asarray(c, dtype=np.float64) for c in coords]
        for axis, (c, n) in enumerate(zip(axes, f.shape)):
            if c.ndim != 1 or c.size != n:
                raise ValueError(
                    f"coords[{axis}] must be 1-D of length {n}, got shape {c.shape}"
                )

    # 1. Locate active cells (the one and only detection pass).
    active = np.argwhere(_active_cell_mask(f, level))
    ncells_active = int(active.shape[0])
    if ncells_active == 0:
        return TriangleMesh(), 0

    # 2. Gather per-active-cell corner values and positions.
    ci, cj, ck = active[:, 0], active[:, 1], active[:, 2]
    ncells = active.shape[0]
    values = np.empty((ncells, 8), dtype=np.float64)
    positions = np.empty((ncells, 8, 3), dtype=np.float64)
    for corner, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        ii, jj, kk = ci + dx, cj + dy, ck + dz
        values[:, corner] = f[ii, jj, kk]
        positions[:, corner, 0] = axes[0][ii]
        positions[:, corner, 1] = axes[1][jj]
        positions[:, corner, 2] = axes[2][kk]

    # 3. Triangulate the six tetrahedra of every active cell.
    soup_parts: List[np.ndarray] = []
    for tet in _TETRAHEDRA:
        tet_vals = values[:, tet]           # (ncells, 4)
        tet_pos = positions[:, tet, :]      # (ncells, 4, 3)
        inside = (tet_vals > level).astype(np.int64)
        case_index = (
            inside[:, 0]
            | (inside[:, 1] << 1)
            | (inside[:, 2] << 2)
            | (inside[:, 3] << 3)
        )
        for case, triangles in _TET_CASES.items():
            if not triangles:
                continue
            mask = case_index == case
            if not np.any(mask):
                continue
            vals_c = tet_vals[mask]
            pos_c = tet_pos[mask]
            for tri_edges in triangles:
                tri_pts = np.empty((vals_c.shape[0], 3, 3), dtype=np.float64)
                for corner_slot, (ia, ib) in enumerate(tri_edges):
                    va = vals_c[:, ia]
                    vb = vals_c[:, ib]
                    denom = vb - va
                    # Edges always cross the level (one side above, one below),
                    # so the denominator is never exactly zero; guard anyway.
                    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
                    t = np.clip((level - va) / denom, 0.0, 1.0)
                    tri_pts[:, corner_slot, :] = (
                        pos_c[:, ia, :] + t[:, None] * (pos_c[:, ib, :] - pos_c[:, ia, :])
                    )
                soup_parts.append(tri_pts)

    if not soup_parts:
        return TriangleMesh(), ncells_active
    soup = np.concatenate(soup_parts, axis=0)
    # Drop degenerate triangles (zero area), which can appear when the level
    # coincides exactly with corner values.
    e1 = soup[:, 1] - soup[:, 0]
    e2 = soup[:, 2] - soup[:, 0]
    areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    soup = soup[areas > 1e-14]
    return TriangleMesh.from_triangle_soup(soup), ncells_active


def marching_cubes(
    field: np.ndarray,
    level: float,
    coords: Optional[Sequence[np.ndarray]] = None,
) -> TriangleMesh:
    """Extract the ``level`` isosurface of a 3-D scalar field.

    Parameters
    ----------
    field:
        3-D scalar array.
    level:
        Isovalue (e.g. 45 dBZ for the weak-echo-region surface).
    coords:
        Optional per-axis coordinate arrays (rectilinear grid); grid indices
        are used as coordinates when omitted.

    Returns
    -------
    TriangleMesh
        Triangle soup of the isosurface (vertices are not shared between
        triangles).  Use :func:`extract_isosurface` to also obtain the
        active-cell count from the same detection pass.
    """
    return extract_isosurface(field, level, coords=coords)[0]

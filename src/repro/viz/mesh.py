"""Triangle meshes produced by isosurface extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

import numpy as np


@dataclass
class TriangleMesh:
    """An indexed triangle mesh.

    Attributes
    ----------
    vertices:
        ``(nvertices, 3)`` float64 array of vertex positions.
    triangles:
        ``(ntriangles, 3)`` int64 array of vertex indices.
    """

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.float64))
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64)
        t = np.asarray(self.triangles, dtype=np.int64)
        if v.ndim != 2 or (v.size and v.shape[1] != 3):
            raise ValueError(f"vertices must have shape (n, 3), got {v.shape}")
        if t.ndim != 2 or (t.size and t.shape[1] != 3):
            raise ValueError(f"triangles must have shape (m, 3), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        self.vertices = v.reshape(-1, 3)
        self.triangles = t.reshape(-1, 3)

    # -- basic queries -------------------------------------------------------

    @property
    def nvertices(self) -> int:
        """Number of vertices."""
        return int(self.vertices.shape[0])

    @property
    def ntriangles(self) -> int:
        """Number of triangles (the quantity that drives rendering cost)."""
        return int(self.triangles.shape[0])

    @property
    def is_empty(self) -> bool:
        """True if the mesh has no triangles."""
        return self.ntriangles == 0

    def triangle_vertices(self) -> np.ndarray:
        """``(ntriangles, 3, 3)`` array of the vertex positions of each triangle."""
        if self.is_empty:
            return np.zeros((0, 3, 3), dtype=np.float64)
        return self.vertices[self.triangles]

    def triangle_normals(self, normalise: bool = True) -> np.ndarray:
        """Per-triangle normals (direction of the cross product of two edges)."""
        tv = self.triangle_vertices()
        if tv.shape[0] == 0:
            return np.zeros((0, 3), dtype=np.float64)
        e1 = tv[:, 1] - tv[:, 0]
        e2 = tv[:, 2] - tv[:, 0]
        normals = np.cross(e1, e2)
        if normalise:
            norms = np.linalg.norm(normals, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            normals = normals / norms
        return normals

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(min_corner, max_corner) of the vertex cloud (zeros when empty)."""
        if self.nvertices == 0:
            zero = np.zeros(3, dtype=np.float64)
            return zero, zero.copy()
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_triangle_soup(cls, soup: np.ndarray) -> "TriangleMesh":
        """Build a mesh from an ``(ntriangles, 3, 3)`` array of vertex positions.

        Vertices are not merged (each triangle keeps its own three vertices) —
        sufficient for rendering, load accounting, and area computations.
        """
        soup = np.asarray(soup, dtype=np.float64)
        if soup.ndim != 3 or soup.shape[1:] != (3, 3):
            raise ValueError(f"soup must have shape (n, 3, 3), got {soup.shape}")
        n = soup.shape[0]
        vertices = soup.reshape(n * 3, 3)
        triangles = np.arange(n * 3, dtype=np.int64).reshape(n, 3)
        return cls(vertices=vertices, triangles=triangles)

    @classmethod
    def merge(cls, meshes: Iterable["TriangleMesh"]) -> "TriangleMesh":
        """Concatenate several meshes into one."""
        verts: List[np.ndarray] = []
        tris: List[np.ndarray] = []
        offset = 0
        for mesh in meshes:
            if mesh.nvertices == 0:
                continue
            verts.append(mesh.vertices)
            tris.append(mesh.triangles + offset)
            offset += mesh.nvertices
        if not verts:
            return cls()
        return cls(vertices=np.vstack(verts), triangles=np.vstack(tris))

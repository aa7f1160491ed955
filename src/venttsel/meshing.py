"""Conforming triangulations of a polygon and the induced boundary mesh.

The generator lays out boundary points side by side (uniform for grading
exponent q = 1, marched by the local size rule h * max(r, h**q)**(1 - 1/q)
toward each corner for q > 1), Delaunay-triangulates boundary plus interior
seed points, enforces every boundary sub-segment as a mesh edge by midpoint
splitting, culls triangles outside the polygon, and then inserts circumcenters
(Ruppert style) until a 20-degree minimum-angle floor and the local size rule
hold. Each pass calls qhull on all points once; it reads the boundary
sub-segments off the simplices, and gathers the triangles' vertex coordinates
and centroids once for the cull, the orientation, the tiling check and the
quality marks. The Mesh is built once, from the last pass.

The interior seeds lie on an equilateral lattice of spacing h. For q = 1 the
first pass does not call qhull on all points: the lattice triangles at seeds
at least 2 h from the boundary are built by index (an equilateral lattice has
no four cocircular points, so these are its unique Delaunay triangles), and
qhull runs only on the band of boundary nodes and shallower seeds. The result
is the same triangle set as one Delaunay call over all points. The Ruppert
loop builds the mesh instead when a boundary sub-segment is missing, when the
culled triangles do not tile the polygon, when a triangle fails the quality or
size marks, or when four band points inside the polygon are cocircular
(qhull's choice of diagonal then depends on all of its input); it builds every
graded mesh.

Both paths drop every zero-angle triangle with the outside ones: along a
convex-hull side whose boundary points are not exactly collinear qhull returns
such triangles, and no Delaunay refinement needs one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import MeshError, MeshQualityWarning
from .geometry import Polygon, dist_to_vertices
from .quadrature import gauss01

__all__ = [
    "Mesh",
    "BoundaryMesh",
    "triangulate",
    "extract_boundary",
    "refine",
    "write_mesh",
    "read_mesh",
    "write_field",
    "check_mesh",
]

# Triangles per chunk of every whole-mesh quadrature sum (the norms, the error
# norms and the weighted rule): their (triangles, points, 2) arrays stay near
# 0.5 MB, so these sums do not set a run's memory peak
_TRIANGLE_CHUNK = 2048


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a polygon. Treated as immutable once built.

    nodes     : (N, 2) coordinates; boundary layout nodes come first
    triangles : (T, 3) node indices, counterclockwise
    boundary_node_flags : (N,) bool
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_node_flags: np.ndarray
    polygon: Polygon
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def tri_verts(self) -> np.ndarray:
        """(T, 3, 2) vertex coordinates per triangle."""
        return self.nodes[self.triangles]

    @cached_property
    def areas(self) -> np.ndarray:
        v = self.tri_verts
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    @cached_property
    def boundary(self) -> "BoundaryMesh":
        return extract_boundary(self)

    def min_angle_deg(self) -> float:
        return float(np.degrees(_min_angles(_edge_lengths(self.tri_verts)).min()))

    def diameters(self) -> np.ndarray:
        return _edge_lengths(self.tri_verts).max(axis=1)

    def triangle_chunks(self) -> list[slice]:
        """Consecutive slices of at most _TRIANGLE_CHUNK triangles covering the mesh."""
        return [slice(lo, lo + _TRIANGLE_CHUNK) for lo in range(0, self.n_triangles, _TRIANGLE_CHUNK)]


@dataclass(eq=False)
class BoundaryMesh:
    """Ordered cyclic boundary partition induced by a Mesh.

    boundary_nodes[k] is the start node (global index) of segment k; segment k
    runs to boundary_nodes[(k+1) % S]. arclength_coords[k] is the cumulative
    arc length at boundary_nodes[k], zero at the polygon's first vertex.
    corner_nodes[j] is the boundary-local index of polygon vertex j.
    """

    mesh: Mesh
    node_pairs: np.ndarray  # (S, 2) global node indices
    lengths: np.ndarray  # (S,)
    side_ids: np.ndarray  # (S,)
    boundary_nodes: np.ndarray  # (S,) global node indices, cyclic order
    arclength_coords: np.ndarray  # (S,)
    corner_nodes: np.ndarray  # (V,) boundary-local indices, polygon-vertex order
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_segments(self) -> int:
        return len(self.node_pairs)

    @property
    def n_nodes(self) -> int:
        return len(self.boundary_nodes)

    @property
    def perimeter(self) -> float:
        return float(self.lengths.sum())

    @cached_property
    def segment_starts(self) -> np.ndarray:
        return self.mesh.nodes[self.node_pairs[:, 0]]

    @cached_property
    def segment_ends(self) -> np.ndarray:
        return self.mesh.nodes[self.node_pairs[:, 1]]

    @cached_property
    def tangents(self) -> np.ndarray:
        return (self.segment_ends - self.segment_starts) / self.lengths[:, None]

    def local_pairs(self) -> np.ndarray:
        """Segment endpoint indices in boundary-local numbering: (k, k+1 mod S)."""
        k = np.arange(self.n_segments)
        return np.column_stack([k, (k + 1) % self.n_segments])

    def gauss_points(self, order: int):
        """Per-segment Gauss data: points (S, n, 2), weights (S, n), hats (n, 2)."""
        key = ("gauss", order)
        if key not in self._cache:
            x, w = gauss01(order)
            pts = self.segment_starts[:, None, :] + x[None, :, None] * (
                self.segment_ends - self.segment_starts
            )[:, None, :]
            wts = self.lengths[:, None] * w[None, :]
            hats = np.column_stack([1.0 - x, x])
            self._cache[key] = (pts, wts, hats)
        return self._cache[key]


# --- size function and layouts ----------------------------------------------


def _local_size(polygon: Polygon, h: float, q: float, pts: np.ndarray) -> np.ndarray:
    if q == 1.0:
        return np.full(len(np.atleast_2d(pts)), h)
    r = dist_to_vertices(polygon, pts)
    r = np.atleast_1d(r)
    return h * np.maximum(r, h**q) ** (1.0 - 1.0 / q)


def _side_offsets(L: float, h: float, q: float) -> np.ndarray:
    """Boundary point offsets on one side of length L (both endpoints included)."""
    if q == 1.0:
        n = max(1, math.ceil(L / h - 1e-12))
        return np.linspace(0.0, L, n + 1)
    half = 0.5 * L
    # march from the corner by the local size rule; first step is exactly h**q,
    # and the final step lands on the side midpoint (never a sliver interval)
    out = [0.0]
    r = 0.0
    while True:
        step = h * max(r, h**q) ** (1.0 - 1.0 / q)
        if r + step >= half - 0.25 * step:
            out.append(half)
            break
        r += step
        out.append(r)
    left = np.array(out)
    offs = np.unique(np.concatenate([left, L - left]))
    offs[0], offs[-1] = 0.0, L
    return offs


def _edge_lengths(verts: np.ndarray) -> np.ndarray:
    """(T, 3) lengths of the edges 01, 12, 20 of a (T, 3, 2) triangle batch."""
    return np.linalg.norm(np.roll(verts, -1, axis=1) - verts, axis=2)


def _min_angles(lengths: np.ndarray) -> np.ndarray:
    """Smallest interior angle (radians) of each triangle from its (T, 3) edge lengths."""
    c, a, b = lengths.T
    # the smallest angle has the largest cosine: clip and arccos are monotone
    cosv = [(e1**2 + e2**2 - opp**2) / (2 * e1 * e2) for opp, e1, e2 in ((a, b, c), (b, c, a), (c, a, b))]
    return np.arccos(np.clip(np.maximum(np.maximum(cosv[0], cosv[1]), cosv[2]), -1.0, 1.0))


def _edge_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    """Undirected edge code min * n + max of each (m, 2) pair of n nodes."""
    return pairs.min(axis=1).astype(np.int64) * n + pairs.max(axis=1)


def _edges(triangles: np.ndarray, n: int):
    """(directed, codes, inverse, counts): the (3T, 2) edges 01, 12, 20 of all
    triangles stacked in that order, their sorted unique undirected codes, the
    code index of each directed edge and the triangle count of each code."""
    directed = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    codes, inverse, counts = np.unique(
        _edge_codes(directed, n), return_inverse=True, return_counts=True
    )
    return directed, codes, inverse, counts


def _circumcenters(verts: np.ndarray):
    """Circumcentres (T, 2) of triangles (T, 3, 2) and their circumradii (T,),
    both non-finite for a triangle of three collinear points."""
    ax, ay = verts[:, 0, 0], verts[:, 0, 1]
    bx, by = verts[:, 1, 0], verts[:, 1, 1]
    cx, cy = verts[:, 2, 0], verts[:, 2, 1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
        cc = np.column_stack([ux, uy])
        return cc, np.linalg.norm(verts[:, 0] - cc, axis=1)


def _hex_seeds(polygon: Polygon, h: float, q: float):
    """Interior seeds on an equilateral lattice of spacing h, with their lattice
    positions and their distances to the boundary.

    Row k lies at height ymin + (k + 1/2) h sqrt(3)/2, and odd rows are shifted
    by h/2 to the right of even ones. Points outside the polygon or closer to
    its boundary than 0.55 times the local size are pruned. Returns the seeds
    (M, 2), the int32 grid with grid[k, j + 1] the seed index of column j of
    row k or -1 (pruned, or a padding column or row), and the (M,) distances.
    """
    (xmin, ymin), (xmax, ymax) = polygon.vertices.min(0), polygon.vertices.max(0)
    dy = h * math.sqrt(3.0) / 2.0
    rows = np.arange(ymin + 0.5 * dy, ymax, dy)
    pts = []
    for k, y in enumerate(rows):
        off = 0.25 * h if k % 2 else -0.25 * h
        xs = np.arange(xmin + 0.5 * h + off, xmax, h)
        pts.append(np.column_stack([xs, np.full_like(xs, y)]))
    lens = np.array([len(p) for p in pts], dtype=int)
    grid = np.full((len(lens) + 1, lens.max(initial=0) + 2), -1, dtype=np.int32)
    if not lens.sum():
        return np.zeros((0, 2)), grid, np.zeros(0)
    pts = np.vstack(pts)
    keep = np.flatnonzero(polygon.contains_points(pts))
    depth = polygon.distance_to_boundary(pts[keep])
    margin = 0.55 * _local_size(polygon, h, q, pts[keep])
    keep, depth = keep[depth >= margin], depth[depth >= margin]
    row = np.repeat(np.arange(len(lens)), lens)[keep]
    col = keep - (np.cumsum(lens) - lens)[row]
    grid[row, col + 1] = np.arange(len(keep))
    return pts[keep], grid, depth


# Ruppert refinement: quality floor, size tolerance of the local size rule,
# and the pass budget before a mesh is accepted with a warning
_MIN_ANGLE_DEG = 20.0
_SIZE_FACTOR = 2.0
_MAX_PASSES = 40

# Seeds at least this many h from the boundary are deep. The circumdisks of
# the six lattice triangles at a deep seed lie within 2 h / sqrt(3) of it, so
# more than 0.55 h from the boundary, where no lattice point was pruned; they
# hold no fourth point, so these six are its Delaunay triangles.
_BAND_DEPTH = 2.0


def triangulate(polygon: Polygon, h: float, q: float = 1.0) -> Mesh:
    """Generate a conforming triangulation with mesh size h and grading q.

    q = 1 gives a quasi-uniform mesh (max element diameter <= 2 h);
    q > 1 grades element sizes toward the polygon corners following
    h * max(r, h**q)**(1 - 1/q), down to h**q at the corners.
    """
    if h <= 0:
        raise MeshError("mesh size h must be positive")
    if q < 1.0:
        raise MeshError("grading exponent q must be >= 1")
    if h > polygon.side_lengths.min() + 1e-12:
        raise MeshError(
            f"h={h} larger than the shortest polygon side ({polygon.side_lengths.min():.6g})"
        )

    side_offsets = [_side_offsets(L, h, q) for L in polygon.side_lengths]
    interior, grid, depth = _hex_seeds(polygon, h, q)
    if q == 1.0:
        mesh = _lattice_mesh(polygon, h, _boundary_points(polygon, side_offsets), interior, grid, depth)
        if mesh is not None:
            return mesh
    scale = max(1.0, float(np.abs(polygon.vertices).max()))

    last = None
    clean = False
    for _ in range(_MAX_PASSES):
        bpts = _boundary_points(polygon, side_offsets)
        B = len(bpts)
        pts = np.vstack([bpts, interior]) if len(interior) else bpts

        tri = Delaunay(pts)
        simp = tri.simplices
        present = _cycle_edges_present(simp, B)
        if not present.all():
            # split every missing boundary sub-segment at its arc midpoint
            missing = np.nonzero(~present)[0]
            cum = np.cumsum([0] + [len(side_offsets[s]) - 1 for s in range(polygon.n_sides)])
            for k in missing:
                s = int(np.searchsorted(cum, k, side="right") - 1)
                i = k - cum[s]
                offs = side_offsets[s]
                side_offsets[s] = np.insert(offs, i + 1, 0.5 * (offs[i] + offs[i + 1]))
            continue

        simp, verts, cent, areas = _cull_and_orient(polygon, simp, pts[simp])
        if abs(areas.sum() - polygon.area) > 1e-9 * polygon.area:
            raise MeshError("culled triangulation does not tile the polygon")
        last = (pts, simp, B)

        bad = _quality_marks(polygon, h, q, verts, cent)
        if not bad.any():
            clean = True
            break

        cc, radius = _circumcenters(verts[bad])
        new_pts, split_any = _process_candidates(polygon, side_offsets, cc, radius, h, q, scale)
        if not len(new_pts) and not split_any:
            break  # nothing insertable: accept the mesh as is
        if len(new_pts):
            interior = np.vstack([interior, new_pts]) if len(interior) else new_pts

    if last is None:
        raise MeshError("triangulation failed to produce a mesh")
    mesh = _new_mesh(polygon, *last)
    if not clean:
        warnings.warn(
            f"mesh refinement budget exhausted (min angle {mesh.min_angle_deg():.2f} deg)",
            MeshQualityWarning,
        )
    return mesh


def _lattice_mesh(polygon, h, bpts, seeds, grid, depth):
    """The first Delaunay pass of a uniform mesh, with qhull on a boundary band only.

    Lattice triangles at a deep seed are built by index: two per seed (k, j),
    the up triangle with its right neighbour and the row-(k+1) point between
    them, and the down triangle with the two row-(k+1) points around it. The
    band (boundary nodes and seeds that are not deep) is triangulated by qhull,
    and of its triangles those whose open circumdisk holds no deep seed are the
    Delaunay triangles of all points that have no deep vertex. Returns the
    mesh, or None when the band has four cocircular points or a check of the
    first pass fails (a boundary sub-segment missing, the tiling, a quality or
    size mark), so that the Ruppert loop builds it instead.
    """
    B = len(bpts)
    pts = np.vstack([bpts, seeds])
    deep = depth >= _BAND_DEPTH * h

    k, c = np.nonzero(grid[:-1] >= 0)
    c1 = c + k % 2
    a, right, top, left = grid[k, c], grid[k, c + 1], grid[k + 1, c1], grid[k + 1, c1 - 1]
    lattice = np.stack([np.column_stack([a, right, top]), np.column_stack([a, top, left])], axis=1).reshape(-1, 3)
    lattice = lattice[(lattice >= 0).all(axis=1)]
    lattice = lattice[deep[lattice].any(axis=1)] + np.int32(B)

    band = np.concatenate([np.arange(B), B + np.flatnonzero(~deep)]).astype(np.int32)
    tri = Delaunay(pts[band])
    simp = band[tri.simplices]
    cc, radius = _circumcenters(pts[simp])
    # a triangle of three collinear points has no finite circumcentre and is
    # no Delaunay triangle
    kept = np.isfinite(radius)
    if deep.any():
        kept[kept] = cKDTree(seeds[deep]).query(cc[kept])[0] >= radius[kept]
    # four cocircular points have two Delaunay triangulations, and qhull picks
    # one by all of its input: two kept neighbours with one circumcentre, one
    # of them inside the polygon
    nb = tri.neighbors
    inside = polygon.contains_points(pts[simp].mean(axis=1))
    t, e = np.nonzero((nb >= 0) & kept[:, None] & kept[nb] & (inside[:, None] | inside[nb]))
    if np.any(np.linalg.norm(cc[t] - cc[nb[t, e]], axis=1) <= 1e-9 * radius[t]):
        return None
    simp = simp[kept]
    if not _cycle_edges_present(simp, B).all():
        return None
    simp, verts, cent, _ = _cull_and_orient(polygon, simp, pts[simp])
    # lattice triangles are equilateral with side h, so only the band's are marked
    if _quality_marks(polygon, h, 1.0, verts, cent).any():
        return None
    mesh = _new_mesh(polygon, pts, np.concatenate([simp, lattice]), B)
    if abs(mesh.areas.sum() - polygon.area) > 1e-9 * polygon.area:
        return None
    return mesh


def _boundary_points(polygon: Polygon, side_offsets) -> np.ndarray:
    """Boundary points in cyclic order; a corner shared by two sides appears once."""
    return np.vstack([polygon.boundary_point(s, side_offsets[s][:-1]) for s in range(polygon.n_sides)])


def _cycle_edges_present(simp: np.ndarray, B: int) -> np.ndarray:
    """(B,) whether each boundary sub-segment (k, k + 1 mod B) of the first B
    nodes is an edge of one of the (T, 3) triangles."""
    present = np.zeros(B, dtype=bool)
    a, b = simp.ravel(), simp[:, [1, 2, 0]].ravel()
    present[a[(a < B) & (b == (a + 1) % B)]] = True
    present[b[(b < B) & (a == (b + 1) % B)]] = True
    return present


def _cull_and_orient(polygon: Polygon, simp: np.ndarray, verts: np.ndarray):
    """The triangles whose centroid is inside the polygon and whose angles are
    not zero, made counterclockwise.

    A triangle with |cross| <= 1e-10 (|e1|^2 + |e2|^2), for its edge vectors e1
    and e2 from vertex 0, has an angle below 4e-10 radians: qhull returns such
    triangles along a convex-hull side whose points are not exactly collinear.
    The rule is scale-free, so small graded corner triangles are kept. Takes
    the (T, 3) triangles and their (T, 3, 2) vertex coordinates. Returns the
    kept triangles, their vertex coordinates and centroids (both in the
    counterclockwise order) and their areas.
    """
    cent = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3.0
    inside = polygon.contains_points(cent)
    simp, verts, cent = simp[inside], verts[inside], cent[inside]
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flat = np.abs(cross) <= 1e-10 * ((e1**2).sum(axis=1) + (e2**2).sum(axis=1))
    if flat.any():
        simp, verts, cent, cross = simp[~flat], verts[~flat], cent[~flat], cross[~flat]
    flip = cross < 0
    simp[flip] = simp[flip][:, [0, 2, 1]]
    verts[flip] = verts[flip][:, [0, 2, 1]]
    # the sum of the reordered vertices can round differently
    cent[flip] = (verts[flip, 0] + verts[flip, 1] + verts[flip, 2]) / 3.0
    # swapping two vertices negates the cross product exactly
    return simp, verts, cent, 0.5 * np.abs(cross)


def _quality_marks(polygon: Polygon, h: float, q: float, verts: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """Triangles below the minimum-angle floor or above the local size rule,
    from their (T, 3, 2) vertex coordinates and (T, 2) centroids."""
    lengths = _edge_lengths(verts)
    target = _SIZE_FACTOR * _local_size(polygon, h, q, cent)
    return (_min_angles(lengths) < math.radians(_MIN_ANGLE_DEG) - 1e-12) | (lengths.max(axis=1) > target)


def _new_mesh(polygon: Polygon, pts: np.ndarray, simp: np.ndarray, B: int) -> Mesh:
    flags = np.zeros(len(pts), dtype=bool)
    flags[:B] = True
    return Mesh(nodes=pts, triangles=simp, boundary_node_flags=flags, polygon=polygon)


def _process_candidates(polygon, side_offsets, cc, radius, h, q, scale):
    """Ruppert rule over all circumcenter candidates at once.

    A candidate inside the diametral circle of its nearest boundary
    sub-segment (or outside the polygon) splits that sub-segment; the rest are
    inserted as interior points after mutual and against-existing dedupe.
    A Delaunay triangle's circumdisk holds no point, so a candidate's nearest
    existing point lies at its circumradius `radius`; a candidate is dropped
    when that is within 1e-10 * scale. Fixed candidate order keeps the result
    deterministic.
    """
    if not len(cc):
        return np.zeros((0, 2)), False
    # nearest side and arc offset, vectorized over sides
    d = cc[:, None, :] - polygon.side_starts[None, :, :]
    t = np.einsum("csd,sd->cs", d, polygon.side_tangents)
    t = np.clip(t, 0.0, polygon.side_lengths[None, :])
    feet = polygon.side_starts[None, :, :] + t[..., None] * polygon.side_tangents[None, :, :]
    dist2 = np.einsum("csd,csd->cs", cc[:, None, :] - feet, cc[:, None, :] - feet)
    side = np.argmin(dist2, axis=1)
    t_at = t[np.arange(len(cc)), side]

    inside = polygon.contains_points(cc)
    encroach = np.zeros(len(cc), dtype=bool)
    interval = np.zeros(len(cc), dtype=int)
    for s in np.unique(side):
        rows = np.nonzero(side == s)[0]
        offs = side_offsets[s]
        i = np.clip(np.searchsorted(offs, t_at[rows]) - 1, 0, len(offs) - 2)
        interval[rows] = i
        mids = polygon.boundary_point(s, 0.5 * (offs[i] + offs[i + 1]))
        half = 0.5 * (offs[i + 1] - offs[i])
        encroach[rows] = np.linalg.norm(cc[rows] - mids, axis=1) < half

    # split every encroached (or exterior-candidate) sub-segment once
    floor = max(1e-10 * scale, 0.25 * h**q)
    split_any = False
    to_split = encroach | ~inside
    for s in np.unique(side[to_split]):
        offs = side_offsets[s]
        ivals = np.unique(interval[to_split & (side == s)])[::-1]  # descending
        for i in ivals:
            if offs[i + 1] - offs[i] > floor:
                offs = np.insert(offs, i + 1, 0.5 * (offs[i] + offs[i + 1]))
                split_any = True
        side_offsets[s] = offs

    free = inside & ~encroach
    cand, radius = cc[free][:4000], radius[free][:4000]
    if not len(cand):
        return np.zeros((0, 2)), split_any
    # mutual dedupe at 0.3 * local size, greedy in fixed order (KDTree radius
    # queries keep this O(n log n) even for thousands of candidates)
    sizes = _local_size(polygon, h, q, cand)
    neigh = cKDTree(cand).query_ball_point(cand, r=0.3 * sizes)
    keep = [False] * len(cand)
    for i, nb in enumerate(neigh):
        keep[i] = not any(keep[j] for j in nb)
    return cand[np.array(keep) & (radius > 1e-10 * scale)], split_any


# --- boundary extraction ------------------------------------------------------


def extract_boundary(mesh: Mesh) -> BoundaryMesh:
    """Extract the single closed boundary cycle, starting at polygon vertex 0,
    with side ids and the nodes of all polygon vertices."""
    directed, _, inverse, counts = _edges(mesh.triangles, mesh.n_nodes)
    if counts.max() > 2:
        raise MeshError("non-manifold edge: mesh is not conforming")
    bedges = directed[counts[inverse] == 1]
    if not len(bedges) or np.bincount(bedges[:, 0], minlength=mesh.n_nodes).max() > 1:
        raise MeshError("boundary is not a single closed cycle")

    poly = mesh.polygon
    starts = bedges[:, 0]
    dist = np.linalg.norm(mesh.nodes[starts][None, :, :] - poly.vertices[:, None, :], axis=2)
    nearest = np.argmin(dist, axis=1)
    off = dist[np.arange(poly.n_vertices), nearest] > 1e-12 * max(1.0, poly.perimeter)
    if off.any():
        raise MeshError(f"polygon vertex {int(np.argmax(off))} is not a mesh node")
    corners = starts[nearest]

    succ = np.full(mesh.n_nodes, -1)
    succ[starts] = bedges[:, 1]
    succ = succ.tolist()
    start = int(corners[0])
    cycle = [start]
    node = succ[start]
    while node != start:
        if node < 0 or len(cycle) >= len(bedges):
            raise MeshError("boundary walk did not close")
        cycle.append(node)
        node = succ[node]
    if len(cycle) != len(bedges):
        raise MeshError("boundary is not a single closed cycle")

    bnodes = np.array(cycle, dtype=int)
    pairs = np.column_stack([bnodes, np.roll(bnodes, -1)])
    p0 = mesh.nodes[pairs[:, 0]]
    p1 = mesh.nodes[pairs[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    if np.any(lengths <= 0):
        raise MeshError("zero-length boundary segment")

    mids = 0.5 * (p0 + p1)
    side_ids = poly.locate_boundary_point(mids)[0]
    if abs(lengths.sum() - poly.perimeter) > 1e-10 * poly.perimeter:
        raise MeshError("boundary length does not match the polygon perimeter")

    arclen = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    return BoundaryMesh(
        mesh=mesh,
        node_pairs=pairs,
        lengths=lengths,
        side_ids=side_ids,
        boundary_nodes=bnodes,
        arclength_coords=arclen,
        corner_nodes=np.argmax(bnodes == corners[:, None], axis=1),
    )


# --- uniform refinement -------------------------------------------------------


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 by edge midpoints; old nodes keep indices."""
    simp = mesh.triangles
    N = mesh.n_nodes
    _, uniq, inv, counts = _edges(simp, N)
    mid_index = N + np.arange(len(uniq))
    ei, ej = uniq // N, uniq % N
    mid_coords = 0.5 * (mesh.nodes[ei] + mesh.nodes[ej])

    T = len(simp)
    m = mid_index[inv].reshape(3, T).T  # columns: mid01, mid12, mid20
    children = np.concatenate(
        [
            np.column_stack([simp[:, 0], m[:, 0], m[:, 2]]),
            np.column_stack([simp[:, 1], m[:, 1], m[:, 0]]),
            np.column_stack([simp[:, 2], m[:, 2], m[:, 1]]),
            m,
        ]
    )
    new_nodes = np.vstack([mesh.nodes, mid_coords])
    new_flags = np.concatenate([mesh.boundary_node_flags, counts == 1])
    return Mesh(
        nodes=new_nodes,
        triangles=children,
        boundary_node_flags=new_flags,
        polygon=mesh.polygon,
    )


# --- consistency checks and plain-text dumps ----------------------------------


def check_mesh(mesh: Mesh):
    """Raise MeshError if basic mesh invariants are violated: positive areas
    tiling the polygon, flagged nodes on its boundary, and extract_boundary's
    rules (no edge in three triangles, one cycle through every polygon vertex)."""
    if np.any(mesh.areas <= 0):
        raise MeshError("non-positive triangle area")
    if abs(mesh.areas.sum() - mesh.polygon.area) > 1e-10 * mesh.polygon.area:
        raise MeshError("triangle areas do not sum to the polygon area")
    bidx = np.nonzero(mesh.boundary_node_flags)[0]
    d = mesh.polygon.distance_to_boundary(mesh.nodes[bidx])
    if len(d) and d.max() > 1e-12 * max(1.0, mesh.polygon.perimeter):
        raise MeshError("boundary node off the polygon boundary")
    extract_boundary(mesh)


def write_mesh(path, mesh: Mesh):
    """Plain-text dump: `nodes N triangles T`, N lines `x y`, T lines `i j k`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"nodes {mesh.n_nodes} triangles {mesh.n_triangles}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{int(i)} {int(j)} {int(k)}\n")


def read_mesh(path):
    """Read a mesh dump back as (nodes, triangles) arrays; a bad header, a
    missing line, a bad row or a node index outside 0 .. N-1 raises MeshError
    naming the path and line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[0::2] != ["nodes", "triangles"] or not (head[1] + head[3]).isdigit():
        raise MeshError(f"bad mesh file header in {path}")
    n, t = int(head[1]), int(head[3])
    nodes = _read_rows(path, lines, 1, n, float, 2)
    triangles = _read_rows(path, lines, 1 + n, t, int, 3)
    bad = np.flatnonzero(((triangles < 0) | (triangles >= n)).any(axis=1))
    if bad.size:
        k = 1 + n + int(bad[0])
        raise MeshError(f"{path}:{k + 1}: node index outside 0 .. {n - 1}: {lines[k]!r}")
    return nodes, triangles


def _read_rows(path, lines, first: int, count: int, parse, width: int) -> np.ndarray:
    rows = []
    for k in range(first, first + count):
        where = f"{path}:{k + 1}"
        if k >= len(lines):
            raise MeshError(f"{where}: missing line")
        tokens = lines[k].split()
        if len(tokens) != width:
            raise MeshError(f"{where}: expected {width} values, got {len(tokens)}")
        try:
            rows.append([parse(v) for v in tokens])
        except ValueError:
            raise MeshError(f"{where}: value does not parse: {lines[k]!r}") from None
    return np.array(rows, dtype=parse).reshape(count, width)


def write_field(path, values: np.ndarray):
    """Plain-text nodal field dump: `field N` then one value per line."""
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"field {len(values)}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")

"""Polygonal domains: corner angles, corner distance, and the admissible weight window.

A Polygon stores only true corners (vertices with interior angle exactly pi are
merged away during construction, so the corner-distance function never vanishes
on the interior of a side).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError

__all__ = [
    "Polygon",
    "WeightWindow",
    "build_polygon",
    "sigma_window",
    "dist_to_vertices",
]

_ANGLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightWindow:
    """Admissible range for the corner-weight exponent sigma.

    The window is [lower, upper) when lower_closed else (lower, upper); the lower
    end is closed exactly when it sits at -1/2.
    """

    lower: float
    lower_closed: bool = False
    upper = 0.5  # a class constant: every window ends below sigma = 1/2

    @property
    def is_empty(self) -> bool:
        return self.lower >= self.upper

    def contains(self, sigma: float) -> bool:
        if self.is_empty:
            return False
        above = sigma >= self.lower if self.lower_closed else sigma > self.lower
        return above and sigma < self.upper

    @property
    def midpoint(self) -> float:
        if self.is_empty:
            raise GeometryError("weight window is empty; no admissible sigma")
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple counterclockwise polygon; it stores its corners and derives the rest.

    vertices : (n, 2) corner coordinates, counterclockwise
    reoriented: the input ran clockwise and was reversed

    Derived once per polygon and cached: the interior openings `angles`, each
    in (0, 2*pi), their largest `alpha_max`, `is_convex` (every opening below
    pi) and the side data, which the mesher reads in tight loops.
    """

    vertices: np.ndarray
    reoriented: bool = False

    @cached_property
    def angles(self) -> np.ndarray:
        return _interior_angles(self.vertices)

    @cached_property
    def alpha_max(self) -> float:
        return float(self.angles.max())

    @cached_property
    def is_convex(self) -> bool:
        return bool(self.alpha_max < math.pi - _ANGLE_TOL)

    @property
    def n_sides(self) -> int:
        return len(self.vertices)

    @property
    def side_starts(self) -> np.ndarray:
        return self.vertices

    @cached_property
    def side_ends(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0)

    @cached_property
    def side_vectors(self) -> np.ndarray:
        return self.side_ends - self.side_starts

    @cached_property
    def side_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.side_vectors, axis=1)

    @cached_property
    def side_tangents(self) -> np.ndarray:
        """Unit tangent of each side, in traversal (counterclockwise) direction."""
        return self.side_vectors / self.side_lengths[:, None]

    @cached_property
    def side_normals(self) -> np.ndarray:
        """Outward unit normal of each side (tangent rotated by -90 degrees)."""
        t = self.side_tangents
        return np.column_stack([t[:, 1], -t[:, 0]])

    @property
    def perimeter(self) -> float:
        return float(self.side_lengths.sum())

    @property
    def area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        return float(0.5 * np.sum(x * yn - xn * y))

    def boundary_point(self, side: int | np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Point(s) on `side` at arc distance t from its start vertex.

        `side` is one side index, or an index array that broadcasts with t
        (each offset on its own side). The result has shape t.shape + (2,) and
        is coordinate-major: the transpose of a (2, *t.shape) array, so for
        1-D t each coordinate column is contiguous. Each coordinate is
        start + t * tangent, the same bits as
        side_starts[side] + np.multiply.outer(t, side_tangents[side]).
        """
        t = np.asarray(t, dtype=float)
        p0, tan = self.side_starts[side], self.side_tangents[side]
        out = np.empty((2, *np.broadcast(t, side).shape))
        for d in range(2):
            np.multiply(t, tan[..., d], out=out[d, ...])
            out[d, ...] += p0[..., d]
        return out.transpose(*range(1, out.ndim), 0)

    def nearest_side(self, pts: np.ndarray):
        """(side, t, dist) of each of the (P, 2) points: its nearest side, the
        arc offset of its foot on that side from the side's start, and the
        distance to that foot. One pass per side over the coordinate columns
        keeps memory O(P), and sqrt(fx*fx + fy*fy) has the bits of
        np.linalg.norm. A tie goes to the first side; a NaN point stays at
        side 0, t = 0, distance inf."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        side, t, dist = np.zeros(len(pts), dtype=np.intp), np.zeros(len(pts)), np.full(len(pts), np.inf)
        for s, ((x0, y0), (tx, ty), L) in enumerate(zip(self.side_starts, self.side_tangents, self.side_lengths)):
            ts = np.clip((x - x0) * tx + (y - y0) * ty, 0.0, L)
            fx, fy = x0 + ts * tx - x, y0 + ts * ty - y
            ds = np.sqrt(fx * fx + fy * fy)
            closer = ds < dist
            np.copyto(side, s, where=closer)
            np.copyto(t, ts, where=closer)
            np.copyto(dist, ds, where=closer)
        return side, t, dist

    def locate_boundary_point(self, x):
        """Return (side index, arc offset from side start) of a boundary point x;
        for points x of shape (P, 2), an index array and an offset array. A
        point farther than 1e-9 * max(1, perimeter) from every side raises."""
        x = np.asarray(x, dtype=float)
        side, t, dist = self.nearest_side(x)
        off = dist > 1e-9 * max(1.0, self.perimeter)
        if np.any(off):
            i = int(np.argmax(off))
            raise GeometryError(
                f"point {np.atleast_2d(x)[i]} is not on the boundary (distance {dist[i]:.3e})"
            )
        if x.ndim == 1:
            return int(side[0]), float(t[0])
        return side, t

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Crossing-number inside test; points on the boundary are unreliable."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        v0, v1 = self.side_starts, self.side_ends
        for (x1, y1), (x2, y2) in zip(v0, v1):
            straddles = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= straddles & (x < xint)
        return inside

    @property
    def reentrant_corners(self) -> np.ndarray:
        """Indices j with alpha_j > pi."""
        return np.nonzero(self.angles > math.pi + _ANGLE_TOL)[0]


# --- construction ----------------------------------------------------------


def _interior_angles(verts: np.ndarray) -> np.ndarray:
    """Interior angles of a CCW simple polygon, alpha_j = pi - turn_j."""
    prev = verts - np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0) - verts
    cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    dot = np.einsum("ij,ij->i", prev, nxt)
    turn = np.arctan2(cross, dot)
    return math.pi - turn


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p):
    tol = 1e-14
    if _orient(a, b, p) ** 2 > tol * np.dot(b - a, b - a):
        return False
    return min(a[0], b[0]) - tol <= p[0] <= max(a[0], b[0]) + tol and (
        min(a[1], b[1]) - tol <= p[1] <= max(a[1], b[1]) + tol
    )


def _segments_conflict(a, b, c, d):
    """True when segment ab intersects or touches cd away from shared endpoints."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if (o1 * o2 < 0) and (o3 * o4 < 0):
        return True
    for (p, q, r) in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)):
        if _on_segment(p, q, r):
            return True
    return False


def _check_simple(verts: np.ndarray):
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint by construction
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_conflict(a, b, c, d):
                raise GeometryError(
                    f"polygon is not simple: edge {i} intersects edge {j}"
                )


def build_polygon(points) -> Polygon:
    """Build a simple counterclockwise Polygon from an ordered point list.

    Consecutive collinear edges are merged (a vertex with interior angle pi is
    not a corner and is dropped). Clockwise input is reversed and flagged via
    the `reoriented` attribute. Self-intersecting or degenerate input raises
    GeometryError.
    """
    verts = np.asarray(points, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise GeometryError("points must be an (n, 2) array-like")
    if len(verts) >= 2 and np.allclose(verts[0], verts[-1]):
        verts = verts[:-1]  # tolerate an explicitly closed ring
    if len(verts) < 3:
        raise GeometryError("a polygon needs at least 3 distinct points")

    scale = max(1.0, float(np.abs(verts).max()))
    gaps = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    if np.any(gaps <= 1e-14 * scale):
        raise GeometryError("consecutive points must be distinct")

    x, y = verts[:, 0], verts[:, 1]
    signed_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if abs(signed_area) <= 1e-14 * scale * scale:
        raise GeometryError("polygon has (near-)zero area")
    reoriented = False
    if signed_area < 0:
        verts = verts[::-1].copy()
        reoriented = True

    _check_simple(verts)

    # merge flat vertices until none remain
    for _ in range(len(verts)):
        angles = _interior_angles(verts)
        flat = np.abs(angles - math.pi) <= _ANGLE_TOL
        if not flat.any():
            break
        verts = verts[~flat]
        if len(verts) < 3:
            raise GeometryError("polygon degenerates after merging collinear edges")
    polygon = Polygon(vertices=verts, reoriented=reoriented)
    angles = polygon.angles
    if np.any(angles <= _ANGLE_TOL) or np.any(angles >= 2 * math.pi - _ANGLE_TOL):
        raise GeometryError("cusped corner: interior angles must lie strictly in (0, 2*pi)")
    return polygon


def sigma_window(p: Polygon) -> WeightWindow:
    """Admissible weight window for p: lower end max(1 - pi/alpha_max, -1/2).

    The lower bound is closed exactly when it equals -1/2; an (almost-slit)
    polygon with alpha_max near 2*pi yields a thin or empty window, which is
    reported rather than clamped.
    """
    raw = 1.0 - math.pi / p.alpha_max
    lower = max(raw, -0.5)
    return WeightWindow(lower=lower, lower_closed=bool(raw <= -0.5))


def dist_to_vertices(p: Polygon, x) -> float | np.ndarray:
    """Distance from x (a point or an (N, 2) batch) to the set of corners."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    d2 = np.full(len(pts), np.inf)
    for vx, vy in p.vertices:
        np.minimum(d2, (pts[:, 0] - vx) ** 2 + (pts[:, 1] - vy) ** 2, out=d2)
    d = np.sqrt(d2)
    return float(d[0]) if single else d

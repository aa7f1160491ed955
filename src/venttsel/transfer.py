"""Point location and evaluation of piecewise-linear fields across meshes."""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .assembly import NodalField, _p1_gradients
from .errors import VenttselError
from .meshing import BoundaryMesh, Mesh

__all__ = ["locate_points", "evaluate_field", "evaluate_gradient", "boundary_interp"]

_BARY_TOL = 1e-10
# nearest centroids tried first per point; the count grows 4x per round
_K_START = 8


def _locator(mesh: Mesh):
    if "locator" not in mesh._cache:
        cent = mesh.tri_verts.mean(axis=1)
        mesh._cache["locator"] = cKDTree(cent)
    return mesh._cache["locator"]


def _bary(mesh: Mesh, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
    v = mesh.tri_verts[tris]
    T = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    d = pts - v[:, 0]
    l1 = (d[:, 0] * T[:, 1, 1] - d[:, 1] * T[:, 0, 1]) / det
    l2 = (-d[:, 0] * T[:, 1, 0] + d[:, 1] * T[:, 0, 0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])


def locate_points(mesh: Mesh, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Containing triangle and barycentric coordinates for each query point.

    Points must lie in the closed domain; the nearest element is used as a
    last resort for points within roundoff of an edge.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    tree = _locator(mesh)
    found = np.full(n, -1, dtype=int)
    bary = np.zeros((n, 3))
    pending = np.arange(n)
    k = min(_K_START, mesh.n_triangles)
    while len(pending):
        _, cand = tree.query(pts[pending], k=k)
        cand = cand.reshape(len(pending), -1)
        for col in range(cand.shape[1]):
            rows = np.nonzero(found[pending] < 0)[0]
            if not len(rows):
                break
            lam = _bary(mesh, cand[rows, col], pts[pending[rows]])
            ok = lam.min(axis=1) >= -_BARY_TOL
            sel = rows[ok]
            found[pending[sel]] = cand[sel, col]
            bary[pending[sel]] = lam[ok]
        pending = pending[found[pending] < 0]
        if not len(pending) or k == mesh.n_triangles:
            break
        k = min(4 * k, mesh.n_triangles)
    if np.any(found < 0):
        # clamp: take the nearest candidate and clip barycentrics
        bad = np.nonzero(found < 0)[0]
        _, cand = tree.query(pts[bad], k=1)
        lam = _bary(mesh, np.atleast_1d(cand), pts[bad])
        worst = lam.min(axis=1)
        if np.any(worst < -1e-6):
            raise VenttselError(
                f"{np.sum(worst < -1e-6)} points could not be located in the mesh"
            )
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum(axis=1, keepdims=True)
        found[bad] = np.atleast_1d(cand)
        bary[bad] = lam
    return found, bary


def evaluate_field(u: NodalField, pts: np.ndarray) -> np.ndarray:
    """Evaluate a P1 field at arbitrary points of its domain."""
    tris, lam = locate_points(u.mesh, pts)
    return np.einsum("pk,pk->p", lam, u.values[u.mesh.triangles[tris]])


def evaluate_gradient(u: NodalField, pts: np.ndarray) -> np.ndarray:
    """Piecewise-constant gradient of a P1 field at arbitrary points."""
    tris, _ = locate_points(u.mesh, pts)
    g = _p1_gradients(u.mesh)
    return np.einsum("pkd,pk->pd", g[tris], u.values[u.mesh.triangles[tris]])


def _evaluate_by_centroid(u: NodalField, cent: np.ndarray, pts: np.ndarray):
    """Values of a P1 field at the (T, k, 2) points of T triangles of another
    mesh, and its gradient at their (T, 2) centroids, with one point location
    per triangle.

    Each centroid is located in u's mesh, and each point is tested first
    against the triangle that holds its centroid; only the points outside it
    are located on their own. Returns the (T, k) values and (T, 2) gradients.
    """
    mesh = u.mesh
    tri_c, _ = locate_points(mesh, cent)
    tris = np.repeat(tri_c, pts.shape[1])
    flat = pts.reshape(-1, 2)
    lam = _bary(mesh, tris, flat)
    miss = np.flatnonzero(lam.min(axis=1) < -_BARY_TOL)
    if len(miss):
        tris[miss], lam[miss] = locate_points(mesh, flat[miss])
    vals = np.einsum("pk,pk->p", lam, u.values[mesh.triangles[tris]]).reshape(pts.shape[:2])
    g = _p1_gradients(mesh)
    grads = np.einsum("pkd,pk->pd", g[tri_c], u.values[mesh.triangles[tri_c]])
    return vals, grads


def boundary_interp(bm: BoundaryMesh, vals_b: np.ndarray, arc: np.ndarray):
    """Boundary trace and its arc derivative at arbitrary arc coordinates.

    vals_b are nodal trace values in the cyclic boundary order of bm; arc
    coordinates share bm's origin (the polygon's first vertex) and wrap at the
    perimeter.
    """
    per = bm.perimeter
    knots = np.concatenate([bm.arclength_coords, [per]])
    v = np.concatenate([vals_b, [vals_b[0]]])
    a = np.mod(np.asarray(arc, dtype=float), per)
    idx = np.clip(np.searchsorted(knots, a, side="right") - 1, 0, len(knots) - 2)
    h = knots[idx + 1] - knots[idx]
    t = (a - knots[idx]) / h
    vals = (1.0 - t) * v[idx] + t * v[idx + 1]
    deriv = (v[idx + 1] - v[idx]) / h
    return vals, deriv

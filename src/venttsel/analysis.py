"""Norms and functionals used by the estimates: the composite V1 norm, weighted
corner norms, the nonlocal boundary energy, a per-side discrete boundary-H2
diagnostic, and the Friedrichs ratio.

Weighted integrals r^{2*sigma} * value^2 use per-element Gauss rules; elements
touching a corner get three dyadic radial layers plus an analytic
geometric-series tail (the layers are self-similar, so the remaining core
integrates in closed form with the value frozen at the corner). On the
boundary, callables are integrated side by side on corner-graded panels.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import (
    NodalField,
    boundary_mass,
    boundary_stiffness,
    bulk_mass,
    bulk_stiffness,
    _p1_gradients,
)
from .errors import VenttselError
from .geometry import Polygon, dist_to_vertices
from .meshing import BoundaryMesh, Mesh
from .quadrature import gauss01, graded_breakpoints, tri_rule

__all__ = [
    "NormReport",
    "norm_report",
    "v1_norm",
    "l2_bulk",
    "h1_bulk_semi",
    "l2_bdry",
    "h1_bdry_semi",
    "weighted_l2",
    "gagliardo_energy",
    "boundary_h2_diagnostic",
    "weighted_hessian_diagnostic",
    "recovered_hessian",
    "friedrichs_ratio",
    "NORM_CSV_HEADER",
]


def _ops(mesh: Mesh):
    """Cached stiffness/mass operators shared by the norm routines."""
    if "norm_ops" not in mesh._cache:
        bm = mesh.boundary
        mesh._cache["norm_ops"] = {
            "A": bulk_stiffness(mesh),
            "M": bulk_mass(mesh),
            "A_b": boundary_stiffness(bm),
            "M_1": boundary_mass(bm, 1.0),
        }
    return mesh._cache["norm_ops"]


def _quad_form(mat, v):
    return float(v @ (mat @ v))


def l2_bulk(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(_ops(u.mesh)["M"], u.values)))


def h1_bulk_semi(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(_ops(u.mesh)["A"], u.values)))


def l2_bdry(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(_ops(u.mesh)["M_1"], u.boundary_values())))


def h1_bdry_semi(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(_ops(u.mesh)["A_b"], u.boundary_values())))


def v1_norm(u: NodalField) -> float:
    """Composite norm: bulk H1 seminorm + boundary H1 seminorm + boundary L2."""
    return math.sqrt(h1_bulk_semi(u) ** 2 + h1_bdry_semi(u) ** 2 + l2_bdry(u) ** 2)


def gagliardo_energy(u_bdry: np.ndarray, theta: np.ndarray) -> float:
    """Quadratic form of the nonlocal boundary operator; nonnegative."""
    u_bdry = np.asarray(u_bdry, dtype=float)
    if theta.shape != (len(u_bdry), len(u_bdry)):
        raise VenttselError("boundary vector and nonlocal matrix sizes differ")
    return float(u_bdry @ (theta @ u_bdry))


def friedrichs_ratio(u: NodalField) -> float:
    """||u||^2_L2(bulk) / (|u|^2_H1(bulk) + ||u||^2_L2(bdry)), a lower witness
    for the Friedrichs constant."""
    num = l2_bulk(u) ** 2
    den = h1_bulk_semi(u) ** 2 + l2_bdry(u) ** 2
    if num == 0.0 and den == 0.0:
        raise VenttselError("Friedrichs ratio undefined for the zero field")
    return num / den


# --- weighted integrals --------------------------------------------------------


def _corner_vertex_ids(polygon: Polygon, pts: np.ndarray, tol: float) -> np.ndarray:
    """Index of the polygon corner each point coincides with, else -1."""
    d = np.linalg.norm(pts[:, None, :] - polygon.vertices[None, :, :], axis=2)
    k = np.argmin(d, axis=1)
    k[d[np.arange(len(pts)), k] > tol] = -1
    return k


def _layered_triangle(corner, a1, a2, evaluate, polygon, sigma, layers, degree):
    """Integral of r^{2 sigma} * evaluate(p)^2 over triangle (corner, corner+a1,
    corner+a2) with dyadic layers toward the corner and an analytic tail."""
    lam, wq = tri_rule(degree)
    total = 0.0
    layer0_weight = 0.0
    for k in range(layers):
        hi, lo = 0.5**k, 0.5 ** (k + 1)
        tris = np.array(
            [
                [corner + lo * a1, corner + hi * a1, corner + hi * a2],
                [corner + lo * a1, corner + hi * a2, corner + lo * a2],
            ]
        )
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        pts = np.einsum("kl,tld->tkd", lam, tris).reshape(-1, 2)
        w = (areas[:, None] * wq[None, :]).ravel()
        rw = dist_to_vertices(polygon, pts) ** (2.0 * sigma)
        total += float(np.sum(w * rw * evaluate(pts) ** 2))
        if k == 0:
            layer0_weight = float(np.sum(w * rw))
    rho = 2.0 ** (-(2.0 + 2.0 * sigma))
    vc = float(evaluate(corner[None, :])[0])
    total += vc**2 * layer0_weight * rho**layers / (1.0 - rho)
    return total


def _field_evaluator_on_element(mesh: Mesh, values: np.ndarray, t: int):
    """Affine evaluator of a P1 field restricted to element t (valid inside)."""
    g = _p1_gradients(mesh)[t]
    tri = mesh.triangles[t]
    v0 = mesh.nodes[tri[0]]
    grad = values[tri] @ g
    c0 = values[tri[0]]

    def ev(pts):
        return c0 + (np.atleast_2d(pts) - v0) @ grad

    return ev


def weighted_l2(
    target,
    sigma: float,
    region: str = "bulk",
    *,
    mesh: Mesh | None = None,
    polygon: Polygon | None = None,
    degree: int = 6,
    layers: int = 3,
    boundary_order: int = 8,
) -> float:
    """Weighted L2 norm ( integral of r^{2 sigma} value^2 )^(1/2).

    region is "bulk", where target is a NodalField or a callable (then a mesh
    is needed), or "boundary", where target must be a callable, integrated
    side by side with corner-graded panels. Integrability demands sigma > -1
    in the bulk and sigma > -1/2 on the boundary.
    """
    if isinstance(target, NodalField):
        mesh = target.mesh
    if mesh is not None and polygon is None:
        polygon = mesh.polygon
    if polygon is None:
        raise VenttselError("weighted_l2 needs a mesh or a polygon")

    if region == "bulk":
        if sigma <= -1.0:
            raise VenttselError(f"sigma={sigma} <= -1: r^(2 sigma) not integrable in 2D")
        if mesh is None:
            raise VenttselError("bulk weighted norm needs a mesh to integrate on")
        values = target.values if isinstance(target, NodalField) else None
        func = None if values is not None else target
        lam, wq = tri_rule(degree)
        pts = np.einsum("kl,tld->tkd", lam, mesh.tri_verts)
        flat = pts.reshape(-1, 2)
        if values is not None:
            vals = np.einsum("kl,tl->tk", lam, values[mesh.triangles])
        else:
            vals = np.asarray(func(flat), dtype=float).reshape(pts.shape[:2])
        w = mesh.areas[:, None] * wq[None, :]
        if sigma == 0.0:
            return math.sqrt(max(0.0, float(np.sum(w * vals**2))))
        rw = dist_to_vertices(polygon, flat).reshape(pts.shape[:2]) ** (2.0 * sigma)
        tol = 1e-12 * max(1.0, polygon.perimeter)
        corner_of = _corner_vertex_ids(polygon, mesh.nodes, tol)
        tri_corner_vertex = corner_of[mesh.triangles]  # (T, 3)
        is_corner_elem = (tri_corner_vertex >= 0).any(axis=1)
        # elements near (but not touching) a corner see an r^{2 sigma} weight
        # with unbounded derivatives: use a denser collapsed rule there
        cent = mesh.tri_verts.mean(axis=1)
        near = (~is_corner_elem) & (
            dist_to_vertices(polygon, cent) <= 3.0 * mesh.diameters()
        )
        far = ~is_corner_elem & ~near
        total = float(np.sum(w[far] * rw[far] * vals[far] ** 2))
        if near.any():
            lam_hi, wq_hi = tri_rule(13)
            pts_hi = np.einsum("kl,tld->tkd", lam_hi, mesh.tri_verts[near])
            w_hi = mesh.areas[near][:, None] * wq_hi[None, :]
            rw_hi = dist_to_vertices(polygon, pts_hi.reshape(-1, 2)).reshape(
                pts_hi.shape[:2]
            ) ** (2.0 * sigma)
            if values is not None:
                vals_hi = np.einsum("kl,tl->tk", lam_hi, values[mesh.triangles[near]])
            else:
                vals_hi = np.asarray(func(pts_hi.reshape(-1, 2)), dtype=float).reshape(
                    pts_hi.shape[:2]
                )
            total += float(np.sum(w_hi * rw_hi * vals_hi**2))
        for t in np.nonzero(is_corner_elem)[0]:
            loc = int(np.argmax(tri_corner_vertex[t] >= 0))
            tri = mesh.triangles[t]
            corner = mesh.nodes[tri[loc]]
            others = [tri[(loc + 1) % 3], tri[(loc + 2) % 3]]
            a1 = mesh.nodes[others[0]] - corner
            a2 = mesh.nodes[others[1]] - corner
            ev = (
                _field_evaluator_on_element(mesh, values, t)
                if values is not None
                else func
            )
            total += _layered_triangle(corner, a1, a2, ev, polygon, sigma, layers, degree)
        return math.sqrt(max(0.0, total))

    if region == "boundary":
        if sigma <= -0.5:
            raise VenttselError(f"sigma={sigma} <= -1/2: r^(2 sigma) not integrable on a curve")
        if isinstance(target, NodalField):
            raise VenttselError("boundary weighted norm needs a callable target, not a NodalField")
        return math.sqrt(
            max(0.0, _boundary_weighted_callable(target, polygon, sigma, boundary_order))
        )

    raise VenttselError(f"unknown region {region!r}")


def _boundary_weighted_callable(func, polygon, sigma, order, n_layers: int = 40):
    total = 0.0
    x, w = gauss01(order)
    for side in range(polygon.n_sides):
        L = polygon.side_lengths[side]
        brk = np.union1d(
            graded_breakpoints(0.0, L, 0.0, n_layers),
            graded_breakpoints(0.0, L, L, n_layers),
        )
        for a, b in zip(brk[:-1], brk[1:]):
            ts = a + (b - a) * x
            pts = polygon.boundary_point(side, ts)
            rw = dist_to_vertices(polygon, pts) ** (2.0 * sigma) if sigma != 0.0 else 1.0
            total += float(np.sum((b - a) * w * rw * np.asarray(func(pts)) ** 2))
        # analytic tails over the innermost uncovered pieces at both corners
        eps = L * 0.5**n_layers
        for t_end in (0.0, L):
            vc = float(np.asarray(func(polygon.boundary_point(side, np.array([t_end]))))[0])
            total += vc**2 * eps ** (1.0 + 2.0 * sigma) / (1.0 + 2.0 * sigma)
    return total


# --- discrete regularity diagnostics ------------------------------------------


def boundary_h2_diagnostic(u_bdry: np.ndarray, bm: BoundaryMesh) -> float:
    """Square root of the summed per-side second-divided-difference energy.

    Sides are differenced independently (never across a corner); a side with
    fewer than 3 boundary nodes contributes zero and emits a warning. Exact for
    per-side quadratics on uniform spacing.
    """
    u_bdry = np.asarray(u_bdry, dtype=float)
    S = bm.n_segments
    total = 0.0
    # contiguous runs of equal side id in cyclic order
    sides = bm.side_ids
    starts = np.nonzero(sides != np.roll(sides, 1))[0]
    if len(starts) == 0:
        starts = np.array([0])
    for run, k0 in enumerate(starts):
        k1 = starts[(run + 1) % len(starts)]
        n_seg = (k1 - k0) % S or S
        seg_ids = [(k0 + i) % S for i in range(n_seg)]
        t = np.concatenate([[0.0], np.cumsum(bm.lengths[seg_ids])])
        v = u_bdry[[(k0 + i) % S for i in range(n_seg + 1)]]
        m = len(t) - 1
        if m < 2:
            warnings.warn(
                f"boundary side run starting at segment {k0} has fewer than 3 nodes; "
                "it contributes 0 to the H2 diagnostic",
                stacklevel=2,
            )
            continue
        h = np.diff(t)
        hk, hk1 = h[:-1], h[1:]
        d2 = 2.0 * (
            v[:-2] / (hk * (hk + hk1))
            - v[1:-1] / (hk * hk1)
            + v[2:] / (hk1 * (hk + hk1))
        )
        wgt = 0.5 * (hk + hk1)
        wgt[0] += 0.5 * h[0]
        wgt[-1] += 0.5 * h[-1]
        total += float(np.sum(d2**2 * wgt))
    return math.sqrt(max(0.0, total))


def recovered_hessian(u: NodalField) -> np.ndarray:
    """(T, 2, 2) elementwise Hessian of the area-weighted recovered gradient."""
    mesh = u.mesh
    g = _p1_gradients(mesh)
    grad_elem = np.einsum("tid,ti->td", g, u.values[mesh.triangles])
    num = np.zeros((mesh.n_nodes, 2))
    den = np.zeros(mesh.n_nodes)
    np.add.at(num, mesh.triangles.ravel(), np.repeat(mesh.areas[:, None] * grad_elem, 3, axis=0).reshape(-1, 2))
    np.add.at(den, mesh.triangles.ravel(), np.repeat(mesh.areas, 3))
    nodal_grad = num / den[:, None]
    return np.einsum("tid,tic->tdc", g, nodal_grad[mesh.triangles])


def weighted_hessian_diagnostic(u: NodalField, sigma: float, *, layers: int = 3, degree: int = 6) -> float:
    """Recovered-Hessian surrogate of the weighted second-derivative norm.

    This is a diagnostic observable (the exact elementwise Hessian of a P1
    field vanishes), not a convergent norm estimator.
    """
    mesh = u.mesh
    H = recovered_hessian(u)
    frob2 = np.einsum("tdc,tdc->t", H, H)
    if sigma <= -1.0:
        raise VenttselError(f"sigma={sigma} <= -1: weight not integrable")
    if sigma == 0.0:
        return math.sqrt(max(0.0, float(np.sum(mesh.areas * frob2))))
    polygon = mesh.polygon
    lam, wq = tri_rule(degree)
    pts = np.einsum("kl,tld->tkd", lam, mesh.tri_verts)
    rw = dist_to_vertices(polygon, pts.reshape(-1, 2)).reshape(pts.shape[:2]) ** (2.0 * sigma)
    w = mesh.areas[:, None] * wq[None, :]
    tol = 1e-12 * max(1.0, polygon.perimeter)
    corner_of = _corner_vertex_ids(polygon, mesh.nodes, tol)
    tri_corner_vertex = corner_of[mesh.triangles]
    is_corner = (tri_corner_vertex >= 0).any(axis=1)
    total = float(np.sum((w * rw)[~is_corner] * frob2[~is_corner, None]))
    for t in np.nonzero(is_corner)[0]:
        loc = int(np.argmax(tri_corner_vertex[t] >= 0))
        tri = mesh.triangles[t]
        corner = mesh.nodes[tri[loc]]
        a1 = mesh.nodes[tri[(loc + 1) % 3]] - corner
        a2 = mesh.nodes[tri[(loc + 2) % 3]] - corner
        c = math.sqrt(frob2[t])
        total += _layered_triangle(
            corner, a1, a2, lambda p, c=c: np.full(len(np.atleast_2d(p)), c), polygon, sigma, layers, degree
        )
    return math.sqrt(max(0.0, total))


# --- report --------------------------------------------------------------------

NORM_CSV_HEADER = (
    "l2_bulk,h1_bulk_semi,l2_bdry,h1_bdry_semi,v1,gagliardo_s,"
    "bdry_h2_diag,weighted_l2_sigma,weighted_hess_diag"
)


@dataclass(eq=False)
class NormReport:
    """All norm observables of one field; unavailable entries are NaN."""

    l2_bulk: float
    h1_bulk_semi: float
    l2_bdry: float
    h1_bdry_semi: float
    v1: float
    gagliardo_s: float = math.nan
    bdry_h2_diag: float = math.nan
    weighted_l2_sigma: float = math.nan
    weighted_hess_diag: float = math.nan

    def csv_row(self) -> str:
        vals = [
            self.l2_bulk,
            self.h1_bulk_semi,
            self.l2_bdry,
            self.h1_bdry_semi,
            self.v1,
            self.gagliardo_s,
            self.bdry_h2_diag,
            self.weighted_l2_sigma,
            self.weighted_hess_diag,
        ]
        return ",".join("" if math.isnan(v) else repr(float(v)) for v in vals)


def norm_report(u: NodalField, *, theta: np.ndarray | None = None, sigma: float | None = None) -> NormReport:
    """Assemble every norm observable for one field."""
    rep = NormReport(
        l2_bulk=l2_bulk(u),
        h1_bulk_semi=h1_bulk_semi(u),
        l2_bdry=l2_bdry(u),
        h1_bdry_semi=h1_bdry_semi(u),
        v1=v1_norm(u),
        bdry_h2_diag=boundary_h2_diagnostic(u.boundary_values(), u.mesh.boundary),
    )
    if theta is not None:
        rep.gagliardo_s = gagliardo_energy(u.boundary_values(), theta)
    if sigma is not None:
        rep.weighted_l2_sigma = weighted_l2(u, sigma, "bulk")
        rep.weighted_hess_diag = weighted_hessian_diagnostic(u, sigma)
    return rep

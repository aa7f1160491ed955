"""Norms and functionals used by the estimates: the composite V1 norm, weighted
corner norms, the nonlocal boundary energy, a per-side discrete boundary-H2
diagnostic, and the Friedrichs ratio.

Bulk weighted integrals r^{2*sigma} * value^2 use one rule per (mesh, sigma),
cached on the mesh and shared by weighted_l2 and the weighted Hessian
diagnostic. It has three element groups: degree-6 Gauss away from the corners,
degree 13 within three diameters of a corner, and on elements touching a
corner three dyadic radial layers plus one corner point that carries the
analytic geometric-series tail (the layers are self-similar, so the remaining
core integrates in closed form with the value frozen at the corner).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .assembly import (
    NodalField,
    boundary_mass,
    boundary_stiffness,
    bulk_stiffness,
    _p1_gradients,
)
from .errors import VenttselError
from .geometry import dist_to_vertices
from .meshing import BoundaryMesh, Mesh, _edge_lengths
from .quadrature import tri_points_weights, tri_rule

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


def _unit_boundary_mass(bm: BoundaryMesh):
    """boundary_mass(bm, 1.0), the boundary L2 Gram matrix; built once per
    boundary mesh and cached, like the two stiffness matrices."""
    if "unit_mass" not in bm._cache:
        bm._cache["unit_mass"] = boundary_mass(bm, 1.0)
    return bm._cache["unit_mass"]


def _quad_form(mat, v):
    return float(v @ (mat @ v))


def l2_bulk(u: NodalField) -> float:
    """Bulk L2 norm of the P1 field: on each triangle u^T M_T u is
    |T|/12 (sum u_i^2 + (sum u_i)^2), summed over the mesh's triangle chunks."""
    mesh = u.mesh
    total = 0.0
    for t in mesh.triangle_chunks():
        vals = u.values[mesh.triangles[t]]
        total += float(mesh.areas[t] @ (np.einsum("ti,ti->t", vals, vals) + vals.sum(axis=1) ** 2)) / 12.0
    return math.sqrt(max(0.0, total))


def h1_bulk_semi(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(bulk_stiffness(u.mesh), u.values)))


def l2_bdry(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(_unit_boundary_mass(u.mesh.boundary), u.boundary_values())))


def h1_bdry_semi(u: NodalField) -> float:
    return math.sqrt(max(0.0, _quad_form(boundary_stiffness(u.mesh.boundary), u.boundary_values())))


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

_DEGREE = 6  # Gauss degree away from the corners
_NEAR_DEGREE = 13  # r^{2 sigma} has unbounded derivatives near a corner
_LAYERS = 3  # dyadic layers toward the corner of a corner element


@dataclass(frozen=True, eq=False)
class _RuleGroup:
    """Elements that share one barycentric rule within a weighted rule."""

    elems: np.ndarray  # (E,) element ids
    tris: np.ndarray  # (E, 3) node triples the barycentric points refer to
    lam: np.ndarray  # (K, 3) barycentric points
    w: np.ndarray  # (E, K) quadrature weights times r^{2 sigma}


def _weighted_rule(mesh: Mesh, sigma: float) -> list[_RuleGroup]:
    """Cached rule for integrals of r^{2 sigma} times an elementwise value.

    sigma = 0 gives the plain degree-6 rule. Otherwise far elements use degree
    6 and elements within three diameters of a corner degree 13. An element
    touching a corner, listed corner first, gets _LAYERS dyadic layers toward
    the corner plus one point at the corner for the analytic tail: the layers
    are self-similar, so the remaining core is layer 0 times the geometric
    series rho^L / (1 - rho), with the value frozen at the corner. Each of the
    mesh's triangle chunks adds its own groups, so every group, and every
    temporary a norm builds from one, is chunk-sized.
    """
    key = ("weighted_rule", sigma)
    if key in mesh._cache:
        return mesh._cache[key]
    polygon = mesh.polygon
    corner_nodes = mesh.boundary.boundary_nodes[mesh.boundary.corner_nodes]

    def weighted(pts, w):
        return w * dist_to_vertices(polygon, pts.reshape(-1, 2)).reshape(w.shape) ** (2.0 * sigma)

    def group(elems, degree):
        pts, w = tri_points_weights(mesh.tri_verts[elems], degree)
        if sigma != 0.0:
            w = weighted(pts, w)
        return _RuleGroup(elems, mesh.triangles[elems], tri_rule(degree)[0], w)

    # a corner element is (c, c + a1, c + a2); layer k is cut into two triangles,
    # given by their (a1, a2) coefficients, between 2^-(k+1) and 2^-k
    ab = []
    for k in range(_LAYERS):
        hi, lo = 0.5**k, 0.5 ** (k + 1)
        ab += [[[lo, 0.0], [hi, 0.0], [0.0, hi]], [[lo, 0.0], [0.0, hi], [0.0, lo]]]
    ab = np.array(ab)
    rho = 2.0 ** (-(2.0 + 2.0 * sigma))
    bary = np.concatenate([1.0 - ab.sum(axis=2, keepdims=True), ab], axis=2)
    lam = np.vstack([np.einsum("kl,jlm->jkm", tri_rule(_DEGREE)[0], bary).reshape(-1, 3), [1.0, 0.0, 0.0]])

    def corner_group(ce, loc):
        tris = mesh.triangles[ce[:, None], (loc[:, None] + np.arange(3)) % 3]
        c = mesh.nodes[tris[:, 0]]
        sub = c[:, None, None, :] + np.einsum("jvc,ecd->ejvd", ab, mesh.nodes[tris[:, 1:]] - c[:, None, :])
        pts, w = tri_points_weights(sub.reshape(-1, 3, 2), _DEGREE)
        w = weighted(pts, w).reshape(len(ce), len(ab) * pts.shape[1])
        tail = w[:, : 2 * pts.shape[1]].sum(axis=1) * rho**_LAYERS / (1.0 - rho)
        return _RuleGroup(ce, tris, lam, np.column_stack([w, tail]))

    rule = []
    all_elems = np.arange(mesh.n_triangles)
    for t in mesh.triangle_chunks():
        elems = all_elems[t]
        if sigma == 0.0:
            rule.append(group(elems, _DEGREE))
            continue
        verts = mesh.tri_verts[t]
        at_corner = np.isin(mesh.triangles[t], corner_nodes)
        corner = at_corner.any(axis=1)
        near = ~corner & (dist_to_vertices(polygon, verts.mean(axis=1)) <= 3.0 * _edge_lengths(verts).max(axis=1))
        rule += [
            group(elems[~corner & ~near], _DEGREE),
            group(elems[near], _NEAR_DEGREE),
            corner_group(elems[corner], np.argmax(at_corner[corner], axis=1)),
        ]
    mesh._cache[key] = rule
    return rule


def weighted_l2(u: NodalField, sigma: float) -> float:
    """Bulk weighted L2 norm ( integral of r^{2 sigma} u^2 )^(1/2) of a P1
    field, integrated with the mesh's cached weighted rule; integrability
    demands sigma > -1."""
    if sigma <= -1.0:
        raise VenttselError(f"sigma={sigma} <= -1: r^(2 sigma) not integrable in 2D")
    if not isinstance(u, NodalField):
        raise VenttselError("bulk weighted norm needs a NodalField")
    total = sum(
        float(np.sum(g.w * np.einsum("kl,tl->tk", g.lam, u.values[g.tris]) ** 2))
        for g in _weighted_rule(u.mesh, sigma)
    )
    return math.sqrt(max(0.0, total))


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
    # side j runs from corner node j to corner node j + 1 in cyclic order
    starts = bm.corner_nodes
    for j, k0 in enumerate(starts):
        n_seg = (starts[(j + 1) % len(starts)] - k0) % S
        if n_seg < 2:
            warnings.warn(
                f"boundary side {j} has fewer than 3 nodes; it contributes 0 to the H2 diagnostic",
                stacklevel=2,
            )
            continue
        nodes = (k0 + np.arange(n_seg + 1)) % S
        t = np.concatenate([[0.0], np.cumsum(bm.lengths[nodes[:-1]])])
        v = u_bdry[nodes]
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


def _recovered_hessian_chunks(u: NodalField):
    """(slice, (t, 2, 2) Hessian) per triangle chunk: the elementwise Hessian of
    the area-weighted recovered gradient. The nodal sums add the chunks in
    triangle order, so each node gets its adds in the same order as one
    whole-mesh pass."""
    mesh = u.mesh
    g = _p1_gradients(mesh)
    num = np.zeros((mesh.n_nodes, 2))
    den = np.zeros(mesh.n_nodes)
    chunks = mesh.triangle_chunks()
    for t in chunks:
        tri = mesh.triangles[t]
        grad_elem = np.einsum("tid,ti->td", g[t], u.values[tri])
        np.add.at(num, tri.ravel(), np.repeat(mesh.areas[t, None] * grad_elem, 3, axis=0).reshape(-1, 2))
        np.add.at(den, tri.ravel(), np.repeat(mesh.areas[t], 3))
    num /= den[:, None]
    for t in chunks:
        yield t, np.einsum("tid,tic->tdc", g[t], num[mesh.triangles[t]])


def recovered_hessian(u: NodalField) -> np.ndarray:
    """(T, 2, 2) elementwise Hessian of the area-weighted recovered gradient."""
    return np.concatenate([H for _, H in _recovered_hessian_chunks(u)])


def weighted_hessian_diagnostic(u: NodalField, sigma: float) -> float:
    """Recovered-Hessian surrogate of the weighted second-derivative norm.

    This is a diagnostic observable (the exact elementwise Hessian of a P1
    field vanishes), not a convergent norm estimator. The Hessian is built
    per triangle chunk and kept only as its squared Frobenius norm.
    """
    if sigma <= -1.0:
        raise VenttselError(f"sigma={sigma} <= -1: weight not integrable")
    frob2 = np.empty(u.mesh.n_triangles)
    for t, H in _recovered_hessian_chunks(u):
        frob2[t] = np.einsum("tdc,tdc->t", H, H)
    total = sum(
        float(np.sum(g.w * frob2[g.elems, None])) for g in _weighted_rule(u.mesh, sigma)
    )
    return math.sqrt(max(0.0, total))


# --- report --------------------------------------------------------------------


@dataclass(eq=False)
class NormReport:
    """All norm observables of one field, in the norms.csv column order."""

    l2_bulk: float
    h1_bulk_semi: float
    l2_bdry: float
    h1_bdry_semi: float
    v1: float
    gagliardo_s: float
    bdry_h2_diag: float
    weighted_l2_sigma: float
    weighted_hess_diag: float

    def csv_row(self) -> str:
        return ",".join(repr(float(v)) for v in astuple(self))


NORM_CSV_HEADER = ",".join(f.name for f in fields(NormReport))


def norm_report(u: NodalField, theta: np.ndarray, sigma: float) -> NormReport:
    """Every norm observable of one field; v1 is composed from the three
    parts computed here, the same floats v1_norm(u) combines."""
    h1_bulk, h1_bdry, l2_b = h1_bulk_semi(u), h1_bdry_semi(u), l2_bdry(u)
    return NormReport(
        l2_bulk=l2_bulk(u),
        h1_bulk_semi=h1_bulk,
        l2_bdry=l2_b,
        h1_bdry_semi=h1_bdry,
        v1=math.sqrt(h1_bulk**2 + h1_bdry**2 + l2_b**2),
        gagliardo_s=gagliardo_energy(u.boundary_values(), theta),
        bdry_h2_diag=boundary_h2_diagnostic(u.boundary_values(), u.mesh.boundary),
        weighted_l2_sigma=weighted_l2(u, sigma),
        weighted_hess_diag=weighted_hessian_diagnostic(u, sigma),
    )

"""Corner singular functions r^{pi/alpha} sin(pi omega / alpha) with a smooth
cutoff, least-squares extraction of their coefficients from a solved field, and
the singular-plus-smooth decomposition on non-convex polygons.

The angular coordinate omega is measured from the boundary edge preceding the
corner in counterclockwise order and increases into the domain, so for a simple
CCW polygon omega sweeps clockwise in the plane from that edge; the singular
function vanishes on both edges of the corner wedge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import NodalField
from .errors import GeometryError, SingularFitError
from .geometry import Polygon

__all__ = [
    "SingularTerm",
    "Decomposition",
    "make_singular_term",
    "singular_value",
    "fit_coefficient",
    "decompose",
]

_WEDGE_TOL = 1e-9


@dataclass(eq=False)
class SingularTerm:
    """One corner singular function chi(r) * r^lambda * sin(lambda * omega).

    corner_index : polygon vertex index j (interior angle must exceed pi)
    alpha        : opening of the corner
    exponent     : lambda = pi / alpha, in (1/2, 1) for reentrant corners
    corner       : corner coordinates
    edge_dir     : unit vector along the preceding edge, pointing away from the
                   corner (omega = 0 direction)
    cutoff_radius: support radius of the cutoff chi
    coefficient  : fitted coefficient (None until set)
    """

    corner_index: int
    alpha: float
    exponent: float
    corner: np.ndarray
    edge_dir: np.ndarray
    cutoff_radius: float
    coefficient: float | None = None


@dataclass(eq=False)
class Decomposition:
    """Solution split u = sum_j c_j chi s_j + w with the nodal remainder w."""

    terms: list
    regular_part: NodalField

    def summary(self) -> list[dict]:
        """Per-corner records {j, alpha, lambda, c} (the JSON wire schema)."""
        return [
            {
                "j": int(t.corner_index),
                "alpha": float(t.alpha),
                "lambda": float(t.exponent),
                "c": float(t.coefficient),
            }
            for t in self.terms
        ]


def make_singular_term(polygon: Polygon, corner_index: int) -> SingularTerm:
    """Build the singular term of one reentrant corner.

    The cutoff radius is a third of the shorter edge adjacent to the corner,
    keeping the supports of distinct corners disjoint.
    """
    alpha = float(polygon.angles[corner_index])
    if alpha <= math.pi:
        raise GeometryError(
            f"corner {corner_index} has opening {alpha:.4f} <= pi: no singular term"
        )
    n = polygon.n_vertices
    corner = polygon.vertices[corner_index]
    prev_vertex = polygon.vertices[(corner_index - 1) % n]
    next_vertex = polygon.vertices[(corner_index + 1) % n]
    edge_dir = prev_vertex - corner
    edge_dir = edge_dir / np.linalg.norm(edge_dir)
    cutoff_radius = min(np.linalg.norm(prev_vertex - corner), np.linalg.norm(next_vertex - corner)) / 3.0
    return SingularTerm(
        corner_index=corner_index,
        alpha=alpha,
        exponent=math.pi / alpha,
        corner=np.asarray(corner, dtype=float),
        edge_dir=edge_dir,
        cutoff_radius=float(cutoff_radius),
    )


def _cutoff(r: np.ndarray, rho: float) -> np.ndarray:
    """Quintic-smoothstep C2 bump: 1 on [0, rho/2], 0 beyond rho."""
    t = np.clip((r - 0.5 * rho) / (0.5 * rho), 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def local_polar(term: SingularTerm, pts: np.ndarray):
    """(r, omega) with omega measured clockwise from the preceding edge."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts - term.corner
    r = np.linalg.norm(d, axis=1)
    theta0 = math.atan2(term.edge_dir[1], term.edge_dir[0])
    theta = np.arctan2(d[:, 1], d[:, 0])
    omega = np.mod(theta0 - theta, 2.0 * math.pi)
    return r, omega


def singular_value(term: SingularTerm, pts: np.ndarray) -> np.ndarray:
    """chi(r) * r^lambda * sin(lambda omega) at points of the closed domain.

    Points inside the cutoff support but outside the corner wedge are outside
    the domain and rejected.
    """
    pts2 = np.atleast_2d(np.asarray(pts, dtype=float))
    r, omega = local_polar(term, pts2)
    lam = term.exponent
    inside_support = r < term.cutoff_radius
    bad = inside_support & (r > 0) & (omega > term.alpha + _WEDGE_TOL)
    if np.any(bad):
        raise GeometryError(
            f"{int(bad.sum())} points lie outside the domain wedge of corner "
            f"{term.corner_index}"
        )
    out = np.zeros(len(pts2))
    m = inside_support & (r > 0)
    out[m] = _cutoff(r[m], term.cutoff_radius) * r[m] ** lam * np.sin(lam * np.minimum(omega[m], term.alpha))
    if np.asarray(pts).ndim == 1:
        return float(out[0])
    return out


def fit_coefficient(u: NodalField, term: SingularTerm) -> float:
    """Least-squares coefficient of the singular function in a nodal field.

    Mesh nodes in the annulus [rho/8, rho/2] around the corner (where the
    cutoff is identically 1) are fitted against the singular function plus an
    affine background; fewer than 12 nodes is rejected as under-resolved.
    """
    r, omega = local_polar(term, u.mesh.nodes)
    rho = term.cutoff_radius
    mask = (r >= rho / 8.0) & (r <= rho / 2.0) & (omega <= term.alpha + _WEDGE_TOL)
    if int(mask.sum()) < 12:
        raise SingularFitError(
            f"only {int(mask.sum())} mesh nodes in the fit annulus of corner "
            f"{term.corner_index}; refine the mesh"
        )
    lam = term.exponent
    rr, ww = r[mask], np.minimum(omega[mask], term.alpha)
    basis = np.column_stack(
        [
            rr**lam * np.sin(lam * ww),
            np.ones(rr.shape),
            rr * np.cos(ww),
            rr * np.sin(ww),
        ]
    )
    coef, *_ = np.linalg.lstsq(basis, u.values[mask], rcond=None)
    return float(coef[0])


def decompose(u: NodalField) -> Decomposition:
    """Fit every reentrant corner's coefficient of u's polygon and split off
    the smooth part.

    The reconstruction u = sum c_j chi s_j + w holds exactly at the nodes by
    construction. Convex polygons yield an empty term list and w = u.
    """
    polygon = u.mesh.polygon
    terms = []
    w = u.values.copy()
    for j in polygon.reentrant_corners:
        term = make_singular_term(polygon, int(j))
        term.coefficient = fit_coefficient(u, term)
        w -= term.coefficient * singular_value(term, u.mesh.nodes)
        terms.append(term)
    return Decomposition(terms=terms, regular_part=NodalField(w, u.mesh))

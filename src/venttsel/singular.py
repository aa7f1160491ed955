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
from functools import cached_property

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

    polygon      : the polygon the corner belongs to
    corner_index : polygon vertex index j (interior angle must exceed pi)
    coefficient  : fitted coefficient (None until set)

    Derived from the corner and cached: its opening `alpha`, the `exponent`
    lambda = pi / alpha, in (1/2, 1) for reentrant corners, the `corner`
    coordinates, `edge_dir`, the unit vector along the preceding edge pointing
    away from the corner (omega = 0 direction), and `cutoff_radius`, the
    support radius of the cutoff chi: a third of the shorter edge adjacent to
    the corner, keeping the supports of distinct corners disjoint.
    """

    polygon: Polygon
    corner_index: int
    coefficient: float | None = None

    @cached_property
    def alpha(self) -> float:
        return float(self.polygon.angles[self.corner_index])

    @cached_property
    def exponent(self) -> float:
        return math.pi / self.alpha

    @cached_property
    def corner(self) -> np.ndarray:
        return np.asarray(self.polygon.vertices[self.corner_index], dtype=float)

    def _neighbour(self, step: int) -> np.ndarray:
        return self.polygon.vertices[(self.corner_index + step) % self.polygon.n_sides]

    @cached_property
    def edge_dir(self) -> np.ndarray:
        edge = self._neighbour(-1) - self.corner
        return edge / np.linalg.norm(edge)

    @cached_property
    def cutoff_radius(self) -> float:
        prev_len, next_len = (np.linalg.norm(self._neighbour(k) - self.corner) for k in (-1, 1))
        return float(min(prev_len, next_len) / 3.0)


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
    """The singular term of one reentrant corner; a corner with opening <= pi
    has none and raises."""
    term = SingularTerm(polygon, corner_index)
    if term.alpha <= math.pi:
        raise GeometryError(
            f"corner {corner_index} has opening {term.alpha:.4f} <= pi: no singular term"
        )
    return term


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

"""Quadrature rules and adaptive integrators.

Fixed rules: cached Gauss-Legendre and Gauss-Jacobi on [0, 1], two symmetric
triangle rules, and a Duffy (collapsed tensor) rule for smooth integrands.
Adaptive machinery: a 1D interval integrator with endpoint-singularity support
and a 2D rectangle integrator with point-singularity support, for scalar or
vector integrands; both estimate errors by comparing two Gauss orders and
subdivide until a global tolerance is met or a budget is exhausted.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import OracleError

__all__ = [
    "gauss01",
    "gauss_jacobi01",
    "gauss_interval",
    "tri_rule",
    "tri_points_weights",
    "duffy_triangle_rule",
    "adaptive_interval",
    "adaptive_rectangle",
    "graded_breakpoints",
]


@lru_cache(maxsize=None)
def gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def gauss_jacobi01(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi nodes/weights on [0, 1] for the weight x**alpha."""
    x, w = roots_jacobi(n, 0.0, alpha)
    return 0.5 * (x + 1.0), w * 0.5 ** (alpha + 1.0)


def gauss_interval(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss nodes and weights on [a, b]; for arrays of panel ends a
    and b, one row of n per panel, shape (..., n)."""
    x, w = gauss01(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    return a + (b - a) * x, (b - a) * w


# --- triangle rules (barycentric coordinates, weights summing to 1) ---------

_TRI_RULES = {
    # degree 2: edge midpoints
    2: (
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0,
    ),
    # degree 5: 7-point symmetric rule
    5: (
        np.array(
            [
                [1 / 3, 1 / 3, 1 / 3],
                [0.797426985353087, 0.101286507323456, 0.101286507323456],
                [0.101286507323456, 0.797426985353087, 0.101286507323456],
                [0.101286507323456, 0.101286507323456, 0.797426985353087],
                [0.059715871789770, 0.470142064105115, 0.470142064105115],
                [0.470142064105115, 0.059715871789770, 0.470142064105115],
                [0.470142064105115, 0.470142064105115, 0.059715871789770],
            ]
        ),
        np.array(
            [
                0.225,
                0.125939180544827,
                0.125939180544827,
                0.125939180544827,
                0.132394152788506,
                0.132394152788506,
                0.132394152788506,
            ]
        ),
    ),
}


def tri_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric triangle rule (barycentric points, unit-sum weights)."""
    if degree <= 2:
        return _TRI_RULES[2]
    if degree <= 5:
        return _TRI_RULES[5]
    return duffy_triangle_rule(max(4, (degree + 2) // 2))


@lru_cache(maxsize=None)
def duffy_triangle_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed n-x-n tensor Gauss rule on the reference triangle.

    Returned in barycentric form with weights summing to 1, so it plugs into
    the same mapping code as the symmetric rules.
    """
    x, wx = gauss01(n)
    u, v = np.meshgrid(x, x, indexing="ij")
    wu, wv = np.meshgrid(wx, wx, indexing="ij")
    # map unit square -> reference triangle (0,0),(1,0),(0,1)
    xi = u * (1.0 - v)
    eta = u * v
    w = (wu * wv * u).ravel()
    lam = np.column_stack([1.0 - xi.ravel() - eta.ravel(), xi.ravel(), eta.ravel()])
    return lam, 2.0 * w  # times 2: reference triangle has area 1/2


def tri_points_weights(verts: np.ndarray, degree: int = 2):
    """Physical quadrature points/weights for a batch of triangles.

    verts : (T, 3, 2) triangle vertex coordinates
    returns pts (T, k, 2) and weights (T, k) with weights summing to |K| per element.
    """
    lam, w = tri_rule(degree)
    verts = np.asarray(verts, dtype=float)
    pts = lam @ verts
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return pts, area[:, None] * w[None, :]


def graded_breakpoints(a: float, b: float, toward, n_layers: int) -> np.ndarray:
    """Dyadic breakpoints on [a, b] accumulating geometrically toward `toward`.

    `toward` is one endpoint or a sequence of endpoints (both for a side
    graded toward its two corners). Returns sorted breakpoints including both
    endpoints; the panel adjacent to each graded end has length
    (b-a)/2**n_layers.
    """
    offs = (b - a) * 0.5 ** np.arange(1, n_layers + 1)
    pts = [np.array([a, b], dtype=float)]
    for end in np.atleast_1d(toward):
        if end == a:
            pts.append(a + offs)
        elif end == b:
            pts.append(b - offs)
        else:
            raise ValueError("grade point must be an interval endpoint")
    return np.unique(np.concatenate(pts))


# --- adaptive 1D -------------------------------------------------------------

_MAX_PANELS = 4000  # panel splits before adaptive_interval gives up


def adaptive_interval(
    f,
    a: float,
    b: float,
    tol: float,
    *,
    singular_end: float | None = None,
    singular_power: float | None = None,
):
    """Adaptive Gauss quadrature of a vectorized f on [a, b].

    Error per panel is |G_16 - G_8|; panels split until the global sum meets
    tol (absolute). If `singular_end` is given, f may blow up like
    dist**singular_power (power > -1) at that endpoint: the panel touching it
    is bounded analytically instead of Gauss-estimated and shrinks until its
    bound is negligible.
    """
    if b <= a:
        return 0.0, 0.0

    def panel_vals(lo, hi):
        xl, wl = gauss_interval(lo, hi, 8)
        xh, wh = gauss_interval(lo, hi, 16)
        fl = f(xl)
        fh = f(xh)
        return float(fl @ wl), float(fh @ wh)

    sing = singular_end
    panels = []  # (err, lo, hi, value)

    def push(lo, hi):
        if sing is not None and (lo == sing or hi == sing):
            # the panel touching the singularity: fit f ~ c * dist**p at two
            # scales; exact for pure power laws, and the scale disagreement is
            # the error estimate driving further splits
            p = singular_power
            length = hi - lo
            d1, d2 = 0.75 * length, 0.375 * length
            x1 = sing + d1 if sing == lo else sing - d1
            x2 = sing + d2 if sing == lo else sing - d2
            c1 = float(np.asarray(f(np.array([x1])))[0]) / d1**p
            c2 = float(np.asarray(f(np.array([x2])))[0]) / d2**p
            est = c2 * length ** (1.0 + p) / (1.0 + p)
            err = abs(c1 - c2) * length ** (1.0 + p) / abs(1.0 + p) + 1e-300
            panels.append([err, lo, hi, est])
        else:
            v_lo, v_hi = panel_vals(lo, hi)
            panels.append([abs(v_hi - v_lo), lo, hi, v_hi])

    push(a, b)
    for _ in range(_MAX_PANELS):
        total_err = sum(p[0] for p in panels)
        if total_err <= tol:
            break
        panels.sort(key=lambda p: -p[0])
        err, lo, hi, val = panels.pop(0)
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * max(abs(a), abs(b), 1.0):
            panels.append([0.0, lo, hi, val])
            continue
        push(lo, mid)
        push(mid, hi)
    else:
        raise OracleError(f"1D adaptive quadrature did not reach tol={tol} within budget")
    value = sum(p[3] for p in panels)
    return value, sum(p[0] for p in panels)


# --- adaptive 2D -------------------------------------------------------------

_MAX_CELLS = 60000  # cells made before adaptive_rectangle gives up


def _tensor_gauss_rect(f, x0, x1, y0, y1, n):
    xs, wx = gauss_interval(x0, x1, n)
    ys, wy = gauss_interval(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(f(X.ravel(), Y.ravel()))
    out = wx @ vals.reshape(vals.shape[:-1] + (n, n)) @ wy
    return float(out) if out.ndim == 0 else out


def adaptive_rectangle(
    f,
    rect,
    tol: float,
    *,
    singular_points=(),
    singular_power: float | None = None,
    singular_scale: float = 1.0,
):
    """Adaptive tensor-Gauss quadrature of vectorized f(x, y) over a rectangle.

    f returns P values for P points, or a (k, P) array of k components, which
    share one subdivision (a scalar f gives a float, a vector f k values).
    Error per cell is the largest difference of the 8 x 8 and 4 x 4 tensor
    rules over the components. Cells touching one of the `singular_points`
    are never Gauss-estimated; their contribution is bounded by
    singular_scale * diam**(2 + power) (suitable for |f| <= C * dist**power
    with power > -2) and they subdivide until the bound is negligible. Raises
    OracleError when more than _MAX_CELLS cells are made before the global
    error estimate drops below tol.
    """
    x0, x1, y0, y1 = rect
    spts = [np.asarray(p, dtype=float) for p in singular_points]

    def touches(cell):
        cx0, cx1, cy0, cy1 = cell
        eps = 1e-13 * max(x1 - x0, y1 - y0, 1.0)
        for p in spts:
            if cx0 - eps <= p[0] <= cx1 + eps and cy0 - eps <= p[1] <= cy1 + eps:
                return True
        return False

    def make(cell):
        cx0, cx1, cy0, cy1 = cell
        if touches(cell):
            diam = np.hypot(cx1 - cx0, cy1 - cy0)
            bound = singular_scale * diam ** (2.0 + singular_power)
            return [bound, cell, 0.0, True]
        lo = _tensor_gauss_rect(f, cx0, cx1, cy0, cy1, 4)
        hi = _tensor_gauss_rect(f, cx0, cx1, cy0, cy1, 8)
        return [float(np.max(np.abs(hi - lo))), cell, hi, False]

    cells = [make((x0, x1, y0, y1))]
    n_made = 1
    while True:
        total_err = sum(c[0] for c in cells)
        if total_err <= tol:
            break
        if n_made > _MAX_CELLS:
            raise OracleError(
                f"2D adaptive quadrature exceeded the {_MAX_CELLS}-cell budget at tol={tol}"
            )
        cells.sort(key=lambda c: -c[0])
        _, (cx0, cx1, cy0, cy1), _, _ = cells.pop(0)
        mx, my = 0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)
        for sub in (
            (cx0, mx, cy0, my),
            (mx, cx1, cy0, my),
            (cx0, mx, my, cy1),
            (mx, cx1, my, cy1),
        ):
            cells.append(make(sub))
            n_made += 1
    return sum(c[2] for c in cells), sum(c[0] for c in cells)

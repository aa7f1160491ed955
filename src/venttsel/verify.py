"""Verification machinery: reference-quadrature oracles for the nonlocal
operator, manufactured problems with both boundary-data routes, and
convergence studies with rate estimation.

Oracle independence: the entry oracle integrates the raw double integrals with
generic adaptive quadrature (1D for the reduced identical-segment form, a
vector 2D quadtree over each pair's hat products, refined toward shared
corners, otherwise) and shares no formula with the assembly path it checks.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .analysis import boundary_h2_diagnostic
from .assembly import (
    NodalField,
    ProblemSpec,
    _far_blocks,
    _p1_gradients,
    _separated_chunks,
    _separated_kernel,
    _separated_pairs,
    assemble_system,
    check_theta_orders,
    nonlocal_matrix,
)
from .errors import OracleError, VenttselError
from .geometry import Polygon, build_polygon
from .meshing import BoundaryMesh, Mesh, refine, triangulate
from .quadrature import (
    adaptive_interval,
    adaptive_rectangle,
    gauss01,
    gauss_interval,
    graded_breakpoints,
    tri_points_weights,
    tri_rule,
)
from .solver import solve, stability_ratio
from .transfer import _evaluate_by_centroid, boundary_interp

__all__ = [
    "theta_pointwise_oracle",
    "theta_entry_oracle",
    "operator_laws",
    "ManufacturedProblem",
    "make_manufactured",
    "BenchmarkProblem",
    "lshape_benchmark",
    "pointwise_load_table",
    "energy_load_table",
    "ConvergenceTable",
    "convergence_study",
    "rate_estimate",
    "random_smooth_fields",
    "CONVERGENCE_CSV_HEADER",
]

log = logging.getLogger("venttsel")


# --- pointwise oracle -----------------------------------------------------------

# (order, layers) of the pointwise oracle's first pass and of its retry
_ORACLE_STAGES = ((16, 44), (24, 52))
# Elements (rows x Gauss nodes) per chunk of one panel layout's rows: the
# largest temporaries of a pass (4 rows x 2,496 nodes at the retry's deepest
# layout) stay near 80 KB, within a core's L2 cache
_ORACLE_CHUNK = 4 * 2496


def _numeric_tangential_derivative(trace, polygon, side, t):
    """Fourth-order differences of the trace along each point's side, with
    step 1e-5 of the side length; the stencil is shifted inward near a corner."""
    L = polygon.side_lengths[side]
    h = 1e-5 * L
    center = np.where(np.minimum(t, L - t) < 2 * h, np.clip(t, 2 * h, L - 2 * h), t)
    ts = center[:, None] + h[:, None] * np.array([-2.0, -1.0, 1.0, 2.0])
    y = polygon.boundary_point(np.repeat(side, ts.shape[1]), ts.ravel())
    vals = np.asarray(trace(y), dtype=float).reshape(ts.shape)
    return (vals[:, 0] - 8 * vals[:, 1] + 8 * vals[:, 2] - vals[:, 3]) / (12 * h)


@lru_cache(maxsize=None)
def _graded_rule(L: float, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss nodes and weights, (panels, n) each, on the panels of
    [0, L] graded toward both ends with k layers each."""
    brk = graded_breakpoints(0.0, L, (0.0, L), k)
    ts, ws = gauss_interval(brk[:-1], brk[1:], n)
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _chunks(rows: np.ndarray, nodes: int):
    """Consecutive pieces of `rows` with at most _ORACLE_CHUNK row-node elements."""
    step = max(1, _ORACLE_CHUNK // nodes)
    return (rows[lo : lo + step] for lo in range(0, len(rows), step))


def _row_sums(panels: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """Per-row sums of flat panel values (m, P), row r owning the next kk[r]
    of them (kk ascending); the rows of one k reduce as one (m, rows, k) block."""
    m = len(panels)
    sums = np.empty((m, len(kk)))
    ks, lo = np.unique(kk, return_index=True)
    start = 0
    for k, a, b in zip(ks, lo, [*lo[1:], len(kk)]):
        sums[:, a:b] = panels[:, start : start + (b - a) * k].reshape(m, b - a, k).sum(axis=2)
        start += (b - a) * k
    return sums


def _oracle_pass(polygon, trace, s, order, layers, x, side, t, ux, slope, at_corner):
    """One quadrature pass of the pointwise oracle over an array of points.

    Returns 2 Int (u(x) - u(y)) |x-y|^{-(1+2s)} dl(y) at Gauss order `order`
    and its error estimate against order // 2 plus the tail-fit bound. On each
    side the points are grouped by panel layout across the whole array: one
    layout's breakpoints, nodes and trace values are built once, and its rows
    run in chunks of at most _ORACLE_CHUNK elements. Every value depends on its
    own point only, with the same arithmetic and order of additions in any
    grouping, so it is bitwise independent of the other points.

    A corner x takes the sides that meet at it alike: each is integrated in
    arc offsets from the corner, with slope 0 and the dyadic core closed by
    the tail fit. A graded layout of an adjacent side would miss its r^{-2s}
    singularity by more than the order difference shows, and at the retry's
    52 layers it would put nodes nearer the corner than the coordinates
    resolve (0 * inf).
    """
    orders = (order, order // 2)
    totals = np.zeros((2, len(t)))
    err_extra = np.zeros(len(t))
    expo = -(1.0 + 2.0 * s)
    # decay ratios of the dyadic panel series toward t: the leading integrand
    # power is 2 - 2s (regularized) or 1 - 2s (Lipschitz, at a corner)
    lead = np.where(at_corner, 1.0 - 2.0 * s, 2.0 - 2.0 * s)
    rho1 = 2.0 ** (-lead)
    rho2 = 2.0 ** (-(lead + 1.0))
    L_x = polygon.side_lengths[side]
    eps_corner = 1e-12 * np.maximum(1.0, L_x)
    for j in range(polygon.n_sides):
        L = polygon.side_lengths[j]

        # x's arc offset along side j: its own side, or a corner of j
        d_start = np.linalg.norm(x - polygon.side_starts[j], axis=1)
        d_end = np.linalg.norm(x - polygon.side_ends[j], axis=1)
        on_j = (side == j) | (at_corner & (np.minimum(d_start, d_end) <= eps_corner))
        t_j = np.where(side == j, t, np.where(d_start <= d_end, 0.0, L))

        # other sides: panels graded toward both corners, deeper the nearer x
        other = np.flatnonzero(~on_j)
        dmin = np.minimum(d_start[other], d_end[other])
        k_end = np.ceil(np.log2(L / np.maximum(dmin, 1e-14))) + 6
        k_end = np.minimum(layers, np.maximum(10, k_end))
        for k in np.unique(k_end).astype(int):
            g = other[k_end == k]
            for m, n in enumerate(orders):
                ts, ws = _graded_rule(L, k, n)
                y = polygon.boundary_point(j, ts.ravel())
                uy = np.asarray(trace(y), dtype=float)
                for c in _chunks(g, ts.size):
                    # (u(x) - u(y)) |x - y|^expo w, built in place in two
                    # (rows, nodes) arrays
                    f = np.subtract.outer(x[c, 0], y[:, 0])
                    f *= f
                    tmp = np.subtract.outer(x[c, 1], y[:, 1])
                    tmp *= tmp
                    f += tmp
                    f **= expo / 2.0
                    f *= np.subtract.outer(ux[c], uy, out=tmp)
                    f *= ws.ravel()
                    totals[m, c] += f.reshape(len(c), *ts.shape).sum(axis=2).sum(axis=1)

        # own side: subtract the tangential linearization (slope 0 at a corner)
        own = np.flatnonzero(on_j)
        for left in (True, False):
            length = t_j[own] if left else L - t_j[own]
            half = np.flatnonzero(length > eps_corner[own])  # x is not this end
            if half.size == 0:
                continue
            # stop the layers around 1e-5 of the side length: deeper panels
            # drown in roundoff of the regularized difference. A corner
            # subtracts nothing and goes on to 1e-7: deeper, the roundoff of
            # u(x) - u(y) outgrows the tail bound for s near 1/2
            depth = np.where(at_corner[own[half]], 1e-7, 1e-5)
            k_own = np.clip(np.ceil(np.log2(length[half] / (depth * L))), 5, layers).astype(int)
            # rows in order of k, so one k's panel sums form one block; panel
            # i of a row spans offsets scale[i] to scale[i + 1] of its length
            # toward t, the core panel touching t is dropped
            by_k = np.argsort(k_own, kind="stable")
            half, k_own = half[by_k], k_own[by_k]
            scale = 0.5 ** np.arange(k_own[-1] + 1)
            for c in _chunks(np.arange(len(half)), k_own[-1] * order):
                sel = half[c]
                g = own[sel]
                kk = k_own[c]
                first = np.cumsum(kk) - kk  # each row's first panel
                row = np.repeat(np.arange(len(c)), kk)
                i = np.arange(len(row)) - first[row]
                # a left row's panels run from its far end toward t, a right
                # row's from t outward
                ia, ib = (i, i + 1) if left else (kk[row] - i, kk[row] - i - 1)
                tg = t_j[g][row]
                oa = length[sel][row] * scale[ia]
                ob = length[sel][row] * scale[ib]
                a, b = (tg - oa, tg - ob) if left else (tg + oa, tg + ob)
                ux_row, slope_row = ux[g][row, None], slope[g][row, None]
                sums = np.empty((2, len(row)))
                for m, n in enumerate(orders):
                    ts, ws = gauss_interval(a, b, n)
                    uy = np.asarray(trace(polygon.boundary_point(j, ts.ravel())), dtype=float)
                    dt = ts - tg[:, None]
                    # (u(x) - u(y) + slope dt) |dt|^expo w, in place
                    f = ux_row - uy.reshape(ts.shape)
                    f += slope_row * dt
                    np.abs(dt, out=dt)
                    dt **= expo
                    f *= dt
                    f *= ws
                    f.sum(axis=1, out=sums[m])
                # close the dropped geometric tail with a two-term fit at the
                # theoretical ratios; the one-term value bounds its error
                hi = sums[0]
                near = first + kk - 1 if left else first
                step = -1 if left else 1
                p_last, p_prev = hi[near], hi[near + step]
                r1 = rho1[g]
                r2 = rho2[g]
                X = (p_prev - p_last / r2) / (1.0 / r1 - 1.0 / r2)
                Y = p_last - X
                tail2 = X * r1 / (1.0 - r1) + Y * r2 / (1.0 - r2)
                tail1 = p_last * r1 / (1.0 - r1)
                totals[:, g] += _row_sums(sums, kk)
                totals[:, g] += tail2
                # |tail2 - tail1| is the first-order tail correction; the
                # two-term residual is another order down
                err_extra[g] += 0.2 * np.abs(tail2 - tail1) + 1e-15 * (1.0 + np.abs(tail2))

        # analytic principal value of the subtracted linearization
        reg = np.flatnonzero((side == j) & ~at_corner)
        tr = t[reg]
        if abs(s - 0.5) < 1e-14:
            corr = np.log((L - tr) / tr)
        else:
            corr = ((L - tr) ** (1.0 - 2.0 * s) - tr ** (1.0 - 2.0 * s)) / (1.0 - 2.0 * s)
        totals[:, reg] -= slope[reg] * corr
    return 2.0 * totals[0], 2.0 * np.abs(totals[0] - totals[1]) + 2.0 * err_extra


def theta_pointwise_oracle(
    polygon: Polygon,
    trace: Callable,
    x,
    s: float,
    tol: float = 1e-8,
    *,
    tangential_derivative: float | np.ndarray | None = None,
    return_error: bool = False,
):
    """Pointwise nonlocal operator value 2 Int (u(x) - u(y)) |x-y|^{-(1+2s)} dl(y).

    Composite Gauss in arc length with dyadic panels toward y = x (and toward
    the corners nearest to x on the other sides). On x's own side the
    tangential linearization of the trace is subtracted and reintegrated as an
    analytic principal-value correction, which makes the scheme uniformly
    accurate in s; the leftover dyadic cores are summed by geometric
    extrapolation. At a corner both sides that meet there are integrated like
    x's own side, in arc offsets from the corner. Tolerance is absolute plus
    relative; points whose estimate misses it are recomputed once, by the
    same rule at higher order and depth.

    x is one boundary point or an array of points (P, 2); the trace must
    accept (M, 2) arrays, and every array it gets is coordinate-major (each
    coordinate column contiguous, as Polygon.boundary_point builds them).
    tangential_derivative (the trace's derivative along the side at x;
    numeric differences when None) is a scalar or one value per point. Returns a float, or P values, to match x, with the error estimates
    when return_error. Each stage of _ORACLE_STAGES is one _oracle_pass over
    all points still to do, with the work grouped by panel layout across the
    call and run in chunks of _ORACLE_CHUNK elements; a value is bitwise
    independent of the other points of the call. Each call writes one DEBUG
    line to the `venttsel` logger: the points, the points retried, the worst
    err / (1 + |value|) and the seconds.

    Preconditions: the trace is Lipschitz near x for s < 1/2 and C1 along the
    boundary near x for s >= 1/2; for s >= 1/2, x must not be a corner.
    """
    if not 0.0 < s < 1.0:
        raise OracleError(f"s={s} outside (0, 1)")
    start = time.perf_counter()
    x = np.asarray(x, dtype=float)
    # coordinate-major, as boundary_point builds the quadrature points: every
    # trace call reads contiguous coordinate columns, whatever the layout of x
    pts = np.asfortranarray(np.atleast_2d(x))
    side, t = polygon.locate_boundary_point(pts)
    L_x = polygon.side_lengths[side]
    eps_corner = 1e-12 * np.maximum(1.0, L_x)
    at_corner = (t <= eps_corner) | (t >= L_x - eps_corner)
    if s >= 0.5 and np.any(at_corner):
        raise OracleError(
            "pointwise nonlocal value may be unbounded at a corner for s >= 1/2 "
            f"(x={pts[np.argmax(at_corner)]}); use the form-based load route instead"
        )
    ux = np.asarray(trace(pts), dtype=float)
    if tangential_derivative is None:
        slope = _numeric_tangential_derivative(trace, polygon, side, t)
    else:
        slope = np.broadcast_to(np.asarray(tangential_derivative, dtype=float), t.shape)
    slope = np.where(at_corner, 0.0, slope)  # Lipschitz path: no subtraction

    value = np.empty(len(pts))
    err = np.empty(len(pts))
    todo = np.arange(len(pts))
    retried = 0
    for order, layers in _ORACLE_STAGES:
        value[todo], err[todo] = _oracle_pass(
            polygon, trace, s, order, layers, pts[todo], side[todo], t[todo],
            ux[todo], slope[todo], at_corner[todo],
        )
        # a NaN estimate misses too
        todo = np.flatnonzero(~(err <= tol * (1.0 + np.abs(value))))
        if todo.size == 0:
            break
        retried = todo.size
    else:
        i = todo[0]
        raise OracleError(
            f"pointwise oracle error estimate {err[i]:.3e} exceeds tol at x={pts[i]}"
        )
    log.debug(
        "pointwise oracle s=%g tol=%.1e: points=%d retried=%d worst_err=%.3e %.3fs",
        s, tol, len(pts), retried,
        np.max(err / (1.0 + np.abs(value)), initial=0.0), time.perf_counter() - start,
    )
    if x.ndim == 1:
        value, err = float(value[0]), float(err[0])
    return (value, err) if return_error else value


# --- entry oracle ---------------------------------------------------------------


def theta_entry_oracle(bm: BoundaryMesh, s: float, tol: float = 1e-9) -> np.ndarray:
    """Adaptive reference matrix of the Galerkin entries of the nonlocal form.

    One pass over segment pairs, each integrated once for all of its hat
    products: the identical-segment part reduces exactly to a 1D integral
    (endpoint singularity handled by adaptive dyadic bisection) and enters as
    e * [[1, -1], [-1, 1]]; every other pair a < b is one vector 2D quadtree
    over the products f_m f_n |x - y|^-(1+2s) of its 3 or 4 nodes, with
    f_n(t, tau) = hat_n(x_a(t)) - hat_n(x_b(tau)), refined toward the shared
    corner of adjacent pairs. Each pair is integrated to tol / (2S), since no
    entry sums more than about 2S pairs. Desk-scale only (boundary node count
    <= 64).
    """
    S = bm.n_nodes
    if S > 64:
        raise OracleError("entry oracle is desk-scale only (<= 64 boundary nodes)")
    tol_pair = tol / (2 * S)
    power = 1.0 - 2.0 * s
    theta = np.zeros((S, S))
    for a in range(S):
        La, P0a, tana = float(bm.lengths[a]), bm.segment_starts[a], bm.tangents[a]
        val, _ = adaptive_interval(
            lambda w: (La - w) * w**power, 0.0, La, tol_pair,
            singular_end=0.0, singular_power=power,
        )
        ends_a = [a, (a + 1) % S]
        theta[np.ix_(ends_a, ends_a)] += 2.0 * val / La**2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        for b in range(a + 1, S):
            Lb, P0b, tanb = float(bm.lengths[b]), bm.segment_starts[b], bm.tangents[b]
            ends_b = [b, (b + 1) % S]
            nodes = list(dict.fromkeys(ends_a + ends_b))
            pos_a = [nodes.index(n) for n in ends_a]
            pos_b = [nodes.index(n) for n in ends_b]
            rows, cols = np.triu_indices(len(nodes))

            def f(t, tau):
                xa = P0a + np.multiply.outer(t, tana)
                yb = P0b + np.multiply.outer(tau, tanb)
                d = np.linalg.norm(xa - yb, axis=-1)
                fn = np.zeros((len(nodes), len(t)))
                fn[pos_a] += (1.0 - t / La, t / La)
                fn[pos_b] -= (1.0 - tau / Lb, tau / Lb)
                return fn[rows] * fn[cols] * d ** (-(1.0 + 2.0 * s))

            shared = set(ends_a) & set(ends_b)
            singular_pts = []
            scale = 1.0
            if shared:
                node = shared.pop()
                t_star = 0.0 if node == a else La
                tau_star = 0.0 if node == b else Lb
                singular_pts = [(t_star, tau_star)]
                probe = 1e-3 * min(La, Lb)
                tp = np.abs(t_star - probe * np.array([1.0, 0.7, 0.3]))
                taup = np.abs(tau_star - probe * np.array([0.3, 0.7, 1.0]))
                rho = np.hypot(tp - t_star, taup - tau_star)
                scale = 4.0 * float(np.max(np.abs(f(tp, taup)) / rho**power)) + 1e-30

            val, _ = adaptive_rectangle(
                f,
                (0.0, La, 0.0, Lb),
                tol_pair,
                singular_points=singular_pts,
                singular_power=power,
                singular_scale=scale,
            )
            idx = np.array(nodes)
            m, n, off = idx[rows], idx[cols], rows != cols
            theta[m, n] += 2.0 * val
            theta[n[off], m[off]] += 2.0 * val[off]
    return theta


# --- operator laws ----------------------------------------------------------------


def operator_laws(bm: BoundaryMesh, s: float, theta: np.ndarray) -> list[dict]:
    """The laws of the nonlocal form that `theta` must obey on `bm`, one
    record `{name, value, bound, passed}` each, `passed = value <= bound`.

    Symmetry and the scaling law are relative to max|theta|; PSD reads
    -lambda_min / lambda_max. The scaling law compares `theta` with the
    operator on copies of `bm.mesh` whose nodes are scaled by t = 0.5 and 3
    (no re-triangulation, so graded meshes work too). Every entry is checked
    against the entry oracle only when `bm` has at most 8 segments.
    """
    scale = np.abs(theta).max()
    ev = np.linalg.eigvalsh(theta)
    mesh = bm.mesh
    law = 0.0
    for t in (0.5, 3.0):
        scaled = Mesh(
            nodes=t * mesh.nodes,
            triangles=mesh.triangles,
            boundary_node_flags=mesh.boundary_node_flags,
            polygon=build_polygon(t * mesh.polygon.vertices),
        )
        theta_t = nonlocal_matrix(scaled.boundary, s)
        law = max(law, np.abs(theta_t - t ** (1.0 - 2.0 * s) * theta).max() / scale)
    values = {
        "theta_symmetric": (np.abs(theta - theta.T).max() / scale, 1e-12),
        "theta_annihilates_constants": (np.abs(theta @ np.ones(bm.n_nodes)).max(), 1e-10),
        "theta_psd": (-ev[0] / ev[-1], 1e-10),
        "theta_scaling_law": (law, 1e-8),
        "theta_orders": (check_theta_orders(bm, s, theta), 1e-8),
    }
    if bm.n_segments <= 8:
        o = theta_entry_oracle(bm, s, tol=1e-9)
        worst = np.max(np.abs(theta - o) / np.maximum(np.abs(o), 1e-10))
        values["theta_oracle_equivalence"] = (worst, 1e-6)
    return [
        {"name": name, "value": float(value), "bound": bound, "passed": bool(value <= bound)}
        for name, (value, bound) in values.items()
    ]


# --- manufactured problems -------------------------------------------------------


@dataclass(eq=False)
class ManufacturedProblem:
    """Exact solution with analytically derived data.

    The boundary source g is constructed from the boundary identity
    g = -(tangential second derivative) + (normal derivative) + b u + theta(u)
    on each open side; because the trace of a smooth bulk solution kinks at
    corners, the exact weak-form data additionally carries one point mass per
    corner with weight (incoming minus outgoing tangential derivative). The
    pointwise route tabulates g at quadrature nodes and adds the masses; the
    form-based (energy) route reproduces both pieces automatically. Both
    routes give the boundary load per boundary-local node through build().
    """

    name: str
    polygon: Polygon
    s: float
    b: object
    u: Callable
    grad_u: Callable
    hess_u: Callable
    lap_u: Callable
    g_route: str  # "exact" | "pointwise" | "load_table"

    def f(self, pts):
        return -np.asarray(self.lap_u(np.atleast_2d(pts)), dtype=float)

    def trace(self, pts):
        return np.asarray(self.u(np.atleast_2d(pts)), dtype=float)

    def b_per_side(self) -> np.ndarray:
        vals = np.atleast_1d(np.asarray(self.b, dtype=float))
        if vals.size == 1:
            return np.full(self.polygon.n_sides, float(vals[0]))
        return vals

    def corner_jumps(self) -> np.ndarray:
        """Per-corner weight (incoming - outgoing tangential derivative)."""
        poly = self.polygon
        g = np.asarray(self.grad_u(poly.vertices), dtype=float)
        tan_out = poly.side_tangents  # side j starts at vertex j
        tan_in = np.roll(poly.side_tangents, 1, axis=0)  # side j-1 ends at vertex j
        return np.einsum("jd,jd->j", g, tan_in) - np.einsum("jd,jd->j", g, tan_out)

    def boundary_g_values(self, pts, side_ids, tol: float) -> np.ndarray:
        """Identity right-hand side at non-corner boundary points, with the
        nonlocal term from the pointwise oracle at tolerance tol."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        side_ids = np.atleast_1d(np.asarray(side_ids, dtype=int))
        poly = self.polygon
        tau = poly.side_tangents[side_ids]
        nu = poly.side_normals[side_ids]
        H = np.asarray(self.hess_u(pts), dtype=float)
        lap_ell = np.einsum("pd,pdc,pc->p", tau, H, tau)
        grad = np.asarray(self.grad_u(pts), dtype=float)
        dn = np.einsum("pd,pd->p", nu, grad)
        bu = self.b_per_side()[side_ids] * self.trace(pts)
        theta = theta_pointwise_oracle(
            poly, self.trace, pts, self.s, tol,
            tangential_derivative=np.einsum("pd,pd->p", grad, tau),
        )
        return -lap_ell + dn + bu + theta

    def build(self, bm: BoundaryMesh) -> np.ndarray:
        """(S,) boundary load per boundary-local node of bm by the g route."""
        if self.g_route == "pointwise":
            return pointwise_load_table(self, bm)
        return energy_load_table(self, bm)

    def spec(self) -> ProblemSpec:
        if self.g_route == "exact":
            g = self.b_per_side()
        elif self.g_route in ("pointwise", "load_table"):
            g = self
        else:
            raise VenttselError(f"unknown g route {self.g_route!r}")
        return ProblemSpec(s=self.s, b=self.b, f=self.f, g=g)


# Pointwise table layout: Gauss order on segments away from the corners, and
# dyadic layers of 6-point panels toward a corner on the segments touching one;
# the oracle tolerance of its g values
_POINTWISE_ORDER = 8
_CORNER_LAYERS = 8
_POINTWISE_TOL = 1e-9


def pointwise_load_table(problem: ManufacturedProblem, bm: BoundaryMesh) -> np.ndarray:
    """(S,) boundary load per boundary-local node of bm from g tabulated at
    segment quadrature nodes, plus the analytic corner masses.

    Segments touching a corner get composite Gauss nodes graded toward the
    corner: the tabulated g inherits an r^{1-2s}-type kink there from the
    nonlocal term, which plain Gauss cannot integrate to the load-route
    equivalence tolerance. One oracle call covers all nodes of positive weight.
    """
    S = bm.n_segments
    corner = np.isin(np.arange(S), bm.corner_nodes)
    # layout per segment: 0 plain Gauss, 1 graded toward its start, 2
    # toward its end, 3 toward both (the corner ends it touches)
    layout = corner + 2 * np.roll(corner, -1)
    rules = [gauss01(_POINTWISE_ORDER)]
    for toward in ((0.0,), (1.0,), (0.0, 1.0)):
        brk = graded_breakpoints(0.0, 1.0, toward, _CORNER_LAYERS)
        x, w = gauss_interval(brk[:-1], brk[1:], 6)
        rules.append((x.ravel(), w.ravel()))
    kinds = np.unique(layout)
    width = max(len(rules[k][0]) for k in kinds)
    nodes = np.full((S, width), 0.5)
    weights = np.zeros((S, width))
    for k in kinds:
        (x, w), rows = rules[k], layout == k
        nodes[rows, : len(x)] = x
        weights[rows, : len(w)] = w * bm.lengths[rows, None]
    pts = bm.segment_starts[:, None, :] + nodes[:, :, None] * (
        bm.segment_ends - bm.segment_starts
    )[:, None, :]
    side_ids = np.repeat(bm.side_ids[:, None], width, axis=1)
    # padded entries carry weight 0: g is not evaluated there
    used = weights > 0
    vals = np.zeros((S, width))
    vals[used] = problem.boundary_g_values(pts[used], side_ids[used], _POINTWISE_TOL)
    seg = np.einsum("sk,sk,skm->sm", weights, vals, np.stack([1.0 - nodes, nodes], axis=2))
    load = np.zeros(S)
    load[bm.corner_nodes] = problem.corner_jumps()
    lp = bm.local_pairs()
    np.add.at(load, lp[:, 0], seg[:, 0])
    np.add.at(load, lp[:, 1], seg[:, 1])
    return load


def make_manufactured(preset: str, polygon: Polygon, s: float, b) -> ManufacturedProblem:
    """Presets: `constant` (u = 1, f = 0, g = b), `cubic` (u = x^3 + y^3),
    `harmonic` (u = e^x sin y). The boundary data of `cubic` and `harmonic`
    come from the pointwise table for s < 1/2 and from the form-based load
    table otherwise; `constant` has its exact data."""
    if preset == "constant":
        return ManufacturedProblem(
            name="constant",
            polygon=polygon,
            s=s,
            b=b,
            u=lambda p: np.ones(len(np.atleast_2d(p))),
            grad_u=lambda p: np.zeros((len(np.atleast_2d(p)), 2)),
            hess_u=lambda p: np.zeros((len(np.atleast_2d(p)), 2, 2)),
            lap_u=lambda p: np.zeros(len(np.atleast_2d(p))),
            g_route="exact",
        )
    route = "pointwise" if s < 0.5 else "load_table"
    if preset == "cubic":
        def hess(p):
            p = np.atleast_2d(p)
            H = np.zeros((len(p), 2, 2))
            H[:, 0, 0] = 6.0 * p[:, 0]
            H[:, 1, 1] = 6.0 * p[:, 1]
            return H

        return ManufacturedProblem(
            name="cubic",
            polygon=polygon,
            s=s,
            b=b,
            u=lambda p: np.atleast_2d(p)[:, 0] ** 3 + np.atleast_2d(p)[:, 1] ** 3,
            grad_u=lambda p: 3.0 * np.atleast_2d(p) ** 2,
            hess_u=hess,
            lap_u=lambda p: 6.0 * (np.atleast_2d(p)[:, 0] + np.atleast_2d(p)[:, 1]),
            g_route=route,
        )
    if preset == "harmonic":
        def hessh(p):
            p = np.atleast_2d(p)
            ex, sy, cy = np.exp(p[:, 0]), np.sin(p[:, 1]), np.cos(p[:, 1])
            H = np.empty((len(p), 2, 2))
            H[:, 0, 0] = ex * sy
            H[:, 0, 1] = H[:, 1, 0] = ex * cy
            H[:, 1, 1] = -ex * sy
            return H

        return ManufacturedProblem(
            name="harmonic",
            polygon=polygon,
            s=s,
            b=b,
            u=lambda p: np.exp(np.atleast_2d(p)[:, 0]) * np.sin(np.atleast_2d(p)[:, 1]),
            grad_u=lambda p: np.column_stack(
                [
                    np.exp(np.atleast_2d(p)[:, 0]) * np.sin(np.atleast_2d(p)[:, 1]),
                    np.exp(np.atleast_2d(p)[:, 0]) * np.cos(np.atleast_2d(p)[:, 1]),
                ]
            ),
            hess_u=hessh,
            lap_u=lambda p: np.zeros(len(np.atleast_2d(p))),
            g_route=route,
        )
    raise VenttselError(f"unknown manufactured preset {preset!r}")


@dataclass(eq=False)
class BenchmarkProblem:
    """Named problem without an exact solution (fine-grid reference studies)."""

    name: str
    polygon: Polygon
    s: float
    b: object
    f: object
    g: object

    def spec(self) -> ProblemSpec:
        return ProblemSpec(s=self.s, b=self.b, f=self.f, g=self.g)


def lshape_benchmark() -> BenchmarkProblem:
    """L-shaped domain, f = 1, g = 0, b = 1, s = 1/2."""
    poly = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    return BenchmarkProblem(
        name="lshape",
        polygon=poly,
        s=0.5,
        b=1.0,
        f=1.0,
        g=0.0,
    )


# --- form-based load table --------------------------------------------------------


# Form-based load rules: triangle degree for the bulk terms and Gauss order per
# segment for the local boundary terms
_LOAD_BULK_DEGREE = 9
_LOAD_BDRY_ORDER = 16


def _power_gauss(n: int, p: int):
    x, w = gauss01(n)
    return x**p, w * p * x ** (p - 1)


def _substitution_power(s: float) -> int:
    return max(2, math.ceil(4.5 / (2.0 - 2.0 * s)))


def _stable_diff(problem, x1, x2):
    """u(x1) - u(x2) of coordinate-major points x1, x2 of shape (2, ...),
    switching to the analytic midpoint-gradient form when the separation nears
    roundoff (avoids catastrophic cancellation against the singular kernel).
    The trace reads them as (points, 2) arrays with contiguous columns."""
    shape = x1.shape[1:]
    f1 = x1.reshape(2, -1).T
    f2 = x2.reshape(2, -1).T
    du = np.asarray(problem.u(f1), dtype=float) - np.asarray(problem.u(f2), dtype=float)
    delta = (x1 - x2).reshape(2, -1)
    # norms written out: the same bits as np.linalg.norm(axis=1) of the
    # (points, 2) rows, which takes five times as long
    sep = np.sqrt(delta[0] ** 2 + delta[1] ** 2)
    scale = 1.0 + np.sqrt(f1[:, 0] ** 2 + f1[:, 1] ** 2)
    close = sep < 1e-5 * scale
    if np.any(close):
        mid = 0.5 * (f1[close] + f2[close])
        g = np.asarray(problem.grad_u(mid), dtype=float)
        # contiguous (points, 2) rows: einsum may pick its inner loop by layout
        du[close] = np.einsum("pd,pd->p", g, np.ascontiguousarray(delta[:, close].T))
    return du.reshape(shape)


def _far_load(bm: BoundaryMesh, s: float, order: int, u: np.ndarray) -> np.ndarray:
    """Far-class part of <theta_s u, phi_i> from the trace u (S, order) at the
    order-`order` Gauss points: 2 hats^T w (u F w - F (w u)) per segment, with
    F the far kernel of _far_blocks and w the Gauss weights, both products
    taken in one pass over each block."""
    S = bm.n_segments
    _, wts, hats = bm.gauss_points(order)
    u, w = u.reshape(-1), wts.reshape(-1)
    V = np.column_stack([w, w * u])
    G = np.zeros_like(V)
    for *_, R in _far_blocks(bm, s, order, V, G):
        del R  # before _far_blocks builds the next block
    seg = (w * (u * G[:, 0] - G[:, 1])).reshape(S, order) @ hats  # (S, 2) per segment node
    return 2.0 * (seg[:, 0] + np.roll(seg[:, 1], 1))


def _theta_load(bm: BoundaryMesh, problem, s: float):
    """Per-basis nonlocal load <theta_s u, phi_i> over boundary-local nodes."""
    S = bm.n_nodes
    out = np.zeros(S)
    p = _substitution_power(s)
    n = 16
    x, w = _power_gauss(n, p)  # one rule in each of the two variables

    lp = bm.local_pairs()
    # the identical and adjacent parts run in chunks of segments, so that
    # their (segments, n, n) temporaries hold at most 4096 entries; each
    # segment's arithmetic and the order of the adds into out are those of one
    # pass over all segments (every identical part goes in before any adjacent)
    step = 4096 // n**2
    chunks = [np.arange(k0, min(k0 + step, S)) for k0 in range(0, S, step)]
    for k in chunks:
        J = _identical_load(bm, problem, s, x, w, k)
        np.add.at(out, lp[k, 0], -J / bm.lengths[k])
        np.add.at(out, lp[k, 1], J / bm.lengths[k])
    for k in chunks:
        np.add.at(out, np.column_stack([(k + 1) % S, k, (k + 2) % S]), _adjacent_load(bm, problem, s, x, w, k))

    # separated pairs by the shared ratio ladder (orders bumped for the smooth
    # factor), the trace evaluated once per segment and order. The far class
    # runs as kernel rows (_far_load); mid and near chunks contract
    # WK (u(x) - u(y)) as u_x rowsum(WK) - WK u_y and its transpose.
    groups = [(a, b, order + 4) for a, b, order in _separated_pairs(bm)]
    traces = {}
    for _, _, n in groups:
        pts = bm.gauss_points(n)[0]
        traces[n] = np.asarray(problem.trace(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])

    out += _far_load(bm, s, groups[0][2], traces[groups[0][2]])

    for a, b, n in _separated_chunks(groups[1:]):
        WK = _separated_kernel(bm, s, a, b, n)
        hats = bm.gauss_points(n)[2]
        ux, uy = traces[n][a], traces[n][b]
        ra = ux * WK.sum(axis=2) - (WK @ uy[:, :, None])[:, :, 0]
        rb = (ux[:, None, :] @ WK)[:, 0, :] - uy * WK.sum(axis=1)
        np.add.at(out, lp[a], 2.0 * (ra @ hats))
        np.add.at(out, lp[b], -2.0 * (rb @ hats))
    return out


def _identical_load(bm: BoundaryMesh, problem, s: float, x, w, k: np.ndarray) -> np.ndarray:
    """J = 2 II (u(t) - u(t(1-v))) (t v)^{-2s} t dv dt of the segments k on
    themselves, with the (x, w) rule in each variable."""
    t_grid = bm.lengths[k][:, None, None] * x[None, :, None]  # (K, n, 1)
    v_grid = x[None, None, :]
    tv = t_grid * v_grid  # (K, n, n) arc separation
    # coordinate-major points (2, K, n, n)
    tan = bm.tangents[k].T[:, :, None, None]
    x1 = bm.segment_starts[k].T[:, :, None, None] + (t_grid * np.ones_like(v_grid)) * tan
    x2 = x1 - tv * tan
    du = _stable_diff(problem, x1, x2)
    integ = du * tv ** (-2.0 * s) * t_grid
    return 2.0 * bm.lengths[k] * np.einsum("i,j,sij->s", w, w, integ)


def _adjacent_load(bm: BoundaryMesh, problem, s: float, x, w, k: np.ndarray) -> np.ndarray:
    """(K, 3) load of the adjacent segment pairs (k, k+1) on their nodes
    k+1, k, k+2: Duffy split, radial factor left explicit."""
    kn = (k + 1) % bm.n_nodes
    La = bm.lengths[k][:, None, None]
    Lb = bm.lengths[kn][:, None, None]
    cos = np.einsum("kd,kd->k", bm.tangents[k], bm.tangents[kn])[:, None, None]
    # coordinate-major (2, K, 1, 1): the Duffy points are (2, K, n, n)
    P = bm.mesh.nodes[bm.boundary_nodes[kn]].T[:, :, None, None]
    ea = -bm.tangents[k].T[:, :, None, None]
    eb = bm.tangents[kn].T[:, :, None, None]
    U = x[None, :, None]  # (1, n, 1)
    V = x[None, None, :]  # (1, 1, n)

    def duffy_part(xi_over_u, eta_over_u, d_hats):
        a, b = La * xi_over_u, Lb * eta_over_u  # (K, 1, n) with U = 1
        # the radial scale |x-y| / U = |a ea - b eb| depends on V alone
        g = np.sqrt(a * a + b * b + 2.0 * a * b * cos)
        xpts = P + (a * U) * ea
        ypts = P + (b * U) * eb
        du_ = _stable_diff(problem, xpts, ypts)
        base = (
            (La[:, 0, 0] * Lb[:, 0, 0])[:, None, None]
            * du_
            * U ** (1.0 - 2.0 * s)
            * g ** (-(1.0 + 2.0 * s))
        )
        res = np.empty((len(k), 3))
        for m, dh in enumerate(d_hats):
            res[:, m] = np.einsum("i,j,sij->s", w, w, base * dh)
        return res

    ones = np.ones_like(V)
    part1 = duffy_part(ones, V, (V - 1.0, ones, -V))  # xi = La U, eta = Lb U V
    part2 = duffy_part(V, ones, (1.0 - V, V, -ones))  # xi = La U V, eta = Lb U
    return 2.0 * (part1 + part2)


def _bulk_load_terms(problem, mesh: Mesh, triangles: np.ndarray) -> np.ndarray:
    """Int grad u . grad phi_i - Int f phi_i per mesh node, summed over the
    triangles selected by the boolean mask `triangles`."""
    tris = mesh.triangles[triangles]
    lam, _ = tri_rule(_LOAD_BULK_DEGREE)
    pts, w = tri_points_weights(mesh.tri_verts[triangles], _LOAD_BULK_DEGREE)
    flat = pts.reshape(-1, 2)
    gu = np.asarray(problem.grad_u(flat), dtype=float).reshape(pts.shape[0], pts.shape[1], 2)
    int_grad = np.einsum("tk,tkd->td", w, gu)
    bulk_term = np.zeros(mesh.n_nodes)
    np.add.at(bulk_term, tris.ravel(), np.einsum("tid,td->ti", _p1_gradients(mesh)[triangles], int_grad).ravel())
    fv = np.asarray(problem.f(flat), dtype=float).reshape(pts.shape[:2])
    f_term = np.zeros(mesh.n_nodes)
    np.add.at(f_term, tris.ravel(), np.einsum("tk,tk,kl->tl", w, fv, lam).ravel())
    return bulk_term - f_term


def energy_load_table(problem: ManufacturedProblem, bm: BoundaryMesh) -> np.ndarray:
    """(S,) boundary load entries E(u, phi_i) - Int f phi_i from the continuum
    form, per boundary-local node of bm.

    Valid for every s in (0, 1); sidesteps pointwise corner blow-up because
    only the absolutely convergent double integrals are evaluated.
    """
    mesh = bm.mesh
    # only boundary entries are read, so only triangles with a boundary vertex
    # are integrated; each entry sums the same terms in the same order as the
    # full mesh would
    on_boundary = np.zeros(mesh.n_nodes, dtype=bool)
    on_boundary[bm.boundary_nodes] = True
    bulk_term = _bulk_load_terms(problem, mesh, np.any(on_boundary[mesh.triangles], axis=1))

    pts_b, wts, hats = bm.gauss_points(_LOAD_BDRY_ORDER)
    flat_b = pts_b.reshape(-1, 2)
    gub = np.asarray(problem.grad_u(flat_b), dtype=float).reshape(
        pts_b.shape[0], pts_b.shape[1], 2
    )
    u_tan = np.einsum("skd,sd->sk", gub, bm.tangents)
    int_utan = np.einsum("sk,sk->s", wts, u_tan)
    bvals = problem.b_per_side()[bm.side_ids]
    ub = np.asarray(problem.trace(flat_b), dtype=float).reshape(pts_b.shape[:2])
    mass_term_local = np.einsum("sk,sk,km->sm", wts * bvals[:, None], ub, hats)

    bdry_term = np.zeros(bm.n_nodes)
    lp = bm.local_pairs()
    np.add.at(bdry_term, lp[:, 0], -int_utan / bm.lengths + mass_term_local[:, 0])
    np.add.at(bdry_term, lp[:, 1], int_utan / bm.lengths + mass_term_local[:, 1])

    theta_term = _theta_load(bm, problem, problem.s)

    return bulk_term[bm.boundary_nodes] + bdry_term + theta_term


# --- data norms -------------------------------------------------------------------


def source_l2_bulk(f, mesh: Mesh) -> float:
    """L2 norm of a bulk source callable (or scalar) over the meshed polygon,
    by the degree-7 triangle rule, summed over the mesh's triangle chunks."""
    total = 0.0
    for t in mesh.triangle_chunks():
        pts, w = tri_points_weights(mesh.tri_verts[t], 7)
        if callable(f):
            fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
        else:
            fv = np.full(pts.shape[:2], float(f))
        total += float(np.sum(w * fv**2))
    return math.sqrt(max(0.0, total))


def manufactured_g_l2(problem: ManufacturedProblem) -> float:
    """L2(boundary) norm of the manufactured pointwise g (off-corner identity).

    Each side is integrated by 6-point Gauss on panels graded toward both
    corners with 12 layers. Near a corner the integrand can follow a power
    law for s > 1/2; the innermost panels are summed by geometric
    extrapolation instead of assuming a finite corner value.
    """
    if problem.g_route == "exact":
        bvals = problem.b_per_side()
        return math.sqrt(float(np.sum(bvals**2 * problem.polygon.side_lengths)))
    poly = problem.polygon
    rules = [_graded_rule(L, 12, 6) for L in poly.side_lengths]
    # one oracle call over the points of all sides
    sizes = [ts.size for ts, _ in rules]
    sides = np.repeat(np.arange(poly.n_sides), sizes)
    offsets = np.concatenate([ts.ravel() for ts, _ in rules])
    gvs = problem.boundary_g_values(poly.boundary_point(sides, offsets), sides, tol=1e-6)
    total = 0.0
    for (ts, ws), gv in zip(rules, np.split(gvs, np.cumsum(sizes)[:-1])):
        panel_vals = list(np.sum(ws * gv.reshape(ts.shape) ** 2, axis=1))
        total += sum(panel_vals)
        # geometric tails at both corners
        for inner, nxt in ((panel_vals[0], panel_vals[1]), (panel_vals[-1], panel_vals[-2])):
            ratio = min(abs(inner / nxt), 0.95) if nxt else 0.0
            total += inner * ratio / (1.0 - ratio)
    return math.sqrt(max(0.0, total))


def benchmark_g_l2(problem: BenchmarkProblem) -> float:
    g = problem.g
    if callable(g):
        raise VenttselError("callable benchmark g norms are not implemented")
    vals = np.atleast_1d(np.asarray(g, dtype=float))
    poly = problem.polygon
    if vals.size == 1:
        return float(abs(vals[0])) * math.sqrt(poly.perimeter)
    return math.sqrt(float(np.sum(vals**2 * poly.side_lengths)))


# --- errors ------------------------------------------------------------------------


def errors_vs_exact(u: NodalField, problem: ManufacturedProblem):
    """Per-element quadrature errors (degree-4 triangle rule, order-8 Gauss on
    the boundary) of u against the exact solution; the bulk sums run over the
    mesh's triangle chunks."""
    mesh = u.mesh
    lam, _ = tri_rule(4)
    grads = _p1_gradients(mesh)
    sq_l2 = sq_h1 = 0.0
    for t in mesh.triangle_chunks():
        pts, w = tri_points_weights(mesh.tri_verts[t], 4)
        flat = pts.reshape(-1, 2)
        vals = u.values[mesh.triangles[t]]
        uh = np.einsum("kl,tl->tk", lam, vals)
        uex = np.asarray(problem.u(flat), dtype=float).reshape(pts.shape[:2])
        sq_l2 += float(np.sum(w * (uh - uex) ** 2))
        gh = np.einsum("tid,ti->td", grads[t], vals)
        gex = np.asarray(problem.grad_u(flat), dtype=float).reshape(pts.shape[0], pts.shape[1], 2)
        diff = gex - gh[:, None, :]
        sq_h1 += float(np.sum(w * np.einsum("tkd,tkd->tk", diff, diff)))
    err_l2 = math.sqrt(max(0.0, sq_l2))
    err_h1 = math.sqrt(max(0.0, sq_h1))

    bm = mesh.boundary
    pts_b, wts, hats = bm.gauss_points(8)
    vb = u.boundary_values()
    vpairs = vb[bm.local_pairs()]
    uh_b = np.einsum("km,sm->sk", hats, vpairs)
    uex_b = np.asarray(problem.trace(pts_b.reshape(-1, 2)), dtype=float).reshape(pts_b.shape[:2])
    err_l2_b = math.sqrt(max(0.0, float(np.sum(wts * (uh_b - uex_b) ** 2))))
    guex = np.asarray(problem.grad_u(pts_b.reshape(-1, 2)), dtype=float).reshape(
        pts_b.shape[0], pts_b.shape[1], 2
    )
    tan_ex = np.einsum("skd,sd->sk", guex, bm.tangents)
    tan_h = ((vpairs[:, 1] - vpairs[:, 0]) / bm.lengths)[:, None]
    err_h1_b = math.sqrt(max(0.0, float(np.sum(wts * (tan_h - tan_ex) ** 2))))
    return err_l2, err_h1, err_l2_b, err_h1_b


def errors_vs_reference(u: NodalField, ref: NodalField):
    """Quadrature (on the reference mesh) of the difference to a finer solution;
    the bulk sums run over the reference mesh's triangle chunks. Each chunk's
    centroids are located in u's mesh once, and give the gradient term; a
    quadrature point is located on its own only when it lies outside the
    triangle that holds its centroid."""
    rmesh = ref.mesh
    lam, _ = tri_rule(2)
    grads = _p1_gradients(rmesh)
    sq_l2 = sq_h1 = 0.0
    for t in rmesh.triangle_chunks():
        pts, w = tri_points_weights(rmesh.tri_verts[t], 2)
        vals = ref.values[rmesh.triangles[t]]
        uref = np.einsum("kl,tl->tk", lam, vals)
        uh, grad_h = _evaluate_by_centroid(u, rmesh.tri_verts[t].mean(axis=1), pts)
        sq_l2 += float(np.sum(w * (uh - uref) ** 2))
        diff = np.einsum("tid,ti->td", grads[t], vals) - grad_h
        sq_h1 += float(np.sum(rmesh.areas[t] * np.einsum("td,td->t", diff, diff)))
    err_l2 = math.sqrt(max(0.0, sq_l2))
    err_h1 = math.sqrt(max(0.0, sq_h1))

    rbm = rmesh.boundary
    cbm = u.mesh.boundary
    pts_b, wts, hats = rbm.gauss_points(4)
    vref = ref.boundary_values()
    rpairs = vref[rbm.local_pairs()]
    uref_b = np.einsum("km,sm->sk", hats, rpairs)
    x, _ = gauss01(4)
    arc = rbm.arclength_coords[:, None] + x[None, :] * rbm.lengths[:, None]
    vb = u.boundary_values()
    uh_b, duh_b = boundary_interp(cbm, vb, arc.ravel())
    uh_b = uh_b.reshape(arc.shape)
    duh_b = duh_b.reshape(arc.shape)
    err_l2_b = math.sqrt(max(0.0, float(np.sum(wts * (uh_b - uref_b) ** 2))))
    dref = ((rpairs[:, 1] - rpairs[:, 0]) / rbm.lengths)[:, None]
    err_h1_b = math.sqrt(max(0.0, float(np.sum(wts * (duh_b - dref) ** 2))))
    return err_l2, err_h1, err_l2_b, err_h1_b


# --- convergence studies --------------------------------------------------------------

CONVERGENCE_CSV_HEADER = (
    "level,h,unknowns,err_l2_bulk,err_h1_bulk,err_l2_bdry,err_h1_bdry,"
    "bdry_h2_diag,stability_ratio"
)


@dataclass(eq=False)
class ConvergenceTable:
    rows: list

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self) -> str:
        """The header, then one line per row: the whole-number columns
        (level, unknowns) as str, every other column as repr(float)."""
        names = CONVERGENCE_CSV_HEADER.split(",")
        lines = [CONVERGENCE_CSV_HEADER] + [
            ",".join(str(row[n]) if n in ("level", "unknowns") else repr(float(row[n])) for n in names)
            for row in self.rows
        ]
        return "\n".join(lines) + "\n"


def _mesh_sequence(polygon: Polygon, h0: float, q: float, levels: list[int]):
    """Meshes of size h0 2^-k for each k in levels.

    Uniform meshes come from one refinement chain, so every level up to the
    finest is built; graded meshes are regenerated per level (keeps the
    corner-size law (h 2^-k)^q), so only the requested ones are.
    """
    if q != 1.0:
        return [triangulate(polygon, h0 * 0.5**k, q) for k in levels]
    chain = [triangulate(polygon, h0, 1.0)]
    while len(chain) <= max(levels):
        chain.append(refine(chain[-1]))
    return [chain[k] for k in levels]


def convergence_study(
    problem,
    levels: int,
    *,
    h0: float,
    q: float = 1.0,
    solver_tol: float = 1e-10,
) -> ConvergenceTable:
    """Solve on a sequence of meshes with h halving per level.

    Manufactured problems are measured against the exact solution; benchmark
    problems against a fine-grid reference two extra levels down, computed
    with the same discretization.
    """
    if levels < 3:
        raise VenttselError("a convergence study needs at least 3 levels")
    has_exact = isinstance(problem, ManufacturedProblem)
    used = list(range(levels)) if has_exact else [*range(levels), levels + 1]
    meshes = _mesh_sequence(problem.polygon, h0, q, used)

    fields = []
    for mesh in meshes:
        u, _ = solve(assemble_system(mesh, problem.spec()), tol=solver_tol)
        fields.append(u)
    ref = None if has_exact else fields[-1]

    f_norm = source_l2_bulk(problem.f, meshes[levels - 1])
    g_norm = manufactured_g_l2(problem) if has_exact else benchmark_g_l2(problem)

    rows = []
    for k, u in enumerate(fields[:levels]):
        if has_exact:
            e2, eh1, e2b, eh1b = errors_vs_exact(u, problem)
        else:
            e2, eh1, e2b, eh1b = errors_vs_reference(u, ref)
        bm = u.mesh.boundary
        rows.append(
            {
                "level": k,
                "h": h0 * 0.5**k,
                "unknowns": u.mesh.n_nodes,
                "err_l2_bulk": e2,
                "err_h1_bulk": eh1,
                "err_l2_bdry": e2b,
                "err_h1_bdry": eh1b,
                "bdry_h2_diag": boundary_h2_diagnostic(u.boundary_values(), bm),
                "stability_ratio": stability_ratio(u, f_norm, g_norm)
                if (f_norm + g_norm) > 0
                else math.nan,
            }
        )
    return ConvergenceTable(rows=rows)


def rate_estimate(table: ConvergenceTable, column: str):
    """Per-step rates log2(err_{k-1} / err_k); zero errors report "exact"."""
    errs = table.column(column)
    if len(errs) < 2:
        raise VenttselError("rate estimation needs at least 2 rows")
    rates = []
    for prev, cur in zip(errs[:-1], errs[1:]):
        if prev == 0.0 or cur == 0.0:
            rates.append("exact")
        else:
            rates.append(math.log2(prev / cur))
    return rates


# --- random smooth fields ---------------------------------------------------------


def random_smooth_fields(mesh: Mesh, count: int, seed: int):
    """Seeded random smooth fields interpolated onto the mesh.

    Draws iid normal coefficients over a fixed low-order basis (affine plus
    cos x cos y modes up to order 3 on the bounding box). Smoothness matters:
    iid nodal noise would make Rayleigh-type ratios scale with h and no
    refinement-stable witness would exist.
    """
    rng = np.random.default_rng(seed)
    (xmin, ymin) = mesh.polygon.vertices.min(0)
    (xmax, ymax) = mesh.polygon.vertices.max(0)
    xh = (mesh.nodes[:, 0] - xmin) / (xmax - xmin)
    yh = (mesh.nodes[:, 1] - ymin) / (ymax - ymin)
    basis = [np.ones_like(xh), xh, yh, xh * yh]
    for mm in range(1, 4):
        for nn in range(1, 4):
            basis.append(np.cos(mm * math.pi * xh) * np.cos(nn * math.pi * yh))
    B = np.column_stack(basis)
    for _ in range(count):
        coef = rng.normal(size=B.shape[1])
        yield NodalField(B @ coef, mesh)

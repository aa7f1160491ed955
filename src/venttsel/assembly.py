"""Galerkin assembly: bulk/boundary stiffness and mass, the dense nonlocal
boundary operator, and the load vector of the weak formulation.

The nonlocal operator entries are double boundary integrals of
(phi_i(x) - phi_i(y)) (phi_j(x) - phi_j(y)) |x - y|^{-(1+2s)} with |x - y| the
Euclidean chord distance. Assembly runs over segment pairs with three rules:

* identical segment: the hat-function differences are exactly proportional to
  (t - tau), so the block reduces to Int |t-tau|^{1-2s} over the square, which
  has one closed form valid for every s in (0, 1);
* adjacent segments (shared node, collinear or across a corner): Duffy split
  at the shared node; the radial factor integrates exactly to u^{3-2s}/(3-2s),
  leaving a smooth 1D angular integral done with fixed Gauss;
* separated segments: tensor Gauss, order from the distance-to-diameter ratio
  (one ladder and one kernel, shared with the form-based load in verify).

Every pair contribution is a Gram-type block with positive quadrature weights,
so the assembled operator is symmetric positive semidefinite and annihilates
constants to roundoff by construction.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import AssemblyError, QuadraturePairError, RegularityRegimeWarning
from .meshing import BoundaryMesh, Mesh
from .quadrature import gauss01, tri_points_weights, tri_rule

__all__ = [
    "ProblemSpec",
    "DiscreteSystem",
    "NodalField",
    "BoundaryQuadratureTable",
    "BoundaryLoadTable",
    "bulk_stiffness",
    "bulk_mass",
    "boundary_stiffness",
    "boundary_mass",
    "nonlocal_matrix",
    "check_theta_orders",
    "load_vector",
    "assemble_system",
]


# --- problem data -------------------------------------------------------------


@dataclass(eq=False)
class NodalField:
    """Vector of nodal values over the mesh nodes."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.mesh.n_nodes:
            raise AssemblyError(
                f"field length {len(self.values)} != node count {self.mesh.n_nodes}"
            )

    def boundary_values(self) -> np.ndarray:
        """Trace on boundary nodes, in the boundary mesh's cyclic order."""
        return self.values[self.mesh.boundary.boundary_nodes]


def _b_array(b) -> np.ndarray:
    """Boundary coefficient data as a flat float array, checked b >= 0."""
    try:
        vals = np.atleast_1d(np.asarray(b, dtype=float))
    except (TypeError, ValueError):
        raise AssemblyError(
            f"boundary coefficient b must be a number or one number per side, got {b!r}"
        ) from None
    if np.any(vals < 0):
        raise AssemblyError("boundary coefficient b must be >= 0")
    return vals


@dataclass(eq=False)
class ProblemSpec:
    """Data of one Venttsel problem instance.

    s : fractional order in (0, 1); orders >= 3/4 trigger a warning (the
        boundary-H2 diagnostics lose their theoretical backing there)
    b : boundary coefficient >= 0, a scalar or one value per polygon side
    f : bulk source, callable on (k, 2) point arrays (scalars accepted)
    g : boundary source: callable, scalar, per-side array, a
        BoundaryQuadratureTable / BoundaryLoadTable, or a factory object
        with .build(boundary_mesh, threads) returning one of those
    """

    s: float
    b: object
    f: object
    g: object

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise AssemblyError(f"fractional order s={self.s} outside (0, 1)")
        if self.s >= 0.75:
            warnings.warn(
                f"s={self.s} >= 3/4: boundary-H2 regularity diagnostics are not backed",
                RegularityRegimeWarning,
                stacklevel=2,
            )
        _b_array(self.b)

    @property
    def regularity_regime(self) -> bool:
        return self.s < 0.75

    @property
    def coercive(self) -> bool:
        """b not identically zero."""
        return bool(np.any(_b_array(self.b) > 0))


@dataclass(eq=False)
class BoundaryQuadratureTable:
    """Boundary source tabulated at per-segment quadrature nodes of one mesh.

    `nodes` are normalized positions in [0, 1] per segment and `weights` are
    absolute (summing to the segment length), so a segment may carry any
    layout, e.g. composite Gauss graded toward a corner. point_masses
    optionally carries (boundary-local node index, weight) pairs for
    point-supported parts of the data (they land on single basis functions
    since the carriers are mesh nodes).
    """

    values: np.ndarray  # (S, K)
    nodes: np.ndarray  # (S, K) normalized
    weights: np.ndarray  # (S, K) absolute
    point_masses: list | None = None


@dataclass(eq=False)
class BoundaryLoadTable:
    """Per-basis-function boundary load entries, boundary-local cyclic order."""

    values: np.ndarray  # (S,)


@dataclass(eq=False)
class DiscreteSystem:
    """Assembled operator blocks and load of the discrete weak formulation.

    The global operator is `local` (A_bulk plus A_bdry + M_b embedded through
    mesh.boundary.boundary_nodes) plus Theta on the boundary nodes.
    """

    A_bulk: sp.csr_matrix
    A_bdry: sp.csr_matrix
    M_b: sp.csr_matrix
    Theta: np.ndarray
    load: np.ndarray
    mesh: Mesh
    spec: ProblemSpec

    @property
    def n(self) -> int:
        return len(self.load)

    def embed(self, block) -> sp.csr_matrix:
        """(N, N) csr of a boundary-local (S, S) block, dense or sparse."""
        bidx = self.mesh.boundary.boundary_nodes
        block = sp.coo_matrix(block)
        return sp.csr_matrix((block.data, (bidx[block.row], bidx[block.col])), shape=(self.n, self.n))

    @cached_property
    def local(self) -> sp.csr_matrix:
        """The sparse part of the operator, everything but Theta; built on
        first use and cached, while Theta is read on every call."""
        return (self.A_bulk + self.embed(self.A_bdry + self.M_b)).tocsr()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        bidx = self.mesh.boundary.boundary_nodes
        out = self.local @ v
        out[bidx] += self.Theta @ v[bidx]  # boundary nodes are unique
        return out

    def diagonal(self) -> np.ndarray:
        d = self.local.diagonal()
        d[self.mesh.boundary.boundary_nodes] += np.diag(self.Theta)
        return d

    def dense(self) -> np.ndarray:
        """Full dense operator (small systems only)."""
        A = self.local.toarray()
        bidx = self.mesh.boundary.boundary_nodes
        A[np.ix_(bidx, bidx)] += self.Theta
        return A

    def energy(self, values: np.ndarray) -> float:
        """Quadratic form of the global operator."""
        return float(values @ self.matvec(values))


# --- bulk operators -----------------------------------------------------------


def _p1_gradients(mesh: Mesh) -> np.ndarray:
    """(T, 3, 2) gradients of the three hat functions on each triangle."""
    if "grads" not in mesh._cache:
        v = mesh.tri_verts
        area = mesh.areas
        if np.any(area <= 0):
            raise AssemblyError("degenerate triangle (non-positive area)")
        g = np.empty((mesh.n_triangles, 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            g[:, i, 0] = v[:, j, 1] - v[:, k, 1]
            g[:, i, 1] = v[:, k, 0] - v[:, j, 0]
        mesh._cache["grads"] = g / (2.0 * area[:, None, None])
    return mesh._cache["grads"]


def _assemble_coo(tri: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix(
        (local.transpose(0, 2, 1).ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def bulk_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of the bulk Dirichlet form; exact, no quadrature."""
    g = _p1_gradients(mesh)
    local = mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)
    return _assemble_coo(mesh.triangles, local, mesh.n_nodes)


def bulk_mass(mesh: Mesh) -> sp.csr_matrix:
    """P1 mass matrix; exact."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = mesh.areas[:, None, None] * base[None, :, :]
    return _assemble_coo(mesh.triangles, local, mesh.n_nodes)


# --- boundary local operators ---------------------------------------------------


def _scatter_boundary(bm: BoundaryMesh, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate (S, 2, 2) per-segment blocks into an (S_nodes, S_nodes) csr
    over boundary-local numbering."""
    S = bm.n_nodes
    lp = bm.local_pairs()
    rows = np.repeat(lp, 2, axis=1).ravel()
    cols = np.tile(lp, (1, 2)).ravel()
    return sp.coo_matrix(
        (local.transpose(0, 2, 1).ravel(), (rows, cols)), shape=(S, S)
    ).tocsr()


def boundary_stiffness(bm: BoundaryMesh) -> sp.csr_matrix:
    """1D arc-length stiffness along the closed boundary polyline; exact."""
    if np.any(bm.lengths <= 0):
        raise AssemblyError("zero-length boundary segment")
    pat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    local = pat[None, :, :] / bm.lengths[:, None, None]
    return _scatter_boundary(bm, local)


def _b_segment_values(bm: BoundaryMesh, b) -> np.ndarray:
    """Boundary coefficient per segment from scalar or per-side data."""
    vals = _b_array(b)
    if vals.size == 1:
        return np.full(bm.n_segments, float(vals[0]))
    nsides = bm.mesh.polygon.n_sides
    if vals.size != nsides:
        raise AssemblyError(f"per-side b needs {nsides} values, got {vals.size}")
    return vals[bm.side_ids]


def boundary_mass(bm: BoundaryMesh, b) -> sp.csr_matrix:
    """b-weighted boundary mass matrix; exact (b is constant per side)."""
    base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    local = (_b_segment_values(bm, b) * bm.lengths)[:, None, None] * base[None, :, :]
    return _scatter_boundary(bm, local)


# --- nonlocal operator ----------------------------------------------------------


def _point_segment_dist(p, a, b):
    """Vectorized distance from points p to segments (a, b); all (P, 2)."""
    d = b - a
    L2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", p - a, d) / L2, 0.0, 1.0)
    feet = a + t[:, None] * d
    return np.linalg.norm(p - feet, axis=1)


def _segment_pair_dist(P0a, P1a, P0b, P1b):
    """Distance between non-crossing segment pairs: min of 4 endpoint distances."""
    return np.min(
        np.column_stack(
            [
                _point_segment_dist(P0a, P0b, P1b),
                _point_segment_dist(P1a, P0b, P1b),
                _point_segment_dist(P0b, P0a, P1a),
                _point_segment_dist(P1b, P0a, P1a),
            ]
        ),
        axis=1,
    )


def _identical_blocks(Theta, bm, s):
    L = bm.lengths
    entry = 2.0 * L ** (1.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    lp = bm.local_pairs()
    i, j = lp[:, 0], lp[:, 1]
    np.add.at(Theta, (i, i), entry)
    np.add.at(Theta, (j, j), entry)
    np.add.at(Theta, (i, j), -entry)
    np.add.at(Theta, (j, i), -entry)


def _adjacent_blocks(Theta, bm, s, order):
    """All pairs of consecutive segments (k, k+1 mod S), radial-exact Duffy."""
    S = bm.n_nodes
    k = np.arange(S)
    kn = (k + 1) % S
    La = bm.lengths[k]
    Lb = bm.lengths[kn]
    # arc parameterized from the shared node boundary_nodes[kn]
    ea = -bm.tangents[k]
    eb = bm.tangents[kn]
    cosb = np.einsum("ij,ij->i", ea, eb)

    v, w = gauss01(order)
    dP1 = v - 1.0  # T1 angular factors over dofs [shared, far_a, far_b]
    dQa1 = np.ones_like(v)
    dQb1 = -v
    dP2 = 1.0 - v
    dQa2 = v
    dQb2 = -np.ones_like(v)

    def tri_integral(d_list, gsq):
        # gsq: (S, n) squared radial scale; returns (S, 3, 3)
        kern = gsq ** (-(1.0 + 2.0 * s) / 2.0)
        out = np.empty((S, 3, 3))
        for m in range(3):
            for n_ in range(m, 3):
                val = np.einsum("k,k,k,sk->s", w, d_list[m], d_list[n_], kern)
                out[:, m, n_] = val
                out[:, n_, m] = val
        return out

    g1 = (La**2)[:, None] - 2.0 * (La * Lb * cosb)[:, None] * v[None, :] + (Lb**2)[:, None] * v[None, :] ** 2
    g2 = (La**2)[:, None] * v[None, :] ** 2 - 2.0 * (La * Lb * cosb)[:, None] * v[None, :] + (Lb**2)[:, None]
    C = tri_integral([dP1, dQa1, dQb1], g1) + tri_integral([dP2, dQa2, dQb2], g2)
    C *= (La * Lb / (3.0 - 2.0 * s))[:, None, None]
    C *= 2.0  # unordered pair stands for both (a,b) and (b,a)

    dofs = np.column_stack([kn, k, (k + 2) % S])  # [shared, far_a, far_b]
    np.add.at(Theta, (dofs[:, :, None], dofs[:, None, :]), C)


# Separated-pair order ladder: the distance-to-diameter ratio picks the far
# (ratio > _FAR_RATIO), mid or near (ratio <= _MID_RATIO) tensor Gauss order.
_FAR_RATIO = 4.0
_MID_RATIO = 1.0
_ORDERS = (4, 8, 12)
# Separated pairs per chunk; bounds the (chunk, n, n) kernel temporaries
_CHUNK_SIZE = 4096
# Gauss order of the smooth angular integral left by the adjacent-pair Duffy split
_ANGULAR_ORDER = 16


def _separated_pairs(bm):
    """Non-adjacent segment pairs a < b split by the ratio ladder.

    Returns [(a, b, order)] for the far, mid and near classes, in that order,
    each in row-major (triu) pair order. A pair with ratio <= _FAR_RATIO has
    midpoints within (_FAR_RATIO + 1) * max(La, Lb) of each other, so only the
    kd-tree's candidate pairs get an exact ratio; every other pair is far.
    The classes are built once per boundary mesh and cached in bm._cache.
    """
    if "ladder" not in bm._cache:
        S = bm.n_segments
        midpoints = 0.5 * (bm.segment_starts + bm.segment_ends)
        # the margin covers rounding at exactly ratio _FAR_RATIO, which uniform meshes have
        radius = (_FAR_RATIO + 1.0) * bm.lengths.max() * (1.0 + 1e-9)
        a, b = cKDTree(midpoints).query_pairs(radius, output_type="ndarray").T  # a < b
        order = np.argsort(a * S + b)
        a, b = a[order], b[order]
        adjacent = (b - a == 1) | ((a == 0) & (b == S - 1))
        a, b = a[~adjacent], b[~adjacent]
        dist = _segment_pair_dist(
            bm.segment_starts[a], bm.segment_ends[a], bm.segment_starts[b], bm.segment_ends[b]
        )
        ratio = dist / np.maximum(bm.lengths[a], bm.lengths[b])
        close, near = ratio <= _FAR_RATIO, ratio <= _MID_RATIO
        far = np.triu(np.ones((S, S), dtype=bool), k=2)
        far[0, S - 1] = False
        far[a[close], b[close]] = False
        classes = (np.nonzero(far), (a[close & ~near], b[close & ~near]), (a[near], b[near]))
        # int32 halves what the cache holds for the rest of the mesh's life
        bm._cache["ladder"] = [(a.astype(np.int32), b.astype(np.int32)) for a, b in classes]
    return [(a, b, order) for (a, b), order in zip(bm._cache["ladder"], _ORDERS)]


def _separated_map(bm, fn, threads):
    """fn(a, b, order) on each chunk of at most _CHUNK_SIZE pairs of each ladder
    class, in a pool of `threads` threads when threads > 1.

    Returns [((a, b, order), fn(a, b, order))] in a fixed chunk order, so a
    reduction over it is bitwise identical for every thread count.
    """
    jobs = [
        (a[lo : lo + _CHUNK_SIZE], b[lo : lo + _CHUNK_SIZE], order)
        for a, b, order in _separated_pairs(bm)
        for lo in range(0, len(a), _CHUNK_SIZE)
    ]
    return list(zip(jobs, _thread_map(fn, jobs, threads)))


def _thread_map(fn, jobs, threads):
    """[fn(*job) for job in jobs], in a pool of `threads` threads when
    threads > 1; results keep the order of `jobs`."""
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda job: fn(*job), jobs))
    return [fn(*job) for job in jobs]


def _separated_kernel(bm, s, a, b, order):
    """Weighted kernel WK = (wa x wb) |x - y|^{-(1+2s)} (P, n, n) of the tensor
    Gauss rule on segments a and b, read from the cached bm.gauss_points(order)."""
    pts, wts, _ = bm.gauss_points(order)
    xq, yq = pts[a], pts[b]
    dx = xq[:, :, None, 0] - yq[:, None, :, 0]
    dy = xq[:, :, None, 1] - yq[:, None, :, 1]
    R2 = dx * dx + dy * dy
    return (wts[a][:, :, None] * wts[b][:, None, :]) * R2 ** (-(1.0 + 2.0 * s) / 2.0)


def _separated_chunk(bm, s, a, b, order):
    """(Caa, Cbb, Cab) blocks for one chunk of separated pairs."""
    WK = _separated_kernel(bm, s, a, b, order)
    hats = bm.gauss_points(order)[2]
    # the outer product keeps each Caa and Cbb bitwise symmetric
    hh = (hats[:, :, None] * hats[:, None, :]).reshape(len(hats), 4)
    Caa = (WK.sum(axis=2) @ hh).reshape(-1, 2, 2)
    Cbb = (WK.sum(axis=1) @ hh).reshape(-1, 2, 2)
    Cab = hats.T @ WK @ hats
    return Caa, Cbb, Cab


def nonlocal_matrix(bm: BoundaryMesh, s: float, threads: int = 1) -> np.ndarray:
    """Dense Galerkin matrix of the nonlocal boundary form over boundary nodes.

    Entries use the Euclidean chord distance |x - y|; the matrix is symmetric,
    positive semidefinite, annihilates constants, and scales like t**(1-2s)
    under coordinate scaling by t. threads > 1 evaluates the separated-pair
    chunks in a thread pool; the result is bitwise the same.
    """
    if not 0.0 < s < 1.0:
        raise AssemblyError(f"fractional order s={s} outside (0, 1)")
    S = bm.n_nodes
    if S < 3:
        raise AssemblyError("boundary mesh must have at least 3 segments")
    Theta = np.zeros((S, S))

    _identical_blocks(Theta, bm, s)
    _adjacent_blocks(Theta, bm, s, _ANGULAR_ORDER)

    lp = bm.local_pairs()
    for (a, b, _), (Caa, Cbb, Cab) in _separated_map(bm, partial(_separated_chunk, bm, s), threads):
        ia, ib = lp[a], lp[b]  # (P, 2) local node indices
        np.add.at(Theta, (ia[:, :, None], ia[:, None, :]), 2.0 * Caa)
        np.add.at(Theta, (ib[:, :, None], ib[:, None, :]), 2.0 * Cbb)
        np.add.at(Theta, (ia[:, :, None], ib[:, None, :]), -2.0 * Cab)
        np.add.at(Theta, (ib[:, :, None], ia[:, None, :]), -2.0 * Cab.transpose(0, 2, 1))
    return Theta


def check_theta_orders(bm: BoundaryMesh, s: float, theta, tolerance: float) -> None:
    """Order check of the separated-pair rules behind `theta`.

    Every separated pair's blocks at its ladder order are compared with the
    same blocks at twice that order. Raises QuadraturePairError for the worst
    pair of the first chunk whose largest discrepancy exceeds
    tolerance * max|theta|.
    """

    def discrepancy(a, b, order):
        lo_blocks = _separated_chunk(bm, s, a, b, order)
        hi_blocks = _separated_chunk(bm, s, a, b, 2 * order)
        return np.max([np.abs(lb - hb).max(axis=(1, 2)) for lb, hb in zip(lo_blocks, hi_blocks)], axis=0)

    scale = np.abs(theta).max()
    for (a, b, order), err in _separated_map(bm, discrepancy, 1):
        worst = int(np.argmax(err))
        if err[worst] > tolerance * scale:
            raise QuadraturePairError(
                (int(a[worst]), int(b[worst])),
                f"order-{order} vs order-{2*order} discrepancy "
                f"{err[worst]:.3e} exceeds {tolerance:.1e} * {scale:.3e}",
            )


# --- load vector ----------------------------------------------------------------


def _as_bulk_source(f):
    if callable(f):
        return f
    c = float(f)
    return lambda pts: np.full(len(np.atleast_2d(pts)), c)


# Gauss order per boundary segment for a callable, scalar or per-side g
_BOUNDARY_ORDER = 8


def load_vector(mesh: Mesh, f, g, threads: int = 1) -> np.ndarray:
    """Load vector: 3-point (degree-2) triangle rule for f; per-segment Gauss
    of order _BOUNDARY_ORDER or a supplied table for g on mesh.boundary. A g
    factory is built with `threads` (see nonlocal_matrix)."""
    bm = mesh.boundary
    load = np.zeros(mesh.n_nodes)

    fsrc = _as_bulk_source(f)
    lam, _ = tri_rule(2)
    pts, w = tri_points_weights(mesh.tri_verts, 2)
    try:
        fv = np.asarray(fsrc(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    except Exception as exc:  # noqa: BLE001 - report the failing location
        raise AssemblyError(f"bulk source evaluation failed on element batch: {exc}") from exc
    if not np.all(np.isfinite(fv)):
        t, k = np.argwhere(~np.isfinite(fv))[0]
        raise AssemblyError(f"bulk source not finite at {pts[t, k]}")
    contrib = np.einsum("tk,tk,kl->tl", w, fv, lam)
    np.add.at(load, mesh.triangles.ravel(), contrib.ravel())

    if hasattr(g, "build"):
        g = g.build(bm, threads)
    if isinstance(g, BoundaryLoadTable):
        vals = np.asarray(g.values, dtype=float)
        if len(vals) != bm.n_nodes:
            raise AssemblyError("boundary load table length mismatch")
        np.add.at(load, bm.boundary_nodes, vals)
        return load

    if isinstance(g, BoundaryQuadratureTable):
        gv = np.asarray(g.values, dtype=float)
        x = np.asarray(g.nodes, dtype=float)
        wts = np.asarray(g.weights, dtype=float)
        if gv.shape[0] != bm.n_segments:
            raise AssemblyError("boundary quadrature table shape mismatch")
        if not np.all(np.isfinite(gv)):
            si, ki = np.argwhere(~np.isfinite(gv))[0]
            p0, p1 = bm.segment_starts[si], bm.segment_ends[si]
            raise AssemblyError(f"boundary source not finite at {p0 + x[si, ki] * (p1 - p0)}")
        if g.point_masses:
            for local, weight in g.point_masses:
                load[bm.boundary_nodes[local]] += weight
        hats = np.stack([1.0 - x, x], axis=2)  # (S, K, 2)
        seg_contrib = np.einsum("sk,sk,skm->sm", wts, gv, hats)
    else:
        pts_b, wts, hats = bm.gauss_points(_BOUNDARY_ORDER)
        if callable(g):
            try:
                gv = np.asarray(g(pts_b.reshape(-1, 2)), dtype=float).reshape(pts_b.shape[:2])
            except Exception as exc:  # noqa: BLE001
                raise AssemblyError(f"boundary source evaluation failed: {exc}") from exc
        else:
            vals = np.atleast_1d(np.asarray(g, dtype=float))
            if vals.size == 1:
                gv = np.full(pts_b.shape[:2], float(vals[0]))
            elif vals.size == bm.mesh.polygon.n_sides:
                gv = np.repeat(vals[bm.side_ids][:, None], _BOUNDARY_ORDER, axis=1)
            else:
                raise AssemblyError("boundary source array must be scalar or per-side")
        if not np.all(np.isfinite(gv)):
            si, ki = np.argwhere(~np.isfinite(gv))[0]
            raise AssemblyError(f"boundary source not finite at {pts_b[si, ki]}")
        seg_contrib = np.einsum("sk,sk,km->sm", wts, gv, hats)

    gpairs = bm.node_pairs
    np.add.at(load, gpairs[:, 0], seg_contrib[:, 0])
    np.add.at(load, gpairs[:, 1], seg_contrib[:, 1])
    return load


def assemble_system(mesh: Mesh, spec: ProblemSpec, threads: int = 1) -> DiscreteSystem:
    """Assemble all operator blocks and the load for a problem instance; the
    boundary blocks live on mesh.boundary. `threads` as in nonlocal_matrix."""
    bm = mesh.boundary
    return DiscreteSystem(
        A_bulk=bulk_stiffness(mesh),
        A_bdry=boundary_stiffness(bm),
        M_b=boundary_mass(bm, spec.b),
        Theta=nonlocal_matrix(bm, spec.s, threads),
        load=load_vector(mesh, spec.f, spec.g, threads),
        mesh=mesh,
        spec=spec,
    )

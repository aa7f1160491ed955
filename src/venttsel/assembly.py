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
  (one ladder; the far class as blocks of kernel rows over the Gauss points,
  the mid and near classes pair by pair; both shared with the form-based load
  in verify).

Every pair contribution is a Gram-type block with positive quadrature weights,
so the assembled operator is symmetric positive semidefinite and annihilates
constants to roundoff by construction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import AssemblyError, RegularityRegimeWarning
from .geometry import Polygon
from .meshing import BoundaryMesh, Mesh
from .quadrature import gauss01, tri_points_weights, tri_rule

__all__ = [
    "ProblemSpec",
    "DiscreteSystem",
    "NodalField",
    "embed",
    "bulk_stiffness",
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


def _float_array(value) -> np.ndarray:
    """value as a float array. A str, bytes, bool or None, also as an element,
    raises TypeError: float conversion would read "2" as 2.0, True as 1.0 and
    None as NaN."""
    if any(isinstance(v, (str, bytes, bool, np.bool_, type(None))) for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"not a number: {value!r}")
    return np.asarray(value, dtype=float)


def _b_array(b) -> np.ndarray:
    """Boundary coefficient data as a flat float array, checked b >= 0."""
    try:
        vals = np.atleast_1d(_float_array(b))
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
    g : boundary source: callable, scalar, per-side array, or a source
        whose .build(boundary_mesh) returns the (S,) boundary load per
        boundary-local node
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
    def coercive(self) -> bool:
        """b not identically zero."""
        return bool(np.any(_b_array(self.b) > 0))


@dataclass(eq=False)
class DiscreteSystem:
    """Assembled operator and load of the discrete weak formulation.

    The global operator is `local`, the sparse part (the bulk stiffness plus
    the boundary stiffness and b-mass embedded through
    mesh.boundary.boundary_nodes), plus Theta on the boundary nodes.
    """

    local: sp.csr_matrix
    Theta: np.ndarray
    load: np.ndarray
    mesh: Mesh
    spec: ProblemSpec

    @property
    def n(self) -> int:
        return len(self.load)

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


def embed(mesh: Mesh, block) -> sp.csr_matrix:
    """(N, N) csr of a block (S, S) over mesh.boundary's nodes, dense or sparse."""
    bidx = mesh.boundary.boundary_nodes
    block = sp.coo_matrix(block)
    return sp.csr_matrix((block.data, (bidx[block.row], bidx[block.col])), shape=(mesh.n_nodes, mesh.n_nodes))


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


def _assemble_coo(idx: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate (E, k, k) element blocks on the (E, k) node lists idx into an
    (n, n) csr: k = 3 for triangles, 2 for boundary segments."""
    k = idx.shape[1]
    rows = np.repeat(idx, k, axis=1).ravel()
    cols = np.tile(idx, (1, k)).ravel()
    return sp.coo_matrix(
        (local.transpose(0, 2, 1).ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def bulk_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of the bulk Dirichlet form; exact, no quadrature.
    Built once per mesh and cached, shared by assembly and the norms."""
    if "stiffness" not in mesh._cache:
        g = _p1_gradients(mesh)
        local = mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)
        mesh._cache["stiffness"] = _assemble_coo(mesh.triangles, local, mesh.n_nodes)
    return mesh._cache["stiffness"]


# --- boundary local operators ---------------------------------------------------


def boundary_stiffness(bm: BoundaryMesh) -> sp.csr_matrix:
    """1D arc-length stiffness along the closed boundary polyline; exact.
    Built once per boundary mesh and cached, like bulk_stiffness."""
    if "stiffness" not in bm._cache:
        if np.any(bm.lengths <= 0):
            raise AssemblyError("zero-length boundary segment")
        pat = np.array([[1.0, -1.0], [-1.0, 1.0]])
        local = pat[None, :, :] / bm.lengths[:, None, None]
        bm._cache["stiffness"] = _assemble_coo(bm.local_pairs(), local, bm.n_nodes)
    return bm._cache["stiffness"]


def _per_side(polygon: Polygon, vals, name: str) -> np.ndarray:
    """(n_sides,) values of `name` from one number or one number per side."""
    vals = np.atleast_1d(np.asarray(vals, dtype=float))
    if vals.size == 1:
        return np.full(polygon.n_sides, float(vals[0]))
    if vals.size != polygon.n_sides:
        raise AssemblyError(f"per-side {name} needs {polygon.n_sides} values, got {vals.size}")
    return vals


def _b_segment_values(bm: BoundaryMesh, b) -> np.ndarray:
    """Boundary coefficient per segment from scalar or per-side data."""
    return _per_side(bm.mesh.polygon, _b_array(b), "b")[bm.side_ids]


def boundary_mass(bm: BoundaryMesh, b) -> sp.csr_matrix:
    """b-weighted boundary mass matrix; exact (b is constant per side)."""
    base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    local = (_b_segment_values(bm, b) * bm.lengths)[:, None, None] * base[None, :, :]
    return _assemble_coo(bm.local_pairs(), local, bm.n_nodes)


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


# Separated-pair order ladder: the distance-to-diameter ratio picks the far
# (ratio > _FAR_RATIO), mid or near (ratio <= _MID_RATIO) tensor Gauss order.
_FAR_RATIO = 4.0
_MID_RATIO = 1.0
_ORDERS = (4, 8, 12)
# Kernel entries (pairs x n^2) per chunk of separated pairs, and per block of
# far kernel rows, are at most _CHUNK_SIZE * 64 (read at call time): one
# order-8 chunk of _CHUNK_SIZE pairs
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


def _separated_chunks(classes):
    """(a, b, n) chunks of each (a, b, n) class in `classes` (a slice of
    _separated_pairs, or those classes at another order n), in class order;
    a chunk holds at most _CHUNK_SIZE * 64 kernel entries (pairs x n^2)."""
    for a, b, n in classes:
        step = max(1, _CHUNK_SIZE * 64 // (n * n))
        for lo in range(0, len(a), step):
            yield a[lo : lo + step], b[lo : lo + step], n


def _separated_kernel(bm, s, a, b, order):
    """Weighted kernel WK = (wa x wb) |x - y|^{-(1+2s)} (P, n, n) of the tensor
    Gauss rule on segments a and b, read from the cached bm.gauss_points(order).
    Built in place, so it holds at most two (P, n, n) arrays at a time."""
    pts, wts, _ = bm.gauss_points(order)
    xq, yq = pts[a], pts[b]
    R2 = xq[:, :, None, 0] - yq[:, None, :, 0]
    dy = xq[:, :, None, 1] - yq[:, None, :, 1]
    R2 *= R2
    dy *= dy
    R2 += dy
    del dy
    R2 **= -(1.0 + 2.0 * s) / 2.0
    WK = wts[a][:, :, None] * wts[b][:, None, :]
    WK *= R2
    return WK


def _hat_products(hats):
    """(n, 4) products hats[:, m] * hats[:, l]; the outer product keeps the
    2 x 2 blocks contracted with it bitwise symmetric."""
    return (hats[:, :, None] * hats[:, None, :]).reshape(len(hats), 4)


def _separated_chunk(bm, s, a, b, order):
    """(Caa, Cbb, Cab) blocks for one chunk of separated pairs."""
    WK = _separated_kernel(bm, s, a, b, order)
    hats = bm.gauss_points(order)[2]
    hh = _hat_products(hats)
    Caa = (WK.sum(axis=2) @ hh).reshape(-1, 2, 2)
    Cbb = (WK.sum(axis=1) @ hh).reshape(-1, 2, 2)
    Cab = hats.T @ WK @ hats
    return Caa, Cbb, Cab


def _far_kernel(bm, s, order, r0, r1):
    """Far-class kernel rows R = |x - y|^{-(1+2s)}, without quadrature weights:
    the Gauss points of segments r0 .. r1-1 against those of segments
    r0 .. S-1, shape ((r1 - r0) n, (S - r0) n) for n = order.

    A segment pair (a, b) outside the far class (b <= a, adjacent, or in the
    mid or near class) gets R2 = inf before the power, so its entries are
    exactly 0.
    """
    S = bm.n_segments
    pts = bm.gauss_points(order)[0]
    x, y = pts[r0:r1].reshape(-1, 2), pts[r0:].reshape(-1, 2)
    R2 = np.subtract.outer(x[:, 0], y[:, 0])
    dy = np.subtract.outer(x[:, 1], y[:, 1])
    R2 *= R2
    dy *= dy
    R2 += dy
    del dy
    # segment pairs (a, b) outside the far class, as block-local (a - r0, b - r0)
    close = [np.tril_indices(r1 - r0, 1, S - r0)]
    if r0 == 0:
        close.append(([0], [S - 1]))  # segments 0 and S-1 share node 0
    for a, b, _ in _separated_pairs(bm)[1:]:
        keep = (a >= r0) & (a < r1)
        close.append((a[keep] - r0, b[keep] - r0))
    ia, ib = (np.concatenate(c) for c in zip(*close))
    R2.reshape(r1 - r0, order, S - r0, order)[ia, :, ib, :] = np.inf
    np.power(R2, -(1.0 + 2.0 * s) / 2.0, out=R2)
    return R2


def _far_blocks(bm, s, order, V, G):
    """Far row blocks (r0, r1, R), R = _far_kernel(bm, s, order, r0, r1), in
    row order. Before yielding a block, adds its part of F V to G, where F is
    the far kernel over all Gauss points with both orders of each pair
    (F = F^T) and V, G have shape (S * order, k).

    Blocks hold a fixed number of segment rows, so each R has at most
    _CHUNK_SIZE * 64 entries (the size of one order-8 chunk of _CHUNK_SIZE
    pairs) unless one row alone is larger. Neither this generator nor its
    callers keep an R past its loop step, so one block is held at a time.
    """
    S = bm.n_segments
    rows = max(1, _CHUNK_SIZE * 64 // (order * order * S))
    for r0 in range(0, S, rows):
        r1 = min(r0 + rows, S)
        R = _far_kernel(bm, s, order, r0, r1)
        G[r0 * order : r1 * order] += R @ V[r0 * order :]
        G[r0 * order :] += (V[r0 * order : r1 * order].T @ R).T
        yield r0, r1, R
        del R


def _theta_fold(bm, s):
    """The identical-segment and separated-pair parts of Theta, in one fold.

    Cross terms of the separated pairs a < b go into X over node rows and
    columns, (S + 1, S + 1) with node S standing for node 0: a pair's 2 x 2
    block lands on rows a, a+1 and columns b, b+1. Self terms go into D, (S, 4)
    per segment over the hat products of its nodes k, k+1. Then
    Theta = -2 (X + X^T) plus the cyclic tridiagonal of 2 D.

    The mid and near classes add _separated_chunk's blocks pair by pair. The
    far class runs as blocks of kernel rows (_far_blocks). With Gauss weights
    w_i = L_a v_i on segment a (v the rule on [0, 1]), its cross term
    hats^T diag(w) R diag(w) hats is L_a L_b (v hats)^T R (v hats), and its
    self terms are the per-point sums w (F w) contracted with the hat products.
    Each segment on itself has the closed form e [[1, -1], [-1, 1]] with
    e = L^{1-2s} / ((2-2s)(3-2s)), a self term too.
    """
    S = bm.n_segments
    far, *close = _separated_pairs(bm)
    order = far[2]
    _, wts, hats = bm.gauss_points(order)
    vhats = gauss01(order)[1][:, None] * hats
    L = bm.lengths
    X = np.zeros((S + 1, S + 1))
    w = wts.reshape(-1, 1)
    G = np.zeros_like(w)
    D = np.zeros((S, 4))
    m = np.arange(2)
    # the mid and near chunks go first: after the far blocks, their
    # temporaries raised the converge command's peak RSS by about 1 MB at S = 512
    for a, b, n in _separated_chunks(close):
        Caa, Cbb, Cab = _separated_chunk(bm, s, a, b, n)
        np.add.at(X, (a[:, None, None] + m[:, None], b[:, None, None] + m), Cab)
        np.add.at(D, a, Caa.reshape(-1, 4))
        np.add.at(D, b, Cbb.reshape(-1, 4))
    for r0, r1, R in _far_blocks(bm, s, order, w, G):
        nr, C = r1 - r0, S - r0
        Z = (vhats.T @ (R.reshape(-1, order) @ vhats).reshape(nr, order, 2 * C)).reshape(nr, 2, C, 2)
        del R  # before _far_blocks builds the next block
        Z *= np.multiply.outer(L[r0:r1], L[r0:])[:, None, :, None]
        for i, j in np.ndindex(2, 2):
            X[r0 + i : r1 + i, r0 + j : S + j] += Z[:, i, :, j]
        del Z
    D += (w * G).reshape(S, order) @ _hat_products(hats)
    D += np.outer(L ** (1.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s)), [1.0, -1.0, -1.0, 1.0])
    X[:, 0] += X[:, S]  # row S stays zero: a pair's rows a, a+1 are below S
    Theta = X[:S, :S] + X[:S, :S].T
    Theta *= -2.0
    k = np.arange(S)
    kn = (k + 1) % S
    Theta[k, k] += 2.0 * (D[:, 0] + np.roll(D[:, 3], 1))
    # the (k, k+1) term serves both sides, so the band is symmetric to the bit
    Theta[k, kn] += 2.0 * D[:, 1]
    Theta[kn, k] += 2.0 * D[:, 1]
    return Theta


def _adjacent_rule(bm, s, k):
    """Radial-exact Duffy rule of the adjacent segment pairs (k, k+1 mod S),
    shared by Theta and the form-based load in verify.

    The arcs run from the shared node P = node k+1 along ea = -t_k and
    eb = t_{k+1}, so x - y = U (a ea - b eb) with U in [0, 1] the radial
    variable, split into two triangles at the shared node. Returns P, ea, eb
    (K, 2) and, per triangle, (a, b, wg, dh): the arc offsets a, b (K, m) of
    the angular Gauss points at U = 1, the angular weights
    wg = La Lb wv |a ea - b eb|^{-(1+2s)} (K, m), and the hats' angular
    factors dh (3, m) on the nodes [shared, far_a, far_b], m = _ANGULAR_ORDER.
    The radial factor left is U^(2-2s) times (u(x) - u(y)) / U.
    """
    kn = (k + 1) % bm.n_nodes
    La, Lb = bm.lengths[k][:, None], bm.lengths[kn][:, None]
    ea, eb = -bm.tangents[k], bm.tangents[kn]
    cos = np.einsum("kd,kd->k", ea, eb)[:, None]
    v, wv = gauss01(_ANGULAR_ORDER)
    ones = np.ones_like(v)
    parts = []
    # xi = La U, eta = Lb U v; then xi = La U v, eta = Lb U
    for a, b, dh in ((La * ones, Lb * v, (v - 1.0, ones, -v)), (La * v, Lb * ones, (1.0 - v, v, -ones))):
        g2 = a * a + b * b - 2.0 * a * b * cos
        parts.append((a, b, (La * Lb) * wv * g2 ** (-(1.0 + 2.0 * s) / 2.0), np.array(dh)))
    return bm.mesh.nodes[bm.boundary_nodes[kn]], ea, eb, parts


def nonlocal_matrix(bm: BoundaryMesh, s: float) -> np.ndarray:
    """Dense Galerkin matrix of the nonlocal boundary form over boundary nodes.

    Entries use the Euclidean chord distance |x - y|; the matrix is symmetric
    to the bit, positive semidefinite, annihilates constants, and scales like
    t**(1-2s) under coordinate scaling by t. The identical segments and the
    separated pairs go through one fold (_theta_fold); the adjacent pairs take
    the Duffy rule (_adjacent_rule) with the exact radial moment 1 / (3 - 2s).
    """
    if not 0.0 < s < 1.0:
        raise AssemblyError(f"fractional order s={s} outside (0, 1)")
    S = bm.n_nodes
    if S < 3:
        raise AssemblyError("boundary mesh must have at least 3 segments")
    Theta = _theta_fold(bm, s)
    k = np.arange(S)
    *_, parts = _adjacent_rule(bm, s, k)
    # each (m, n) entry once, so every 3 x 3 block is symmetric; the factor 2
    # because an unordered pair stands for both (a, b) and (b, a)
    m, n = np.triu_indices(3)
    upper = sum(wg @ (dh[m] * dh[n]).T for _, _, wg, dh in parts) * (2.0 / (3.0 - 2.0 * s))
    C = np.empty((S, 3, 3))
    C[:, m, n] = C[:, n, m] = upper
    dofs = np.column_stack([(k + 1) % S, k, (k + 2) % S])  # [shared, far_a, far_b]
    np.add.at(Theta, (dofs[:, :, None], dofs[:, None, :]), C)
    return Theta


def check_theta_orders(bm: BoundaryMesh, s: float, theta) -> float:
    """Order check of the separated-pair rules behind `theta`.

    Every separated pair's blocks at its ladder order are compared with the
    same blocks at twice that order. Returns the largest discrepancy over all
    pairs relative to max|theta|.
    """
    worst = 0.0
    # chunks cut for the doubled order, the larger of the two kernels
    for a, b, n in _separated_chunks([(a, b, 2 * order) for a, b, order in _separated_pairs(bm)]):
        lo_blocks = _separated_chunk(bm, s, a, b, n // 2)
        hi_blocks = _separated_chunk(bm, s, a, b, n)
        worst = max(worst, max(np.abs(lb - hb).max() for lb, hb in zip(lo_blocks, hi_blocks)))
    return float(worst / np.abs(theta).max())


# --- load vector ----------------------------------------------------------------


def _as_bulk_source(f):
    if callable(f):
        return f
    try:
        c = _float_array(f)
        if c.ndim:
            raise ValueError
    except (TypeError, ValueError):
        raise AssemblyError(f"bulk source f must be a callable or a number, got {f!r}") from None
    c = float(c)
    return lambda pts: np.full(len(np.atleast_2d(pts)), c)


# Gauss order per boundary segment for a callable, scalar or per-side g
_BOUNDARY_ORDER = 8


def load_vector(mesh: Mesh, f, g) -> np.ndarray:
    """Load vector: 3-point (degree-2) triangle rule for f. On mesh.boundary,
    a callable, scalar or per-side g is integrated by per-segment Gauss of
    order _BOUNDARY_ORDER; any other g is a source, whose g.build(boundary)
    returns the (S,) boundary load per boundary-local node."""
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
        vals = np.asarray(g.build(bm), dtype=float)
        if vals.shape != (bm.n_nodes,):
            raise AssemblyError(f"boundary load has shape {vals.shape}, expected ({bm.n_nodes},)")
        if not np.all(np.isfinite(vals)):
            k = int(np.argmax(~np.isfinite(vals)))
            raise AssemblyError(
                f"boundary load not finite at boundary node {k} ({mesh.nodes[bm.boundary_nodes[k]]})"
            )
        np.add.at(load, bm.boundary_nodes, vals)
        return load

    pts_b, wts, hats = bm.gauss_points(_BOUNDARY_ORDER)
    if callable(g):
        try:
            gv = np.asarray(g(pts_b.reshape(-1, 2)), dtype=float).reshape(pts_b.shape[:2])
        except Exception as exc:  # noqa: BLE001
            raise AssemblyError(f"boundary source evaluation failed: {exc}") from exc
    else:
        try:
            vals = _per_side(bm.mesh.polygon, _float_array(g), "g")
        except (TypeError, ValueError):
            raise AssemblyError(
                "boundary source g must be a callable, a number, one number per side "
                f"or a source with .build, got {g!r}"
            ) from None
        gv = np.repeat(vals[bm.side_ids][:, None], _BOUNDARY_ORDER, axis=1)
    if not np.all(np.isfinite(gv)):
        si, ki = np.argwhere(~np.isfinite(gv))[0]
        raise AssemblyError(f"boundary source not finite at {pts_b[si, ki]}")
    seg_contrib = np.einsum("sk,sk,km->sm", wts, gv, hats)
    gpairs = bm.node_pairs
    np.add.at(load, gpairs[:, 0], seg_contrib[:, 0])
    np.add.at(load, gpairs[:, 1], seg_contrib[:, 1])
    return load


def assemble_system(mesh: Mesh, spec: ProblemSpec) -> DiscreteSystem:
    """Assemble the operator and the load for a problem instance; the boundary
    blocks live on mesh.boundary. `local` is composed after Theta and the load,
    so it can take memory their temporaries have freed: the order of these
    allocations moves a run's peak RSS."""
    bm = mesh.boundary
    A_bulk, A_bdry, M_b = bulk_stiffness(mesh), boundary_stiffness(bm), boundary_mass(bm, spec.b)
    Theta = nonlocal_matrix(bm, spec.s)
    load = load_vector(mesh, spec.f, spec.g)
    return DiscreteSystem(
        local=(A_bulk + embed(mesh, A_bdry + M_b)).tocsr(),
        Theta=Theta,
        load=load,
        mesh=mesh,
        spec=spec,
    )

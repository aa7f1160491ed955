"""Conjugate-gradient solve of the assembled system plus spectral diagnostics."""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import DiscreteSystem, NodalField
from .errors import SolverError

__all__ = [
    "SolveReport",
    "solve",
    "direct_solve",
    "min_eigenpair",
    "stability_ratio",
]

log = logging.getLogger("venttsel")

_HYPOTHESIS = "coercivity needs b >= 0 with b not identically zero on the boundary"
# Half-width of Theta's cyclic band in the CG preconditioner: with the row-sum
# compensation, 4 keeps the iteration count at 18-19 from N = 3.6k to 57k on
# the L-shape; wider bands cost more in the factorization
_NEAR_BAND = 4
_DIRECT_CAP = 2000  # unknowns of the dense direct cross-check
_EIGEN_CAP = 512  # boundary nodes of the eigensolve


@dataclass(eq=False)
class SolveReport:
    iterations: int
    relative_residual: float
    solve_seconds: float
    lambda_min_estimate: float | None = None


def solve(
    system: DiscreteSystem,
    tol: float = 1e-10,
    maxit: int | None = None,
) -> tuple[NodalField, SolveReport]:
    """Preconditioned conjugate gradients on the global operator A.

    The preconditioner is one sparse LU of P = local + Theta's near band
    (the entries at cyclic boundary-local distance <= _NEAR_BAND, with each
    row's dropped entries added to its diagonal), factored once per solve
    with a minimum-degree ordering on P^T + P. The dropped far entries are
    negative, so A - P is the graph Laplacian of the far couplings: it is
    positive semidefinite and annihilates constants, so lambda_min(P^-1 A)
    is 1, attained at constant traces. P is factored
    with its unknowns sorted by node coordinates (y, then x), so the
    ordering's tie-breaks, and with them the fill, depend on the mesh's
    geometry and not on its node numbering; CG runs in the mesh's numbering.
    P holds the bulk and local boundary forms exactly, so the iteration
    count stays nearly flat under refinement. CG starts from zero and stops
    at relative residual <= tol; solve_seconds includes the factorization.
    One INFO line per solve goes to the `venttsel` logger.

    Requires a coercive problem (b not identically zero); the indefinite case
    is reported as a violated hypothesis, not silently iterated.
    """
    if not system.spec.coercive:
        raise SolverError(f"system is singular for b == 0; {_HYPOTHESIS}")
    if tol <= 0:
        raise SolverError("solver tolerance must be positive")
    n = system.n
    n_boundary = system.mesh.boundary.n_nodes
    maxit = maxit if maxit is not None else 10 * n

    bvec = system.load
    bnorm = float(np.linalg.norm(bvec))
    t0 = time.perf_counter()
    if bnorm == 0.0:
        report = SolveReport(0, 0.0, time.perf_counter() - t0)
        log.info("solve N=%d S=%d: zero load, zero solution", n, n_boundary)
        return NodalField(np.zeros(n), system.mesh), report

    if np.any(system.diagonal() <= 0):
        raise SolverError(f"non-positive diagonal entry; {_HYPOTHESIS}")
    nodes = system.mesh.nodes
    perm = np.lexsort((nodes[:, 0], nodes[:, 1]))
    P = (system.local + system.embed(_near_band(system.Theta, _NEAR_BAND)))[perm][:, perm].tocsc()
    try:
        lu = spla.splu(P, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"preconditioner factorization failed ({exc}); {_HYPOTHESIS}") from exc
    factor_seconds = time.perf_counter() - t0

    def precondition(r):
        z = np.empty(n)
        z[perm] = lu.solve(r[perm])
        return z

    x = np.zeros(n)
    r = bvec.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    history = [float(np.linalg.norm(r)) / bnorm]
    alphas, betas = [], []
    it = 0
    while history[-1] > tol and it < maxit:
        Ap = system.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                f"negative curvature in CG (p^T A p = {pAp:.3e}); {_HYPOTHESIS}",
                residual_history=history,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
        alphas.append(alpha)
        betas.append(beta)
        it += 1
        history.append(float(np.linalg.norm(r)) / bnorm)
    if history[-1] > tol:
        raise SolverError(
            f"CG did not reach tol={tol:.1e} in {maxit} iterations "
            f"(residual {history[-1]:.3e})",
            residual_history=history,
        )
    report = SolveReport(
        iterations=it,
        relative_residual=history[-1],
        solve_seconds=time.perf_counter() - t0,
        lambda_min_estimate=_lanczos_lambda_min(alphas, betas),
    )
    log.info(
        "solve N=%d S=%d band=%d nnz(L+U)=%d factor=%.3fs iterations=%d "
        "relative_residual=%.3e lambda_min=%s",
        n, n_boundary, _NEAR_BAND, lu.nnz, factor_seconds, it,
        history[-1], report.lambda_min_estimate,
    )
    return NodalField(x, system.mesh), report


def _near_band(theta: np.ndarray, width: int) -> sp.csr_matrix:
    """Theta's entries at cyclic boundary-local distance |i - j| <= width, with
    each row's dropped entries added to its diagonal (row-sum compensation)."""
    S = len(theta)
    offsets = np.unique(np.arange(-width, width + 1) % S)
    rows = np.repeat(np.arange(S), len(offsets))
    cols = (rows + np.tile(offsets, S)) % S
    band = sp.csr_matrix((theta[rows, cols], (rows, cols)), shape=(S, S))
    band.setdiag(band.diagonal() + theta.sum(axis=1) - np.asarray(band.sum(axis=1)).ravel())
    return band


def _lanczos_lambda_min(alphas, betas):
    """Smallest Ritz value of the CG-Lanczos tridiagonal matrix.

    Estimates lambda_min(P^-1 A) of the preconditioned operator (P the
    compensated near-band preconditioner of `solve`, so the exact value is 1)
    from the run's own coefficients: 1 / alpha_0 after one step, None when CG
    took no step.
    """
    k = len(alphas)
    if k == 0:
        return None
    diag = np.empty(k)
    off = np.empty(k - 1)
    diag[0] = 1.0 / alphas[0]
    for j in range(1, k):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off[j - 1] = math.sqrt(max(betas[j - 1], 0.0)) / alphas[j - 1]
    return float(scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)[0])


def direct_solve(system: DiscreteSystem) -> NodalField:
    """Dense direct solve; independent cross-check for small systems."""
    if system.n > _DIRECT_CAP:
        raise SolverError(f"direct solve capped at {_DIRECT_CAP} unknowns (got {system.n})")
    x = scipy.linalg.solve(system.dense(), system.load, assume_a="sym")
    return NodalField(x, system.mesh)


def _global_sparse(system: DiscreteSystem) -> sp.csr_matrix:
    return system.local + system.embed(system.Theta)


def min_eigenpair(system: DiscreteSystem):
    """Smallest eigenvalue and eigenvector of the global operator (the
    eigenvalue is the coercivity certificate)."""
    n_boundary = system.mesh.boundary.n_nodes
    if n_boundary > _EIGEN_CAP:
        raise SolverError(
            f"min_eigenpair capped at {_EIGEN_CAP} boundary nodes (got {n_boundary})"
        )
    if system.n <= 4000:
        w, v = scipy.linalg.eigh(_global_sparse(system).toarray())
        return float(w[0]), v[:, 0]
    A = _global_sparse(system)
    shift = -1e-8 * abs(A.diagonal()).max()
    w, v = spla.eigsh(A, k=1, sigma=shift, which="LM")
    return float(w[0]), v[:, 0]


def stability_ratio(u: NodalField, spec, f_norm: float, g_norm: float) -> float:
    """Discrete witness of the data-to-solution stability constant.

    Returns the composite norm of u divided by ||f||_L2(bulk) + ||g||_L2(bdry);
    zero data is rejected (the ratio is undefined).
    """
    from .analysis import v1_norm  # local import to avoid a cycle

    denom = float(f_norm) + float(g_norm)
    if denom <= 0.0:
        raise SolverError("stability ratio undefined for zero data")
    return v1_norm(u) / denom

import gc
import logging
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from venttsel import solver
from venttsel.assembly import (
    NodalField,
    ProblemSpec,
    assemble_system,
    boundary_mass,
    boundary_stiffness,
    bulk_stiffness,
    embed,
)
from venttsel.errors import SolverError
from venttsel.geometry import build_polygon
from venttsel.meshing import Mesh, extract_boundary, refine, triangulate
from venttsel.solver import (
    direct_solve,
    min_eigenpair,
    solve,
    stability_ratio,
)
from venttsel.verify import lshape_benchmark


@pytest.fixture(scope="module")
def patch_system(square_mesh):
    spec = ProblemSpec(s=0.5, b=1.0, f=0.0, g=1.0)
    return assemble_system(square_mesh, spec)


def test_patch_solution_is_one(patch_system):
    u, report = solve(patch_system, tol=1e-13)
    assert np.abs(u.values - 1.0).max() <= 1e-10
    assert report.relative_residual <= 1e-13
    assert report.iterations > 0
    assert report.lambda_min_estimate is not None and report.lambda_min_estimate > 0


def test_direct_solve_cross_check(patch_system):
    u = direct_solve(patch_system)
    assert np.abs(u.values - 1.0).max() <= 1e-10


def test_zero_load_zero_solution(square_mesh):
    spec = ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0)
    u, report = solve(assemble_system(square_mesh, spec))
    assert np.abs(u.values).max() == 0.0
    assert report.iterations == 0


def test_solve_rejects_non_coercive(square_mesh):
    spec = ProblemSpec(s=0.5, b=0.0, f=1.0, g=0.0)
    system = assemble_system(square_mesh, spec)
    with pytest.raises(SolverError, match="b"):
        solve(system)


def test_maxit_exceeded_carries_history(square_mesh):
    spec = ProblemSpec(s=0.5, b=1.0, f=1.0, g=0.0)
    system = assemble_system(square_mesh, spec)
    with pytest.raises(SolverError) as exc:
        solve(system, tol=1e-14, maxit=2)
    assert exc.value.residual_history is not None
    assert len(exc.value.residual_history) >= 2


def test_negative_curvature_detected(square_mesh, square_bm):
    spec = ProblemSpec(s=0.5, b=1.0, f=1.0, g=0.0)
    system = assemble_system(square_mesh, spec)
    system.Theta = -50.0 * np.eye(square_bm.n_nodes)  # sabotage: indefinite block
    with pytest.raises(SolverError, match="curvature|diagonal"):
        solve(system)


def test_solver_linearity(square_mesh):
    f1 = lambda p: np.atleast_2d(p)[:, 0]
    f2 = lambda p: np.cos(np.atleast_2d(p)[:, 1])
    spec1 = ProblemSpec(s=0.4, b=1.0, f=f1, g=0.0)
    spec2 = ProblemSpec(s=0.4, b=1.0, f=f2, g=0.0)
    spec12 = ProblemSpec(
        s=0.4, b=1.0, f=lambda p: f1(p) + f2(p), g=0.0
    )
    u1, _ = solve(assemble_system(square_mesh, spec1), tol=1e-12)
    u2, _ = solve(assemble_system(square_mesh, spec2), tol=1e-12)
    u12, _ = solve(assemble_system(square_mesh, spec12), tol=1e-12)
    scale = np.abs(u12.values).max()
    assert np.abs(u12.values - u1.values - u2.values).max() <= 1e-9 * scale


def test_galerkin_residual(square_mesh):
    spec = ProblemSpec(s=0.5, b=1.0, f=1.0, g=0.5)
    system = assemble_system(square_mesh, spec)
    tol = 1e-11
    u, _ = solve(system, tol=tol)
    res = system.matvec(u.values) - system.load
    assert np.linalg.norm(res) <= tol * np.linalg.norm(system.load)


def test_min_eigenvalue_degenerate(square_mesh):
    spec = ProblemSpec(s=0.5, b=0.0, f=0.0, g=0.0)
    lam, vec = min_eigenpair(assemble_system(square_mesh, spec))
    assert abs(lam) <= 1e-10
    cos = abs(vec @ np.ones(len(vec))) / (np.linalg.norm(vec) * np.sqrt(len(vec)))
    assert cos >= 1.0 - 1e-8


def test_dense_matches_sparse_sum(lshape_mesh):
    # dense(), which min_eigenpair decomposes, is the sparse operator
    # local + embed(Theta) bit for bit
    system = assemble_system(lshape_mesh, ProblemSpec(s=0.5, b=[1.0, 0.5, 2.0, 0.0, 1.5, 1.0], f=0.0, g=0.0))
    assert np.array_equal(system.dense(), (system.local + embed(system.mesh, system.Theta)).toarray())


def test_min_eigenvalue_coercive_and_monotone(square, square_mesh):
    lam1 = min_eigenpair(
        assemble_system(square_mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
    )[0]
    assert lam1 > 0
    lam2 = min_eigenpair(
        assemble_system(square_mesh, ProblemSpec(s=0.5, b=2.0, f=0.0, g=0.0))
    )[0]
    assert lam2 >= lam1 - 1e-14


def test_min_eigenvalue_cap(square, monkeypatch):
    mesh = triangulate(square, 0.25)
    system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
    monkeypatch.setattr(solver, "_EIGEN_CAP", 4)
    with pytest.raises(SolverError):
        min_eigenpair(system)


def test_min_eigenvalue_dense_cap(square, monkeypatch):
    mesh = triangulate(square, 0.25)
    system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
    monkeypatch.setattr(solver, "_EIGEN_DENSE_CAP", system.n - 1)
    with pytest.raises(SolverError, match="unknowns"):
        min_eigenpair(system)


def test_coercivity_persistence(square):
    # smallest eigenvalue normalized by the boundary-mass floor stays bounded
    from venttsel.assembly import boundary_mass

    vals = []
    mesh = triangulate(square, 0.5)
    for _ in range(3):
        bm = extract_boundary(mesh)
        system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
        lam = min_eigenpair(system)[0]
        mass_floor = np.linalg.eigvalsh(boundary_mass(bm, 1.0).toarray())[0]
        vals.append(lam / mass_floor)
        mesh = refine(mesh)
    assert min(vals) >= 0.1 * max(vals)
    assert min(vals) > 0


def test_stability_ratio_examples(patch_system):
    u, _ = solve(patch_system, tol=1e-12)
    # f = 0, g = 1 on perimeter 4: ||g|| = 2, ||u||_V1 = 2
    assert stability_ratio(u, 0.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    # scaling the data leaves the ratio unchanged
    doubled = assemble_system(patch_system.mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=2.0))
    u2, _ = solve(doubled, tol=1e-12)
    assert stability_ratio(u2, 0.0, 4.0) == pytest.approx(
        stability_ratio(u, 0.0, 2.0), rel=1e-9
    )
    with pytest.raises(SolverError):
        stability_ratio(u, 0.0, 0.0)


def _block_matvec(system, v):
    """The operator applied block by block, without the cached local matrix."""
    bm = system.mesh.boundary
    bidx = bm.boundary_nodes
    out = bulk_stiffness(system.mesh) @ v
    vb = v[bidx]
    out[bidx] += boundary_stiffness(bm) @ vb + boundary_mass(bm, system.spec.b) @ vb + system.Theta @ vb
    return out


@pytest.mark.filterwarnings("ignore::venttsel.errors.RegularityRegimeWarning")
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("polygon", ["square", "lshape"])
def test_preconditioned_cg_matches_direct_solve(polygon, s, request):
    poly = request.getfixturevalue(polygon)
    b = np.linspace(0.5, 2.0, poly.n_sides)
    f = lambda p: 1.0 + np.atleast_2d(p)[:, 0]
    g = lambda p: np.cos(np.atleast_2d(p)[:, 1])
    system = assemble_system(triangulate(poly, 1.0 / 8), ProblemSpec(s=s, b=b, f=f, g=g))
    u, report = solve(system, tol=1e-13)
    reference = direct_solve(system).values
    assert report.iterations > 1
    assert np.abs(u.values - reference).max() <= 1e-10 * np.abs(reference).max()


def test_preconditioned_cg_iterations_lshape(lshape):
    bench = lshape_benchmark()
    system = assemble_system(triangulate(lshape, 1.0 / 32), bench.spec())
    _, report = solve(system, tol=1e-10)
    assert system.n == 3608
    assert report.iterations <= 30  # Jacobi-preconditioned CG took 285


def test_compensated_band_leaves_psd_remainder(lshape_mesh):
    # A - P is the graph Laplacian of Theta's dropped far couplings: positive
    # semidefinite and zero on constants, so lambda_min(P^-1 A) = 1
    system = assemble_system(lshape_mesh, lshape_benchmark().spec())
    P = system.local + embed(system.mesh, solver._near_band(system.Theta, solver._NEAR_BAND))
    A = system.dense()
    remainder = A - P.toarray()
    assert system.mesh.boundary.n_nodes > 2 * solver._NEAR_BAND + 1
    assert np.linalg.eigvalsh(remainder)[0] >= -1e-12 * np.abs(A).max()
    assert np.abs(remainder.sum(axis=1)).max() <= 1e-12 * np.abs(A).max()


def test_preconditioned_cg_iterations_lshape_h64(lshape):
    # the row-sum compensation cut the iterations from 21 to 19 here (and from
    # 29 to 19 at h = 1/128)
    system = assemble_system(triangulate(lshape, 1.0 / 64), lshape_benchmark().spec())
    _, report = solve(system, tol=1e-10)
    assert system.n == 14318
    assert report.iterations <= 19


def test_fused_matvec_matches_blocks(lshape_mesh, rng):
    system = assemble_system(lshape_mesh, ProblemSpec(s=0.3, b=[1.0, 2.0, 0.5, 1.0, 3.0, 1.5], f=0.0, g=0.0))
    for _ in range(3):
        v = rng.normal(size=system.n)
        expected = _block_matvec(system, v)
        assert np.abs(system.matvec(v) - expected).max() <= 1e-14 * np.abs(expected).max()


def test_failed_factorization_raises(patch_system, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.spla, "splu", singular)
    with pytest.raises(SolverError, match="preconditioner factorization failed"):
        solve(patch_system)


def test_solve_logs_one_info_line(patch_system, caplog):
    caplog.set_level(logging.INFO, logger="venttsel")
    _, report = solve(patch_system, tol=1e-12)
    records = [r for r in caplog.records if r.name == "venttsel"]
    assert len(records) == 1 and records[0].levelno == logging.INFO
    message = records[0].getMessage()
    S = patch_system.mesh.boundary.n_nodes
    assert f"N={patch_system.n} S={S} band={solver._NEAR_BAND} nnz(L+U)=" in message
    assert f"iterations={report.iterations} " in message
    assert f"relative_residual={report.relative_residual:.3e}" in message
    assert f"lambda_min={report.lambda_min_estimate}" in message


def _nnz_and_report(system, caplog):
    caplog.clear()
    u, report = solve(system, tol=1e-10)
    (record,) = [r for r in caplog.records if r.name == "venttsel"]
    return int(re.search(r"nnz\(L\+U\)=(\d+)", record.getMessage()).group(1)), u, report


def test_preconditioner_fill_independent_of_numbering(square, rng, caplog):
    # the same refined square with its nodes numbered at random: the factor's
    # fill, the iteration count and the solution do not change
    mesh = refine(refine(refine(triangulate(square, 0.25))))
    order = rng.permutation(mesh.n_nodes)  # new number -> old number
    new_number = np.argsort(order)
    renumbered = Mesh(
        nodes=mesh.nodes[order],
        triangles=new_number[mesh.triangles],
        polygon=square,
    )
    spec = ProblemSpec(s=0.7, b=1.0, f=lambda p: 1.0 + np.atleast_2d(p)[:, 0], g=0.5)
    caplog.set_level(logging.INFO, logger="venttsel")
    nnz, u, report = _nnz_and_report(assemble_system(mesh, spec), caplog)
    nnz2, u2, report2 = _nnz_and_report(assemble_system(renumbered, spec), caplog)
    assert nnz2 == nnz
    assert report2.iterations == report.iterations
    assert np.abs(u2.values[new_number] - u.values).max() <= 1e-12 * np.abs(u.values).max()


def test_solve_releases_factor(patch_system, monkeypatch):
    # no reference cycle keeps the factor alive after solve returns, so it is
    # freed at once even with the cyclic collector off
    factors = []
    splu = solver.spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, r):
            return self.lu.solve(r)

    def recording_splu(*args, **kwargs):
        factor = Factor(splu(*args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(solver, "spla", SimpleNamespace(splu=recording_splu))
    enabled = gc.isenabled()
    gc.disable()
    try:
        solve(patch_system, tol=1e-12)
        assert len(factors) == 1 and factors[0]() is None
    finally:
        if enabled:
            gc.enable()

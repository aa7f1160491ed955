import numpy as np
import pytest

from venttsel.assembly import NodalField, ProblemSpec, assemble_system
from venttsel.errors import SolverError
from venttsel.geometry import build_polygon
from venttsel.meshing import extract_boundary, refine, triangulate
from venttsel.solver import (
    direct_solve,
    min_eigenpair,
    min_eigenvalue,
    solve,
    stability_ratio,
)


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


def test_min_eigenvalue_coercive_and_monotone(square, square_mesh):
    lam1 = min_eigenvalue(
        assemble_system(square_mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
    )
    assert lam1 > 0
    lam2 = min_eigenvalue(
        assemble_system(square_mesh, ProblemSpec(s=0.5, b=2.0, f=0.0, g=0.0))
    )
    assert lam2 >= lam1 - 1e-14


def test_min_eigenvalue_cap(square):
    mesh = triangulate(square, 0.25)
    system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
    with pytest.raises(SolverError):
        min_eigenvalue(system, boundary_cap=4)


def test_coercivity_persistence(square):
    # smallest eigenvalue normalized by the boundary-mass floor stays bounded
    from venttsel.assembly import boundary_mass

    vals = []
    mesh = triangulate(square, 0.5)
    for _ in range(3):
        bm = extract_boundary(mesh)
        system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
        lam = min_eigenvalue(system)
        mass_floor = np.linalg.eigvalsh(boundary_mass(bm, 1.0).toarray())[0]
        vals.append(lam / mass_floor)
        mesh = refine(mesh)
    assert min(vals) >= 0.1 * max(vals)
    assert min(vals) > 0


def test_stability_ratio_examples(patch_system):
    u, _ = solve(patch_system, tol=1e-12)
    spec = patch_system.spec
    # f = 0, g = 1 on perimeter 4: ||g|| = 2, ||u||_V1 = 2
    assert stability_ratio(u, spec, 0.0, 2.0) == pytest.approx(1.0, abs=1e-9)
    # scaling the data leaves the ratio unchanged
    doubled = assemble_system(patch_system.mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=2.0))
    u2, _ = solve(doubled, tol=1e-12)
    assert stability_ratio(u2, spec, 0.0, 4.0) == pytest.approx(
        stability_ratio(u, spec, 0.0, 2.0), rel=1e-9
    )
    with pytest.raises(SolverError):
        stability_ratio(u, spec, 0.0, 0.0)

import math
import warnings

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from venttsel import analysis, meshing
from venttsel.analysis import (
    NORM_CSV_HEADER,
    boundary_h2_diagnostic,
    friedrichs_ratio,
    gagliardo_energy,
    l2_bulk,
    norm_report,
    recovered_hessian,
    v1_norm,
    weighted_hessian_diagnostic,
    weighted_l2,
)
from venttsel.assembly import NodalField, _p1_gradients, assemble_system, nonlocal_matrix
from venttsel.errors import VenttselError
from venttsel.geometry import build_polygon
from venttsel.meshing import extract_boundary, refine, triangulate
from venttsel.quadrature import adaptive_rectangle, gauss_interval
from venttsel.solver import solve
from venttsel.verify import lshape_benchmark, random_smooth_fields, theta_entry_oracle


def test_v1_of_constant(square_mesh):
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    assert v1_norm(one) == pytest.approx(2.0, abs=1e-12)  # perimeter 4
    zero = NodalField(np.zeros(square_mesh.n_nodes), square_mesh)
    assert v1_norm(zero) == 0.0


def test_v1_of_x_against_quadrature_oracle(square_mesh):
    """The interpolant of x is exact P1; the three continuum integrals are the
    independent oracle (12-digit Gauss per side / per cell)."""
    u = NodalField(square_mesh.nodes[:, 0], square_mesh)
    # continuum values: |grad x|^2 over the square = 1; per-side quadrature for
    # the boundary pieces of the trace t -> x
    h1_bulk_sq = 1.0
    poly = square_mesh.polygon
    l2b = 0.0
    h1b = 0.0
    for side in range(poly.n_sides):
        L = poly.side_lengths[side]
        ts, ws = gauss_interval(0.0, L, 40)
        pts = poly.boundary_point(side, ts)
        l2b += float(np.sum(ws * pts[:, 0] ** 2))
        h1b += L * float(poly.side_tangents[side, 0] ** 2)
    expected = math.sqrt(h1_bulk_sq + h1b + l2b)
    assert v1_norm(u) == pytest.approx(expected, abs=1e-9)


def test_norm_report_decomposition(square_mesh, rng):
    u = NodalField(rng.normal(size=square_mesh.n_nodes), square_mesh)
    rep = norm_report(u, nonlocal_matrix(square_mesh.boundary, 0.5), 0.4)
    assert rep.v1 == v1_norm(u)
    assert rep.v1**2 == pytest.approx(
        rep.h1_bulk_semi**2 + rep.h1_bdry_semi**2 + rep.l2_bdry**2, rel=1e-12
    )
    assert NORM_CSV_HEADER == (
        "l2_bulk,h1_bulk_semi,l2_bdry,h1_bdry_semi,v1,gagliardo_s,"
        "bdry_h2_diag,weighted_l2_sigma,weighted_hess_diag"
    )
    row = rep.csv_row()
    assert row.count(",") == 8


def test_weighted_l2_sigma_zero_matches_l2(square_mesh, rng):
    for _ in range(20):
        u = NodalField(rng.normal(size=square_mesh.n_nodes), square_mesh)
        assert weighted_l2(u, 0.0) == pytest.approx(l2_bulk(u), abs=1e-10)


def test_weighted_l2_constant(square_mesh):
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    assert weighted_l2(one, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_weighted_l2_sigma04_against_adaptive_reference(square_mesh):
    # reference: 1e-8 adaptive quadrature of Int r^0.8 over the unit square
    poly = square_mesh.polygon

    def f(x, y):
        pts = np.column_stack([x, y])
        from venttsel.geometry import dist_to_vertices

        return dist_to_vertices(poly, pts) ** 0.8

    ref, _ = adaptive_rectangle(
        f,
        (0.0, 1.0, 0.0, 1.0),
        1e-8,
        singular_points=[(0, 0), (1, 0), (1, 1), (0, 1)],
        singular_power=0.8,
        singular_scale=2.0,
    )
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    val = weighted_l2(one, 0.4)
    assert val**2 == pytest.approx(ref, rel=1e-4)


def test_weighted_l2_layer_self_check(square, monkeypatch):
    # the rule is cached per (mesh, sigma), so each layer count gets its own
    # mesh; the corner tail is exact for a constant, so the field varies there
    def value(layers):
        monkeypatch.setattr(analysis, "_LAYERS", layers)
        mesh = triangulate(square, 0.25)
        x, y = mesh.nodes.T
        return weighted_l2(NodalField(np.sin(3.0 * x) * y**2 + x, mesh), 0.42)

    v3, v5 = value(3), value(5)
    assert v3 != v5
    assert abs(v3 - v5) <= 1e-4 * abs(v3)


def test_weighted_l2_integrability_guards(square_mesh, monkeypatch):
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    with pytest.raises(VenttselError):
        weighted_l2(one, -1.0)
    # rejected before the recovered Hessian is computed
    monkeypatch.setattr(analysis, "_recovered_hessian_chunks", None)
    with pytest.raises(VenttselError):
        weighted_hessian_diagnostic(one, -1.0)


def test_weighted_l2_rejects_callable():
    with pytest.raises(VenttselError, match="bulk weighted norm needs a NodalField"):
        weighted_l2(lambda p: np.ones(len(p)), 0.25)


@pytest.fixture(scope="module")
def lshape_chain_solutions():
    """Benchmark solutions on levels 1 and 3 of the refine chain from h = 1/2."""
    bench = lshape_benchmark()
    meshes = [triangulate(bench.polygon, 0.5)]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    return {
        lvl: solve(assemble_system(meshes[lvl], bench.spec()), tol=1e-10)[0] for lvl in (1, 3)
    }


# Recorded from the per-element rules with a Python loop over corner elements
# that preceded the cached weighted rule. The Hessian diagnostic now also uses
# the degree-13 near-corner rule, which moved it by +8.1e-5 (level 1, T = 96)
# and -1.1e-8 (level 3) relative.
_GOLDEN_WEIGHTED = [
    (1, 0.42, 0.5695088205933061, 0.8973701793551232, 1e-4),
    (1, 5.0 / 12.0, 0.5707140285175538, 0.8997340954398517, 1e-4),
    (3, 0.42, 0.5795763289493953, 1.1696605700086797, 1e-7),
    (3, 5.0 / 12.0, 0.5808019953476259, 1.1730134823525047, 1e-7),
]


@pytest.mark.parametrize("level,sigma,l2,hess,hess_rtol", _GOLDEN_WEIGHTED)
def test_weighted_norms_golden_values(lshape_chain_solutions, level, sigma, l2, hess, hess_rtol):
    u = lshape_chain_solutions[level]
    assert weighted_l2(u, sigma) == pytest.approx(l2, rel=1e-13)
    assert weighted_hessian_diagnostic(u, sigma) == pytest.approx(hess, rel=hess_rtol)


def test_weighted_l2_constant_golden_value(square_mesh):
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    assert weighted_l2(one, 0.4) == pytest.approx(0.6764712440400256, rel=1e-13)


def test_norm_report_builds_weighted_rule_once(lshape, monkeypatch):
    mesh = triangulate(lshape, 0.25)
    u = NodalField(mesh.nodes[:, 0] * mesh.nodes[:, 1], mesh)
    theta = nonlocal_matrix(mesh.boundary, 0.5)
    calls = []
    real = analysis.tri_points_weights
    monkeypatch.setattr(
        analysis, "tri_points_weights", lambda *a: calls.append(a) or real(*a)
    )

    def rules():
        return sorted(k for k in mesh._cache if isinstance(k, tuple))

    norm_report(u, theta, 0.42)
    per_build = len(calls)
    assert per_build > 0 and rules() == [("weighted_rule", 0.42)]
    norm_report(u, theta, 0.42)
    assert len(calls) == per_build and len(rules()) == 1
    norm_report(u, theta, 5.0 / 12.0)
    assert len(calls) == 2 * per_build and len(rules()) == 2


def test_stiffness_built_once_per_mesh(lshape, monkeypatch):
    # assembly and the norms share one bulk and one boundary stiffness per mesh
    from venttsel import assembly
    from venttsel.assembly import ProblemSpec

    mesh = triangulate(lshape, 0.25)
    built = []
    real = assembly._assemble_coo
    # the width of each scatter's node lists: 3 for triangles, 2 for segments
    monkeypatch.setattr(assembly, "_assemble_coo", lambda *a: built.append(a[0].shape[1]) or real(*a))
    system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=1.0, g=0.0))
    assert built.count(3) == 1  # the bulk stiffness; assembly builds no bulk mass
    u = NodalField(mesh.nodes[:, 0] * mesh.nodes[:, 1], mesh)
    norm_report(u, system.Theta, 0.42)
    assert built.count(3) == 1  # the norms build no bulk mass and no second stiffness
    assert analysis._ops(mesh)["A"] is system.A_bulk
    assert analysis._ops(mesh)["A_b"] is system.A_bdry


def test_norm_report_traced_peak(lshape):
    # at N = 14,318 the weighted rule and every norm temporary are built per
    # triangle chunk; the whole-mesh rule traced 23.2 MB
    mesh = triangulate(lshape, 1.0 / 64.0)
    system = assemble_system(mesh, lshape_benchmark().spec())  # caches the stiffness matrices
    assert mesh.n_nodes == 14318
    u = NodalField(mesh.nodes[:, 0] * mesh.nodes[:, 1], mesh)
    assert traced_peak(lambda: norm_report(u, system.Theta, 5.0 / 12.0)) <= 8e6


def test_hessian_diagnostic_traced_peak(lshape):
    # at N = 14,318 the recovered Hessian is built per triangle chunk and kept
    # only as its squared Frobenius norm; the whole-mesh (T, 2, 2) Hessian and
    # (3T, 2) nodal-sum inputs traced 3.3 MB
    mesh = triangulate(lshape, 1.0 / 64.0)
    assert mesh.n_nodes == 14318
    u = NodalField(np.sin(3.0 * mesh.nodes[:, 0]) * mesh.nodes[:, 1] ** 2, mesh)
    weighted_l2(u, 5.0 / 12.0)  # builds and caches the weighted rule
    _p1_gradients(mesh)
    assert traced_peak(lambda: weighted_hessian_diagnostic(u, 5.0 / 12.0)) <= 1.2e6


def test_bulk_norms_independent_of_triangle_chunks(lshape, monkeypatch):
    # the weighted rule's groups and the l2 sums are cut by the chunk rule at
    # build time; chunking moves the norms by summation order only
    def norms():
        mesh = triangulate(lshape, 1.0 / 16.0)
        u = NodalField(np.sin(3.0 * mesh.nodes[:, 0]) * mesh.nodes[:, 1] ** 2, mesh)
        return mesh, (weighted_l2(u, 0.42), weighted_hessian_diagnostic(u, 0.42), l2_bulk(u))

    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 10**9)
    _, whole = norms()
    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 7)
    mesh, chunked = norms()
    assert mesh.n_triangles > 10 * 7
    assert len(mesh._cache[("weighted_rule", 0.42)]) == 3 * len(mesh.triangle_chunks())
    assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)


def test_gagliardo_energy(square_bm, rng):
    theta = nonlocal_matrix(square_bm, 0.5)
    const = np.ones(square_bm.n_nodes)
    assert gagliardo_energy(const, theta) <= 1e-10
    for _ in range(5):
        u = rng.normal(size=square_bm.n_nodes)
        assert gagliardo_energy(u, theta) >= -1e-10


def test_gagliardo_hat_matches_oracle(square):
    bm = extract_boundary(triangulate(square, 1.0))
    theta = nonlocal_matrix(bm, 0.5)
    hat = np.zeros(bm.n_nodes)
    hat[1] = 1.0
    oracle = theta_entry_oracle(bm, 0.5, tol=1e-9)[1, 1]
    assert gagliardo_energy(hat, theta) == pytest.approx(oracle, rel=1e-6)


def test_gagliardo_bounded_by_boundary_norm(square, rng):
    # <theta u, u> <= C (boundary H1 semi^2 + boundary L2^2), C stable under
    # refinement
    from venttsel.analysis import h1_bdry_semi, l2_bdry

    cs = []
    mesh = triangulate(square, 0.25)
    for _ in range(2):
        bm = extract_boundary(mesh)
        theta = nonlocal_matrix(bm, 0.5)
        worst = 0.0
        for u in random_smooth_fields(mesh, 40, 3):
            den = h1_bdry_semi(u) ** 2 + l2_bdry(u) ** 2
            worst = max(worst, gagliardo_energy(u.boundary_values(), theta) / den)
        cs.append(worst)
        mesh = refine(mesh)
    assert max(cs) / min(cs) < 2.0


def _per_side_arc(bm):
    """Arc offset of each boundary node within its (run-starting) side."""
    out = np.zeros(bm.n_nodes)
    run_start = 0.0
    current = bm.side_ids[0]
    for k in range(bm.n_segments):
        if bm.side_ids[k] != current:
            current = bm.side_ids[k]
            run_start = bm.arclength_coords[k]
        out[k] = bm.arclength_coords[k] - run_start
    return out


def test_boundary_h2_quadratic_per_side(square):
    mesh = triangulate(square, 0.25)
    bm = extract_boundary(mesh)
    # (t - L/2)^2 per unit side: second derivative 2, continuous at corners
    t = _per_side_arc(bm)
    vals = (t - 0.5) ** 2
    diag = boundary_h2_diagnostic(vals, bm)
    assert diag**2 == pytest.approx(4.0 * 4.0, abs=1e-10)  # 4L per unit side


def test_boundary_h2_affine_and_warning(square):
    mesh = triangulate(square, 0.25)
    bm = extract_boundary(mesh)
    # trace of a globally affine function: affine in arc length on every side
    u = NodalField(0.7 * mesh.nodes[:, 0] - 0.2 * mesh.nodes[:, 1], mesh)
    assert boundary_h2_diagnostic(u.boundary_values(), bm) <= 1e-12

    coarse = extract_boundary(triangulate(square, 1.0))  # 2 nodes per side
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = boundary_h2_diagnostic(np.ones(coarse.n_nodes), coarse)
    assert out == 0.0
    assert len(rec) >= 1


def test_weighted_hessian_affine_zero(square_mesh):
    u = NodalField(0.7 * square_mesh.nodes[:, 0] - 0.2 * square_mesh.nodes[:, 1], square_mesh)
    assert weighted_hessian_diagnostic(u, 0.0) <= 1e-10
    assert np.abs(recovered_hessian(u)).max() <= 1e-12


def test_weighted_hessian_x_squared(square):
    # interpolant of x^2: surrogate approaches ||D2 u|| = 2 within 20%
    mesh = triangulate(square, 0.25)
    for _ in range(2):
        mesh = refine(mesh)
    u = NodalField(mesh.nodes[:, 0] ** 2, mesh)
    val = weighted_hessian_diagnostic(u, 0.0)
    assert abs(val**2 - 4.0) <= 0.2 * 4.0


def test_friedrichs_examples(square_mesh):
    one = NodalField(np.ones(square_mesh.n_nodes), square_mesh)
    assert friedrichs_ratio(one) == pytest.approx(0.25, rel=1e-12)
    seven = NodalField(np.full(square_mesh.n_nodes, -7.0), square_mesh)
    assert friedrichs_ratio(seven) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(VenttselError):
        friedrichs_ratio(NodalField(np.zeros(square_mesh.n_nodes), square_mesh))


def test_friedrichs_envelope(square_mesh):
    const = friedrichs_ratio(NodalField(np.ones(square_mesh.n_nodes), square_mesh))
    worst = max(friedrichs_ratio(u) for u in random_smooth_fields(square_mesh, 200, 11))
    assert worst <= 10.0 * const

import math
import warnings

import numpy as np
import pytest

from venttsel.assembly import (
    BoundaryLoadTable,
    BoundaryQuadratureTable,
    NodalField,
    ProblemSpec,
    _separated_pairs,
    assemble_system,
    boundary_mass,
    boundary_stiffness,
    bulk_mass,
    bulk_stiffness,
    check_theta_orders,
    load_vector,
    nonlocal_matrix,
)
from venttsel import assembly
from venttsel.errors import AssemblyError, QuadraturePairError, RegularityRegimeWarning
from venttsel.geometry import build_polygon
from venttsel.meshing import Mesh, extract_boundary, triangulate


def _single_triangle_mesh():
    poly = build_polygon([(0, 0), (1, 0), (0, 1)])
    return Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_node_flags=np.array([True, True, True]),
        h_target=1.0,
        grading_exponent=1.0,
        polygon=poly,
    )


def test_reference_triangle_stiffness():
    K = bulk_stiffness(_single_triangle_mesh()).toarray()
    assert np.allclose(K, [[1, -0.5, -0.5], [-0.5, 0.5, 0], [-0.5, 0, 0.5]], atol=1e-14)


def test_stiffness_row_sums_and_translation(square_mesh):
    A = bulk_stiffness(square_mesh)
    assert np.abs(A @ np.ones(square_mesh.n_nodes)).max() <= 1e-12
    shifted = Mesh(
        nodes=square_mesh.nodes + np.array([3.0, -2.0]),
        triangles=square_mesh.triangles,
        boundary_node_flags=square_mesh.boundary_node_flags,
        h_target=square_mesh.h_target,
        grading_exponent=1.0,
        polygon=build_polygon(square_mesh.polygon.vertices + np.array([3.0, -2.0])),
    )
    assert np.abs((bulk_stiffness(shifted) - A).toarray()).max() <= 1e-12


def test_boundary_stiffness_local_and_circulant(square):
    bm = extract_boundary(triangulate(square, 1.0))
    Ab = boundary_stiffness(bm).toarray()
    assert np.allclose(Ab, [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]])
    assert np.abs(Ab.sum(axis=1)).max() <= 1e-12


def test_boundary_stiffness_segment_scaling(square_bm):
    Ab = boundary_stiffness(square_bm).toarray()
    # every segment has length 1/4: local block (1/L) [[1,-1],[-1,1]]
    k = 0
    assert Ab[k, k] == pytest.approx(2.0 / square_bm.lengths[0])


def test_boundary_mass_exact(square):
    bm = extract_boundary(triangulate(square, 1.0))
    M = boundary_mass(bm, 1.0).toarray()
    L = 1.0
    assert M[0, 0] == pytest.approx(2 * (L / 6) * 2)  # two unit segments meet at node 0
    assert M.sum() == pytest.approx(4.0, rel=1e-12)  # perimeter, partition of unity
    assert np.abs(boundary_mass(bm, 0.0).toarray()).max() == 0.0


def test_boundary_mass_unit_perimeter():
    poly = build_polygon([(0, 0), (0.25, 0), (0.25, 0.25), (0, 0.25)])
    bm = extract_boundary(triangulate(poly, 0.25))
    M = boundary_mass(bm, 1.0).toarray()
    assert M.sum() == pytest.approx(1.0, rel=1e-12)


def test_boundary_mass_negative_rejected(square_bm):
    with pytest.raises(AssemblyError):
        boundary_mass(square_bm, -1.0)
    with pytest.raises(AssemblyError):
        ProblemSpec(s=0.5, b=-2.0, f=0.0, g=0.0)


def test_problem_spec_validation():
    with pytest.raises(AssemblyError):
        ProblemSpec(s=0.0, b=1.0, f=0.0, g=0.0)
    with pytest.raises(AssemblyError):
        ProblemSpec(s=1.0, b=1.0, f=0.0, g=0.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        spec = ProblemSpec(s=0.8, b=1.0, f=0.0, g=0.0)
    assert any(issubclass(w.category, RegularityRegimeWarning) for w in rec)
    assert not spec.regularity_regime
    spec = ProblemSpec(s=0.5, b=0.0, f=0.0, g=0.0)
    assert not spec.coercive
    assert ProblemSpec(s=0.5, b=[0.0, 1.0, 0.0, 0.0], f=0.0, g=0.0).coercive
    for bad_b in (lambda p: np.ones(len(p)), "one"):
        with pytest.raises(AssemblyError, match="b must be a number or one number per side"):
            ProblemSpec(s=0.5, b=bad_b, f=0.0, g=0.0)


def test_nonlocal_constants_and_symmetry(square_bm):
    for s in (0.25, 0.5, 0.7):
        theta = nonlocal_matrix(square_bm, s)
        assert np.abs(theta - theta.T).max() <= 1e-12 * np.abs(theta).max()
        assert np.abs(theta @ np.ones(square_bm.n_nodes)).max() <= 1e-10


def test_nonlocal_psd(square_bm8, lshape_bm8):
    for bm in (square_bm8, lshape_bm8):
        for s in (0.25, 0.5, 0.7):
            ev = np.linalg.eigvalsh(nonlocal_matrix(bm, s))
            assert ev[0] >= -1e-10 * ev[-1]


def test_nonlocal_scaling_law(square):
    base = extract_boundary(triangulate(square, 0.25))
    for s in (0.25, 0.5, 0.7):
        theta = nonlocal_matrix(base, s)
        for t in (0.5, 3.0):
            poly_t = build_polygon(np.asarray([(0, 0), (1, 0), (1, 1), (0, 1)]) * t)
            bm_t = extract_boundary(triangulate(poly_t, 0.25 * t))
            theta_t = nonlocal_matrix(bm_t, s)
            dev = np.abs(theta_t - t ** (1 - 2 * s) * theta).max()
            assert dev <= 1e-8 * np.abs(theta).max()


def test_nonlocal_s_range(square_bm):
    for s in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(AssemblyError):
            nonlocal_matrix(square_bm, s)


def test_nonlocal_quadrature_consistency(square_bm, monkeypatch):
    # doubling every separated-pair order changes entries by < 1e-8 relative
    theta = nonlocal_matrix(square_bm, 0.5)
    monkeypatch.setattr(assembly, "_ORDERS", (8, 16, 24))
    theta2 = nonlocal_matrix(square_bm, 0.5)
    assert np.abs(theta - theta2).max() <= 1e-8 * np.abs(theta).max()


def test_nonlocal_check_tolerance_path(square_bm, monkeypatch):
    theta = nonlocal_matrix(square_bm, 0.5)
    check_theta_orders(square_bm, 0.5, theta, 1e-8)
    monkeypatch.setattr(assembly, "_ORDERS", (1, 1, 1))
    theta = nonlocal_matrix(square_bm, 0.5)
    with pytest.raises(QuadraturePairError) as exc:
        check_theta_orders(square_bm, 0.5, theta, 1e-12)
    assert exc.value.pair is not None


def test_load_vector_reference_triangle():
    m = _single_triangle_mesh()
    lv = load_vector(m, 1.0, 0.0)
    assert np.allclose(lv, [1 / 6, 1 / 6, 1 / 6], atol=1e-14)


def test_load_vector_boundary_partition(square):
    poly = build_polygon([(0, 0), (0.25, 0), (0.25, 0.25), (0, 0.25)])
    m = triangulate(poly, 0.25)
    lv = load_vector(m, 0.0, 1.0)
    assert lv.sum() == pytest.approx(1.0, rel=1e-12)  # unit perimeter
    assert np.abs(load_vector(m, 0.0, 0.0)).max() == 0.0


def test_load_vector_eval_failure(square_mesh):
    def bad(pts):
        raise ValueError("boom")

    with pytest.raises(AssemblyError):
        load_vector(square_mesh, bad, 0.0)
    with pytest.raises(AssemblyError):
        load_vector(square_mesh, 0.0, bad)
    with pytest.raises(AssemblyError):
        load_vector(square_mesh, lambda p: np.full(len(np.atleast_2d(p)), np.nan), 0.0)


def test_load_quadrature_table_not_finite(square_mesh, square_bm):
    x = np.full((square_bm.n_segments, 2), 0.25)
    x[:, 1] = 0.75
    w = np.outer(square_bm.lengths, [0.5, 0.5])
    vals = np.ones_like(x)
    vals[3, 1] = np.nan
    with pytest.raises(AssemblyError, match="boundary source not finite at"):
        load_vector(square_mesh, 0.0, BoundaryQuadratureTable(values=vals, nodes=x, weights=w))
    vals[3, 1] = 1.0
    lv = load_vector(square_mesh, 0.0, BoundaryQuadratureTable(values=vals, nodes=x, weights=w))
    assert lv.sum() == pytest.approx(square_bm.lengths.sum())


def test_load_table_route(square_mesh, square_bm):
    tab = BoundaryLoadTable(values=np.ones(square_bm.n_nodes))
    lv = load_vector(square_mesh, 0.0, tab)
    assert lv[square_bm.boundary_nodes].sum() == pytest.approx(square_bm.n_nodes)
    interior = np.setdiff1d(np.arange(square_mesh.n_nodes), square_bm.boundary_nodes)
    assert np.abs(lv[interior]).max() == 0.0


def test_assemble_system_nullspace_and_pd(square_mesh, square_bm):
    spec0 = ProblemSpec(s=0.5, b=0.0, f=0.0, g=0.0)
    sys0 = assemble_system(square_mesh, spec0)
    w = np.linalg.eigvalsh(sys0.dense())
    assert abs(w[0]) <= 1e-10
    assert w[1] > 1e-6  # nullspace is exactly span{1}

    spec1 = ProblemSpec(s=0.5, b=1.0, f=0.0, g=1.0)
    sys1 = assemble_system(square_mesh, spec1)
    w1 = np.linalg.eigvalsh(sys1.dense())
    assert w1[0] > 0

    # applying the operator to the constant field reproduces boundary-mass row sums
    ones = np.ones(square_mesh.n_nodes)
    expected = np.zeros(square_mesh.n_nodes)
    expected[square_bm.boundary_nodes] = boundary_mass(square_bm, 1.0) @ np.ones(
        square_bm.n_nodes
    )
    assert np.abs(sys1.matvec(ones) - expected).max() <= 1e-10


def test_matvec_matches_dense(square_mesh, rng):
    spec = ProblemSpec(s=0.4, b=2.0, f=0.0, g=0.0)
    system = assemble_system(square_mesh, spec)
    dense = system.dense()
    for _ in range(3):
        v = rng.normal(size=system.n)
        assert np.allclose(system.matvec(v), dense @ v, atol=1e-12 * np.abs(dense).max())
    assert np.allclose(system.diagonal(), np.diag(dense))


def test_rayleigh_quotient_equivalence(square, rng):
    # discrete energy vs composite-norm equivalence, stable across refinement
    from venttsel.analysis import h1_bdry_semi, h1_bulk_semi, l2_bdry
    from venttsel.meshing import refine

    bounds = []
    mesh = triangulate(square, 0.25)
    for _ in range(2):
        system = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
        ratios = []
        for _ in range(100):
            u = NodalField(rng.normal(size=mesh.n_nodes), mesh)
            v1sq = h1_bulk_semi(u) ** 2 + h1_bdry_semi(u) ** 2 + l2_bdry(u) ** 2
            ratios.append(system.energy(u.values) / v1sq)
        bounds.append((min(ratios), max(ratios)))
        mesh = refine(mesh)
    (c1a, c2a), (c1b, c2b) = bounds
    assert c1a > 0 and c1b > 0
    assert max(c1a, c1b) / min(c1a, c1b) < 2.0
    assert max(c2a, c2b) / min(c2a, c2b) < 2.0


def test_nonlocal_thread_determinism(lshape, monkeypatch):
    # both threaded users of the separated-pair chunk driver: Theta and the
    # form-based load
    from venttsel.verify import energy_load_table, make_manufactured

    monkeypatch.setattr(assembly, "_CHUNK_SIZE", 128)
    bm = extract_boundary(triangulate(lshape, 1.0 / 8.0))
    prob = make_manufactured("cubic", lshape, 0.7, 1.0)
    t1 = nonlocal_matrix(bm, 0.5, 1)
    t4 = nonlocal_matrix(bm, 0.5, 4)
    assert np.array_equal(t1, t4)
    l1 = energy_load_table(prob, bm, 1).values
    l4 = energy_load_table(prob, bm, 4).values
    assert np.array_equal(l1, l4)


@pytest.mark.parametrize("h, q", [(1.0 / 8.0, 1.0), (0.25, 1.0 / (1.0 - 0.42))])
def test_separated_pairs_partition_non_adjacent_pairs(lshape, h, q):
    bm = triangulate(lshape, h, q).boundary
    S = bm.n_segments
    groups = _separated_pairs(bm)
    assert [order for _, _, order in groups] == [4, 8, 12]
    assert all(len(a) > 0 for a, _, _ in groups)
    pairs = [(int(i), int(j)) for a, b, _ in groups for i, j in zip(a, b)]
    # disjoint classes whose union is exactly the non-adjacent pairs a < b
    assert len(set(pairs)) == len(pairs) == S * (S - 3) // 2
    assert all(i < j and 1 < j - i < S - 1 for i, j in pairs)


def test_all_operator_blocks_symmetric(square_mesh):
    system = assemble_system(square_mesh, ProblemSpec(s=0.6, b=1.5, f=0.0, g=0.0))
    for block in (system.A_bulk.toarray(), system.A_bdry.toarray(), system.M_b.toarray(), system.Theta):
        scale = max(np.abs(block).max(), 1e-30)
        assert np.abs(block - block.T).max() <= 1e-12 * scale

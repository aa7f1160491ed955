import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import traced_peak

from venttsel.assembly import (
    NodalField,
    ProblemSpec,
    _separated_pairs,
    assemble_system,
    boundary_mass,
    boundary_stiffness,
    bulk_stiffness,
    check_theta_orders,
    load_vector,
    nonlocal_matrix,
)
from venttsel import assembly
from venttsel.errors import AssemblyError, RegularityRegimeWarning
from venttsel.geometry import build_polygon
from venttsel.meshing import Mesh, extract_boundary, triangulate
from venttsel.verify import operator_laws


def _single_triangle_mesh():
    poly = build_polygon([(0, 0), (1, 0), (0, 1)])
    return Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_node_flags=np.array([True, True, True]),
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


@pytest.mark.parametrize(
    "bad", ["1.5", b"1", True, None, [1.0, "2", 1.0, 1.0], [1.0, True, 1.0, 1.0]],
    ids=["numeric_str", "bytes", "bool", "None", "str_element", "bool_element"],
)
def test_problem_spec_rejects_non_numeric_b(bad):
    with pytest.raises(AssemblyError, match="b must be a number or one number per side"):
        ProblemSpec(s=0.5, b=bad, f=0.0, g=0.0)


def test_problem_spec_validation():
    with pytest.raises(AssemblyError):
        ProblemSpec(s=0.0, b=1.0, f=0.0, g=0.0)
    with pytest.raises(AssemblyError):
        ProblemSpec(s=1.0, b=1.0, f=0.0, g=0.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        ProblemSpec(s=0.8, b=1.0, f=0.0, g=0.0)
    assert any(issubclass(w.category, RegularityRegimeWarning) for w in rec)
    spec = ProblemSpec(s=0.5, b=0.0, f=0.0, g=0.0)
    assert not spec.coercive
    assert ProblemSpec(s=0.5, b=[0.0, 1.0, 0.0, 0.0], f=0.0, g=0.0).coercive
    for bad_b in (lambda p: np.ones(len(p)), "one"):
        with pytest.raises(AssemblyError, match="b must be a number or one number per side"):
            ProblemSpec(s=0.5, b=bad_b, f=0.0, g=0.0)


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
    assert 0.0 < check_theta_orders(square_bm, 0.5, theta) <= 1e-8
    monkeypatch.setattr(assembly, "_ORDERS", (1, 1, 1))
    theta = nonlocal_matrix(square_bm, 0.5)
    assert check_theta_orders(square_bm, 0.5, theta) > 1e-8


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


@pytest.mark.parametrize(
    "bad",
    ["abc", object(), None, "1.0", b"2", True, [1.0, True, 1.0, 1.0]],
    ids=["str", "object", "None", "numeric_str", "bytes", "bool", "bool_element"],
)
@pytest.mark.parametrize("which", ["f", "g"])
def test_load_vector_rejects_bad_source_kind(square_mesh, which, bad):
    kinds = "a callable or a number" if which == "f" else "a callable, a number, one number per side"
    f, g = (bad, 0.0) if which == "f" else (0.0, bad)
    with pytest.raises(AssemblyError, match=f"{which} must be {kinds}"):
        load_vector(square_mesh, f, g)


def _source(values):
    """A boundary source whose build returns `values` as the per-node load."""
    return SimpleNamespace(build=lambda bm: values)


def test_load_source_rejects_bad_values(square_mesh, square_bm):
    vals = np.ones(square_bm.n_nodes)
    vals[3] = np.nan
    with pytest.raises(AssemblyError, match="boundary load not finite at boundary node 3 "):
        load_vector(square_mesh, 0.0, _source(vals))
    with pytest.raises(AssemblyError, match="boundary load has shape"):
        load_vector(square_mesh, 0.0, _source(np.ones(square_bm.n_nodes - 1)))


def test_load_table_route(square_mesh, square_bm):
    lv = load_vector(square_mesh, 0.0, _source(np.ones(square_bm.n_nodes)))
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
            ratios.append(float(u.values @ system.matvec(u.values)) / v1sq)
        bounds.append((min(ratios), max(ratios)))
        mesh = refine(mesh)
    (c1a, c2a), (c1b, c2b) = bounds
    assert c1a > 0 and c1b > 0
    assert max(c1a, c1b) / min(c1a, c1b) < 2.0
    assert max(c2a, c2b) / min(c2a, c2b) < 2.0


def _record_far_blocks(monkeypatch):
    """Patch assembly._far_kernel to log (order, r0, r1, K.shape) per block."""
    blocks = []
    kernel = assembly._far_kernel

    def recording(bm, s, order, r0, r1):
        K = kernel(bm, s, order, r0, r1)
        blocks.append((order, r0, r1, K.shape))
        return K

    monkeypatch.setattr(assembly, "_far_kernel", recording)
    return blocks


def _theta_fold_reference(bm, s):
    """Identical and separated parts of Theta pair by pair: each segment's
    closed form on itself, and the _separated_chunk blocks of every ladder
    class scattered onto each pair's nodes."""
    lp = bm.local_pairs()
    ref = np.zeros((bm.n_nodes, bm.n_nodes))
    i, j = lp[:, 0], lp[:, 1]
    entry = 2.0 * bm.lengths ** (1.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    np.add.at(ref, (i, i), entry)
    np.add.at(ref, (j, j), entry)
    np.add.at(ref, (i, j), -entry)
    np.add.at(ref, (j, i), -entry)
    for a, b, order in _separated_pairs(bm):
        Caa, Cbb, Cab = assembly._separated_chunk(bm, s, a, b, order)
        ia, ib = lp[a], lp[b]
        np.add.at(ref, (ia[:, :, None], ia[:, None, :]), 2.0 * Caa)
        np.add.at(ref, (ib[:, :, None], ib[:, None, :]), 2.0 * Cbb)
        np.add.at(ref, (ia[:, :, None], ib[:, None, :]), -2.0 * Cab)
        np.add.at(ref, (ib[:, :, None], ia[:, None, :]), -2.0 * Cab.transpose(0, 2, 1))
    return ref


def _far_load_reference(bm, s, u, order):
    """Far-class part of <theta_s u, phi_i> pair by pair: WK (u_x - u_y) as a
    (pairs, n, n) array, contracted with the hats of each side."""
    a, b, _ = _separated_pairs(bm)[0]
    F = assembly._separated_kernel(bm, s, a, b, order) * (u[a][:, :, None] - u[b][:, None, :])
    hats = bm.gauss_points(order)[2]
    lp = bm.local_pairs()
    ref = np.zeros(bm.n_nodes)
    np.add.at(ref, lp[a], 2.0 * F.sum(axis=2) @ hats)
    np.add.at(ref, lp[b], -2.0 * F.sum(axis=1) @ hats)
    return ref


@pytest.mark.parametrize(
    "h, q, chunk",
    [(0.25, 1.0 / (1.0 - 0.42), 512), (0.25, 1.0 / (1.0 - 0.42), None), (1.0 / 8.0, 1.0, 512)],
)
@pytest.mark.parametrize("s", [0.25, 0.7])
def test_far_blocks_match_per_pair_reference(lshape, h, q, chunk, s, monkeypatch):
    from venttsel.verify import _far_load, make_manufactured

    if chunk is not None:
        monkeypatch.setattr(assembly, "_CHUNK_SIZE", chunk)
    bm = triangulate(lshape, h, q).boundary
    S = bm.n_segments
    _, far_b, order = _separated_pairs(bm)[0]
    assert np.any(far_b == S - 1)  # wrap pairs: segment S-1 ends at node 0
    blocks = _record_far_blocks(monkeypatch)

    theta = assembly._theta_fold(bm, s)
    ref = _theta_fold_reference(bm, s)
    assert np.abs(theta - ref).max() <= 1e-14 * np.abs(ref).max()

    pts = bm.gauss_points(order)[0]
    u = make_manufactured("cubic", lshape, s, 1.0).trace(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    load = _far_load(bm, s, order, u)
    ref = _far_load_reference(bm, s, u, order)
    assert np.abs(load - ref).max() <= 1e-14 * np.abs(ref).max()

    # Theta's pass over the far blocks, then the load's over the same rows
    assert {o for o, *_ in blocks} == {order}
    spans = [(r0, r1) for _, r0, r1, _ in blocks]
    run = spans[: len(spans) // 2]
    assert spans == run + run
    assert run[0][0] == 0 and run[-1][1] == S
    assert all(r1 == r0 for (_, r1), (r0, _) in zip(run, run[1:]))
    if chunk is not None and q != 1.0:
        # S = 69 is no multiple of the block row count
        assert len(run) > 1 and run[-1][1] - run[-1][0] < run[0][1] - run[0][0]


def test_far_blocks_within_entry_budget(lshape, monkeypatch):
    # the far kernel rows at S = 512 for Theta and for the form-based load are
    # order-4 blocks of 32 rows, within _CHUNK_SIZE * 64 entries per block
    from venttsel.verify import _theta_load, make_manufactured

    bm = triangulate(lshape, 1.0 / 64.0).boundary
    S = bm.n_segments
    assert S == 512
    blocks = _record_far_blocks(monkeypatch)
    nonlocal_matrix(bm, 0.5)
    _theta_load(bm, make_manufactured("cubic", lshape, 0.7, 1.0), 0.7)
    budget = assembly._CHUNK_SIZE * 64
    n, rows = 4, 32
    assert {o for o, *_ in blocks} == {n}
    assert len(blocks) == 2 * S // rows  # Theta's pass, then the load's
    for _, r0, r1, shape in blocks:
        assert r1 - r0 == rows and shape == (rows * n, (S - r0) * n)
        assert shape[0] * shape[1] <= budget


def test_far_blocks_held_one_at_a_time(lshape, monkeypatch):
    # Theta and the form-based load drop each far block before the next one
    # is built, so the far field holds at most one block of kernel rows
    import weakref

    from venttsel.verify import _theta_load, make_manufactured

    monkeypatch.setattr(assembly, "_CHUNK_SIZE", 128)
    kernel = assembly._far_kernel
    built = []

    def tracking(*args):
        assert all(block() is None for block in built)
        K = kernel(*args)
        built.append(weakref.ref(K))
        return K

    monkeypatch.setattr(assembly, "_far_kernel", tracking)
    bm = extract_boundary(triangulate(lshape, 1.0 / 8.0))
    nonlocal_matrix(bm, 0.5)
    _theta_load(bm, make_manufactured("cubic", lshape, 0.7, 1.0), 0.7)
    assert len(built) > 2


def test_load_evaluates_trace_once_per_ladder_order(lshape, monkeypatch):
    from venttsel.verify import _theta_load, make_manufactured

    monkeypatch.setattr(assembly, "_CHUNK_SIZE", 128)
    blocks = _record_far_blocks(monkeypatch)
    bm = extract_boundary(triangulate(lshape, 1.0 / 8.0))
    prob = make_manufactured("cubic", lshape, 0.7, 1.0)
    calls = []
    trace = prob.trace
    monkeypatch.setattr(prob, "trace", lambda pts: calls.append(len(pts)) or trace(pts))
    _theta_load(bm, prob, prob.s)
    assert len(blocks) > 1  # several far blocks, read from the patched _CHUNK_SIZE
    assert len(list(assembly._separated_chunks(_separated_pairs(bm)))) > 3  # several chunks
    assert len(calls) == len(_separated_pairs(bm)) == 3


def test_separated_chunks_within_entry_budget(lshape, monkeypatch):
    # chunks are cut by kernel entries (pairs x n^2) within the far blocks'
    # _CHUNK_SIZE * 64 budget, for the ladder orders that Theta and the load
    # share and the order check's doubled orders
    from venttsel.verify import _theta_load, make_manufactured

    monkeypatch.setattr(assembly, "_CHUNK_SIZE", 128)
    budget = assembly._CHUNK_SIZE * 64
    bm = extract_boundary(triangulate(lshape, 1.0 / 8.0))
    classes = _separated_pairs(bm)[1:]
    chunks = list(assembly._separated_chunks(classes))
    for a, b, n in classes:  # every pair once, in class order
        got = [(ca, cb) for ca, cb, cn in chunks if cn == n]
        assert len(got) > 1
        assert np.array_equal(np.concatenate([ca for ca, _ in got]), a)
        assert np.array_equal(np.concatenate([cb for _, cb in got]), b)

    sizes = []
    kernel = assembly._separated_kernel

    def recording(*args):
        WK = kernel(*args)
        sizes.append(WK.size)
        return WK

    monkeypatch.setattr(assembly, "_separated_kernel", recording)
    monkeypatch.setattr("venttsel.verify._separated_kernel", recording)
    theta = nonlocal_matrix(bm, 0.7)
    _theta_load(bm, make_manufactured("cubic", lshape, 0.7, 1.0), 0.7)
    check_theta_orders(bm, 0.7, theta)
    assert len(sizes) > 10 and max(sizes) <= budget


def test_small_chunks_match_default(lshape, monkeypatch):
    # Theta and the form-based load do not depend on how the far field and
    # the mid and near classes are cut into blocks and chunks (to roundoff:
    # a BLAS product's rows can round by their position in the block)
    from venttsel.verify import _theta_load, make_manufactured

    bm = extract_boundary(triangulate(lshape, 1.0 / 8.0))
    prob = make_manufactured("cubic", lshape, 0.7, 1.0)
    theta, load = nonlocal_matrix(bm, 0.7), _theta_load(bm, prob, 0.7)
    monkeypatch.setattr(assembly, "_CHUNK_SIZE", 64)
    theta64, load64 = nonlocal_matrix(bm, 0.7), _theta_load(bm, prob, 0.7)
    assert np.abs(theta64 - theta).max() <= 1e-14 * np.abs(theta).max()
    assert np.abs(load64 - load).max() <= 1e-14 * np.abs(load).max()


def test_load_traced_peak_within_chunk_budget(lshape):
    # at S = 512 the nonlocal part of the form-based load holds at most two
    # kernel arrays of the _CHUNK_SIZE * 64 entry budget at a time (4.2 MB;
    # 4.5 MB traced in all)
    from venttsel.verify import _theta_load, make_manufactured

    bm = triangulate(lshape, 1.0 / 64.0).boundary
    assert bm.n_segments == 512
    prob = make_manufactured("cubic", lshape, 0.7, 1.0)
    _theta_load(bm, prob, 0.7)  # fills the boundary mesh's caches
    assert traced_peak(lambda: _theta_load(bm, prob, 0.7)) <= 3 * assembly._CHUNK_SIZE * 64 * 8


# Recorded before the separated-pair kernel read the cached Gauss data and
# contracted with matmul: Theta entries (0, 0), (0, i1), (i1, i2), (i2, i3) and
# Theta @ v at (0, i1, i2, i3); energy_load_table(cubic) there, recorded once
# the load took Theta's rules (an affine trace gives Theta @ u to roundoff).
# (i1, i2, i3) = (S // 3, S // 2, S - 1) and v = default_rng(7).normal(size=S).
_GOLDEN_SEPARATED = {
    ("square", 0.25): (
        (2.929134493013179, -0.1281754845398538, -0.22082878241598403, -0.09614993501958603),
        (0.3464382415337167, -2.939891066196725, -1.5161329815888616, 2.694495765210948),
        (-1.645087024251225, 1.470024294614496, 8.99753227232358, -2.0881115957354575),
    ),
    ("square", 0.5): (
        (5.783221441859637, -0.12950620199803822, -0.27175221251777776, -0.08826439148347835),
        (-0.5071767282860294, -5.399804608802191, -3.81732538750248, 5.024405901291231),
        (-1.7531037950152215, 1.7443276067829925, 10.829626597354217, -2.3679606536849382),
    ),
    ("square", 0.7): (
        (13.317201258823502, -0.13067908399071376, -0.3230998792936869, -0.08248110802657782),
        (-3.4871563075476146, -11.624346650996035, -10.080751921291391, 10.791640829975641),
        (-1.9670631389549693, 2.039694577782237, 15.461615518952712, -2.9032504282097964),
    ),
    ("lshape", 0.25): (
        (1.740901829652226, -0.002599776237814739, -0.0071397272924185835, -0.004791414821483294),
        (0.8914311199709551, -2.270985084377676, -1.208190805170826, 1.9390320860225072),
        (-1.7432508910052997, 3.7571619160996104, -9.084939148823674, -1.7981876693134635),
    ),
    ("lshape", 0.5): (
        (5.91820126896578, -0.0018016152042503535, -0.006929785819217345, -0.004071320668429745),
        (1.1482201585119967, -7.86119919643083, -2.5494587948675873, 8.125613038619175),
        (-1.3479772363237132, 3.6123148927579916, -10.744144861894565, -1.4096863413302367),
    ),
    ("lshape", 0.7): (
        (23.12823914522425, -0.001343528192602573, -0.0067667063816451035, -0.0035741224782889058),
        (-2.613294929044998, -30.391681149483116, -4.77471193278172, 36.44018945838715),
        (-1.1334879611532045, 3.4320807175158845, -15.643870258298623, -1.208999505130614),
    ),
    ("graded", 0.25): (
        (2.080407553665099, -0.005227725271650633, -0.017022980943309975, -0.010442204681923837),
        (0.10080181431321854, 1.9536478595721287, 3.184542615964094, -2.9461185702472),
        (-2.5740227699690004, 6.943422954853474, -10.418015853350955, -2.692756853846128),
    ),
    ("graded", 0.5): (
        (5.9231822409044215, -0.0035436783035668303, -0.017107505399688097, -0.00891599476793107),
        (0.9200206622439926, 5.61714391881866, 9.81453961306557, -10.268053276252044),
        (-1.9968603417328779, 8.502953295827435, -12.537843477718338, -2.131183238069881),
    ),
    ("graded", 0.7): (
        (19.864889591925998, -0.002596428113004919, -0.01717726317689022, -0.007857927941897505),
        (5.698068120648813, 17.72494761674784, 34.77169697923718, -37.17675480280613),
        (-1.6870466803075752, 11.721119911454153, -18.304510954124282, -1.8527214106191032),
    ),
}
_GOLDEN_MESHES = {"square": (1.0 / 4.0, 1.0), "lshape": (1.0 / 16.0, 1.0), "graded": (0.25, 1.0 / (1.0 - 0.42))}


@pytest.mark.parametrize("name, s", list(_GOLDEN_SEPARATED))
def test_separated_outputs_golden(square, lshape, name, s):
    from venttsel.verify import energy_load_table, make_manufactured

    poly = square if name == "square" else lshape
    bm = triangulate(poly, *_GOLDEN_MESHES[name]).boundary
    S = bm.n_nodes
    idx = [0, S // 3, S // 2, S - 1]
    theta = nonlocal_matrix(bm, s)
    theta_v = theta @ np.random.default_rng(7).normal(size=S)
    load = energy_load_table(make_manufactured("cubic", poly, s, 1.0), bm)
    got = (theta[[0] + idx[:3], idx], theta_v[idx], load[idx])
    for full, values, golden in zip((theta, theta_v, load), got, _GOLDEN_SEPARATED[name, s]):
        assert np.abs(values - golden).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("name", [*_GOLDEN_MESHES, "lshape64"])
def test_theta_bitwise_symmetric(square, lshape, name):
    # the fold adds X + X^T and one band value to both sides, and every
    # adjacent 3 x 3 block is symmetric, so Theta equals its transpose
    poly = square if name == "square" else lshape
    bm = triangulate(poly, *_GOLDEN_MESHES.get(name, (1.0 / 64.0, 1.0))).boundary
    for s in (0.25, 0.5, 0.7, 0.95):
        theta = nonlocal_matrix(bm, s)
        assert np.array_equal(theta, theta.T), s


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


@pytest.mark.parametrize(
    "polygon, h, q",
    [("lshape", 1.0 / 32.0, 1.0), ("lshape", 0.25, 1.0 / (1.0 - 0.42)), ("square", 1.0 / 64.0, 1.0)],
)
def test_separated_pairs_match_all_pairs(polygon, h, q, request):
    # every non-adjacent pair a < b classified by its exact distance ratio,
    # in triu order; the ladder itself only measures kd-tree candidates
    bm = triangulate(request.getfixturevalue(polygon), h, q).boundary
    S = bm.n_segments
    a, b = np.triu_indices(S, k=1)
    keep = (b - a > 1) & ~((a == 0) & (b == S - 1))
    a, b = a[keep], b[keep]
    dist = assembly._segment_pair_dist(
        bm.segment_starts[a], bm.segment_ends[a], bm.segment_starts[b], bm.segment_ends[b]
    )
    ratio = dist / np.maximum(bm.lengths[a], bm.lengths[b])
    expected = [ratio > 4.0, (ratio > 1.0) & (ratio <= 4.0), ratio <= 1.0]
    got = _separated_pairs(bm)
    for mask, (ga, gb, _) in zip(expected, got):
        assert ga.dtype == gb.dtype == np.int32
        assert np.array_equal(ga, a[mask]) and np.array_equal(gb, b[mask])
    # the uniform meshes have collinear pairs at exactly ratio 4 in the mid class
    assert np.any(ratio == 4.0) or q != 1.0


def test_all_operator_blocks_symmetric(square_mesh):
    system = assemble_system(square_mesh, ProblemSpec(s=0.6, b=1.5, f=0.0, g=0.0))
    bm = square_mesh.boundary
    for block in (bulk_stiffness(square_mesh).toarray(), boundary_stiffness(bm).toarray(), boundary_mass(bm, 1.5).toarray()):
        scale = max(np.abs(block).max(), 1e-30)
        assert np.abs(block - block.T).max() <= 1e-12 * scale
    laws = {rec["name"]: rec for rec in operator_laws(system.mesh.boundary, 0.6, system.Theta)}
    assert laws["theta_symmetric"]["passed"]

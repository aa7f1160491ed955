import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from venttsel import meshing
from venttsel.errors import GeometryError, MeshError, MeshQualityWarning
from venttsel.geometry import build_polygon, dist_to_vertices
from venttsel.meshing import (
    check_mesh,
    extract_boundary,
    read_mesh,
    refine,
    triangulate,
    write_mesh,
)


def test_square_h1_minimal(square):
    m = triangulate(square, 1.0)
    assert m.n_triangles >= 2
    assert m.areas.sum() == pytest.approx(1.0, rel=1e-12)
    check_mesh(m)


def test_square_quality_floor(square_mesh):
    # mesh-quality floor measured directly on the generated mesh
    assert square_mesh.min_angle_deg() >= 20.0 - 1e-9
    check_mesh(square_mesh)


def test_lshape_graded_corner_size(lshape):
    m = triangulate(lshape, 0.25, 3.0)
    corner = np.array([1.0, 1.0])
    idx = int(np.argmin(np.linalg.norm(m.nodes - corner, axis=1)))
    assert np.linalg.norm(m.nodes[idx] - corner) < 1e-12
    adjacent = np.nonzero((m.triangles == idx).any(axis=1))[0]
    assert m.diameters()[adjacent].min() <= 2.0 * 0.25**3


def test_mesh_errors(square, lshape):
    with pytest.raises(MeshError):
        triangulate(square, 1.5)  # h larger than the shortest side
    with pytest.raises(MeshError):
        triangulate(square, 0.25, 0.5)  # grading below 1
    with pytest.raises(MeshError):
        triangulate(square, -0.1)


def test_boundary_square_corners_only(square):
    bm = extract_boundary(triangulate(square, 1.0))
    assert bm.n_segments == 4
    assert bm.perimeter == pytest.approx(4.0, rel=1e-12)
    # ordered outward normals starting from vertex (0, 0)
    assert np.allclose(square.side_normals[bm.side_ids], [[0, -1], [1, 0], [0, 1], [-1, 0]])


def test_boundary_cycle_counts(square_mesh, lshape_mesh):
    for m in (square_mesh, lshape_mesh):
        bm = extract_boundary(m)
        assert bm.n_segments == bm.n_nodes  # closed cycle
    assert extract_boundary(lshape_mesh).perimeter == pytest.approx(8.0, rel=1e-12)


def test_boundary_arclength_monotone(square_bm):
    arc = square_bm.arclength_coords
    assert arc[0] == 0.0
    assert np.all(np.diff(arc) > 0)
    assert arc[-1] + square_bm.lengths[-1] == pytest.approx(square_bm.perimeter)


def test_refine_counts_and_area(square_mesh):
    m2 = refine(square_mesh)
    assert m2.n_triangles == 4 * square_mesh.n_triangles
    assert abs(m2.areas.sum() - square_mesh.areas.sum()) <= 1e-12
    assert np.allclose(m2.nodes[: square_mesh.n_nodes], square_mesh.nodes)
    b1 = extract_boundary(square_mesh)
    b2 = extract_boundary(m2)
    assert b2.n_segments == 2 * b1.n_segments
    check_mesh(m2)


def test_refine_preserves_conformity_and_shape(lshape):
    m = triangulate(lshape, 0.5)
    d0 = m.diameters()
    ratio0 = d0.max() / d0.min()
    for _ in range(4):
        m = refine(m)
        check_mesh(m)
        d = m.diameters()
        assert d.max() / d.min() <= 20.0
        assert d.max() / d.min() == pytest.approx(ratio0, rel=1e-9)
    assert m.min_angle_deg() >= 20.0 - 1e-9


def test_grading_exponent_law(lshape):
    # boundary edge length at the reentrant corner follows h**q over 3 levels
    q = 3.0
    corner = np.array([1.0, 1.0])
    for k in range(3):
        h = 0.25 / 2**k
        bm = extract_boundary(triangulate(lshape, h, q))
        touching = (
            np.linalg.norm(bm.segment_starts - corner, axis=1) < 1e-12
        ) | (np.linalg.norm(bm.segment_ends - corner, axis=1) < 1e-12)
        size = bm.lengths[touching].min()
        assert abs(math.log(size) / math.log(h) - q) <= 0.3


def test_quasi_uniform_max_diameter(square):
    for k in range(3):
        h = 0.25 / 2**k
        m = triangulate(square, h)
        assert m.diameters().max() <= 2.0 * h + 1e-12


def test_mesh_dump_roundtrip(tmp_path, square_mesh):
    path = tmp_path / "mesh.txt"
    write_mesh(path, square_mesh)
    head = path.read_text(encoding="utf-8").splitlines()[0]
    assert head == f"nodes {square_mesh.n_nodes} triangles {square_mesh.n_triangles}"
    nodes, tris = read_mesh(path)
    assert np.array_equal(tris, square_mesh.triangles)
    assert np.allclose(nodes, square_mesh.nodes, atol=0)


def test_polygon_vertices_are_mesh_nodes(lshape_mesh):
    for v in lshape_mesh.polygon.vertices:
        d = np.linalg.norm(lshape_mesh.nodes - v[None, :], axis=1).min()
        assert d <= 1e-12


def test_boundary_nodes_on_boundary(lshape_mesh):
    bidx = np.nonzero(lshape_mesh.boundary_node_flags)[0]
    d = lshape_mesh.polygon.distance_to_boundary(lshape_mesh.nodes[bidx])
    assert d.max() <= 1e-12


def test_disconnected_boundary_rejected(square):
    from venttsel.meshing import Mesh

    nodes = np.array(
        [[0, 0], [1, 0], [0, 1], [3, 3], [4, 3], [3, 4]], dtype=float
    )
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    m = Mesh(
        nodes=nodes,
        triangles=tris,
        boundary_node_flags=np.ones(6, dtype=bool),
        polygon=square,
    )
    with pytest.raises(MeshError):
        extract_boundary(m)


def _bare_mesh(polygon, nodes, tris):
    from venttsel.meshing import Mesh

    nodes = np.asarray(nodes, dtype=float)
    return Mesh(
        nodes=nodes,
        triangles=np.asarray(tris),
        boundary_node_flags=np.ones(len(nodes), dtype=bool),
        polygon=polygon,
    )


def test_pinched_boundary_rejected(square):
    # two triangles meet only at node 2, so two boundary edges leave it
    m = _bare_mesh(
        square, [[0, 0], [1, 0], [0.5, 0.5], [1, 1], [0, 1]], [[0, 1, 2], [2, 3, 4]]
    )
    with pytest.raises(MeshError, match="single closed cycle"):
        extract_boundary(m)
    # the same triangle twice: every edge is shared, so there is no boundary
    doubled = _bare_mesh(square, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(MeshError, match="single closed cycle"):
        extract_boundary(doubled)


def test_non_manifold_edge_rejected(square):
    # edge (0, 1) is shared by three triangles
    m = _bare_mesh(
        square,
        [[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 0.5]],
        [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    )
    with pytest.raises(MeshError, match="non-manifold"):
        extract_boundary(m)


def test_missing_polygon_vertex_rejected(square):
    # the node meant for vertex 2 = (1, 1) sits 1e-10 above it: the boundary
    # still lies on the sides and matches the perimeter, but vertex 2 is no node
    m = _bare_mesh(
        square,
        [[0, 0], [1, 0], [1, 1 + 1e-10], [0, 1], [0.5, 0.5]],
        [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
    )
    with pytest.raises(MeshError, match="polygon vertex 2 is not a mesh node"):
        extract_boundary(m)


def _boundary_meshes(polygon):
    uniform = triangulate(polygon, 0.25)
    return {
        "uniform": uniform,
        "graded": triangulate(polygon, 0.25, 1.0 / (1.0 - 0.42)),
        "refined2": refine(refine(uniform)),
    }


@pytest.mark.parametrize("shape", ["square", "lshape"])
def test_boundary_cycle_and_corner_nodes(shape, request):
    from venttsel.verify import make_manufactured, pointwise_load_table

    polygon = request.getfixturevalue(shape)
    problem = make_manufactured("cubic", polygon, 0.25, 1.0)
    # with g = 0 off the corners, the pointwise load is the corner masses alone
    problem.boundary_g_values = lambda pts, sides, tol: np.zeros(len(pts))
    for kind, m in _boundary_meshes(polygon).items():
        bm = extract_boundary(m)
        tris = m.triangles
        directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        assert np.all(m.areas > 0), kind
        for i, j in bm.node_pairs:
            assert np.sum((directed[:, 0] == i) & (directed[:, 1] == j)) == 1, kind
        assert np.array_equal(m.nodes[bm.boundary_nodes[0]], polygon.vertices[0]), kind
        assert bm.corner_nodes[0] == 0, kind
        assert np.array_equal(m.nodes[bm.boundary_nodes[bm.corner_nodes]], polygon.vertices), kind
        expected = np.zeros(bm.n_nodes)
        expected[bm.corner_nodes] = problem.corner_jumps()
        assert np.array_equal(pointwise_load_table(problem, bm), expected), kind


def test_read_mesh_rejects_bad_dumps(tmp_path, square_mesh):
    path = tmp_path / "mesh.txt"
    write_mesh(path, square_mesh)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    n = square_mesh.n_nodes

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(MeshError, match=rf"truncated\.txt:{len(lines)}: missing line"):
        read_mesh(truncated)

    short = tmp_path / "short.txt"
    short.write_text("".join(lines[: n + 1] + ["0 1\n"] + lines[n + 2 :]), encoding="utf-8")
    with pytest.raises(MeshError, match=rf"short\.txt:{n + 2}: expected 3 values, got 2"):
        read_mesh(short)

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("".join(lines[:1] + ["0.0 zero\n"] + lines[2:]), encoding="utf-8")
    with pytest.raises(MeshError, match=r"garbled\.txt:2: value does not parse"):
        read_mesh(garbled)

    for row, name in (("0 1 999\n", "beyond"), ("-1 0 1\n", "negative")):
        bad = tmp_path / f"{name}.txt"
        bad.write_text("".join(lines[: n + 2] + [row] + lines[n + 3 :]), encoding="utf-8")
        with pytest.raises(MeshError, match=rf"{name}\.txt:{n + 3}: node index outside 0 \.\. {n - 1}"):
            read_mesh(bad)


def _canonical(triangles):
    t = np.sort(triangles, axis=1)
    return t[np.lexsort(t.T[::-1])]


def _histogram(heights):
    """Non-convex lattice polygon: columns of width 1 and the given heights."""
    verts = [(0, 0), (len(heights), 0)]
    for i in range(len(heights) - 1, -1, -1):
        verts.append((i + 1, heights[i]))
        if i == 0 or heights[i - 1] != heights[i]:
            verts.append((i, heights[i]))
    return [v for k, v in enumerate(verts) if v != verts[k - 1]]


def _convex_hull(points):
    """Convex lattice polygon: the hull of the given lattice points."""
    points = np.array(points, dtype=float)
    try:
        return points[ConvexHull(points).vertices]
    except QhullError:
        return points[:0]


_LATTICE_POLYGONS = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(_histogram),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda wh: [(0, 0), (wh[0], 0), wh, (0, wh[1])]),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=8).map(_convex_hull),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_LATTICE_POLYGONS, st.sampled_from([1 / 2, 1 / 3, 1 / 4, 1 / 5]))
# qhull keeps a zero-area triangle inside this one's slanted hull side
@example([(0, 5), (1, 0), (5, 2), (4, 3)], 1 / 4)
# four boundary nodes at the corner (3, -4) are cocircular
@example([(3, 4), (1, 3), (-2, 2), (-2, -2), (-1, -2), (3, -4), (2, -2)], 1 / 4)
def test_uniform_mesh_is_culled_delaunay_of_its_nodes(vertices, h):
    try:
        polygon = build_polygon(vertices)
    except GeometryError:
        assume(False)
    assume(h <= polygon.side_lengths.min())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeshQualityWarning)
        m = triangulate(polygon, h)
    check_mesh(m)
    full = Delaunay(m.nodes).simplices
    full = full[polygon.contains_points(m.nodes[full].mean(axis=1))]
    # qhull returns zero-angle triangles along a slanted hull side; they are
    # no elements of a valid mesh
    e1, e2 = (m.nodes[full[:, k]] - m.nodes[full[:, 0]] for k in (1, 2))
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    full = full[np.abs(cross) > 1e-10 * ((e1**2).sum(axis=1) + (e2**2).sum(axis=1))]
    assert np.array_equal(_canonical(m.triangles), _canonical(full))
    # every interior edge lies in exactly two triangles, every boundary edge in one
    _, codes, _, counts = meshing._edges(m.triangles, m.n_nodes)
    boundary = meshing._edge_codes(m.boundary.node_pairs, m.n_nodes)
    assert np.array_equal(codes[counts == 1], np.sort(boundary))
    assert np.all(counts[counts != 1] == 2)


@pytest.mark.parametrize(
    "vertices, h",
    [
        ([(0, 5), (1, 0), (5, 2), (4, 3)], 1 / 4),
        ([(0, 5), (1, 0), (5, 2), (4, 3)], 1 / 8),
        ([(0, 5), (1, 0), (5, 2), (4, 3)], 1 / 16),
        ([(0, 2), (5, 0), (2, 4), (1, 5)], 1 / 2),
    ],
)
def test_slanted_hull_side_mesh_has_no_zero_angle(vertices, h):
    # along these slanted hull sides qhull returns zero-angle triangles; one
    # left in the mesh breaks the boundary cycle (the first polygon at h = 1/4
    # and 1/16) or reaches assembly with an area of 1.5e-16 (the second)
    m = triangulate(build_polygon(vertices), h)
    check_mesh(m)
    assert m.min_angle_deg() >= 20.0


def _lattice_results(monkeypatch):
    """Record what the lattice builder returns on each triangulate call."""
    results = []
    lattice_mesh = meshing._lattice_mesh

    def spy(*args):
        results.append(lattice_mesh(*args))
        return results[-1]

    monkeypatch.setattr(meshing, "_lattice_mesh", spy)
    return results


@pytest.mark.parametrize(
    "shape, hs",
    [
        ("square", (1 / 4, 1 / 8, 1 / 32)),
        ("lshape", (1 / 4, 1 / 8, 1 / 32)),
        ([(0, 0), (3, 0.4), (2.5, 2.2), (0.3, 1.7)], (1 / 4, 1 / 8)),
    ],
    ids=["square", "lshape", "slanted"],
)
def test_uniform_lattice_mesh_matches_ruppert_loop(shape, hs, request, monkeypatch):
    # the boundary points of the slanted quadrilateral's hull sides are not
    # exactly collinear; the lattice path builds its meshes too
    polygon = build_polygon(shape) if isinstance(shape, list) else request.getfixturevalue(shape)
    for h in hs:
        results = _lattice_results(monkeypatch)
        m = triangulate(polygon, h)
        assert results == [m]
        monkeypatch.undo()
        with monkeypatch.context() as off:
            off.setattr(meshing, "_lattice_mesh", lambda *args: None)
            loop = triangulate(polygon, h)
        assert np.array_equal(m.nodes, loop.nodes)
        assert np.array_equal(_canonical(m.triangles), _canonical(loop.triangles))


def test_uniform_fallback_matches_ruppert_loop(monkeypatch):
    # the 22-degree spike tip makes the first pass's band triangles encroach
    # on boundary sub-segments, so the lattice builder declines the mesh
    polygon = build_polygon([(0, 0), (2, 0), (2, 1), (1.25, 1), (1.8, 1.15), (1, 1.25), (1, 2), (0, 2)])
    results = _lattice_results(monkeypatch)
    m = triangulate(polygon, 0.25)
    assert results == [None]
    first_pass = sum(len(meshing._side_offsets(L, 0.25, 1.0)) - 1 for L in polygon.side_lengths)
    assert m.n_nodes > first_pass + len(meshing._hex_seeds(polygon, 0.25, 1.0)[0])
    monkeypatch.setattr(meshing, "_lattice_mesh", lambda *args: None)
    loop = triangulate(polygon, 0.25)
    assert np.array_equal(m.nodes, loop.nodes)
    assert np.array_equal(m.triangles, loop.triangles)


@pytest.mark.parametrize("q", [1.0, 1.0 / (1.0 - 0.42)])
def test_triangles_int32_counterclockwise(lshape, square, q):
    for polygon in (lshape, square):
        m = triangulate(polygon, 0.125, q)
        assert m.triangles.dtype == np.int32
        assert np.all(m.areas > 0)


@pytest.mark.parametrize("shape", ["square", "lshape"])
def test_uniform_mesh_scales_with_polygon(shape, request):
    # triangulate(t P, t h) is t times triangulate(P, h): the same triangles,
    # nodes to roundoff
    polygon = request.getfixturevalue(shape)
    for h in (1 / 4, 1 / 16):
        m = triangulate(polygon, h)
        for t in (0.5, 3.0):
            m_t = triangulate(build_polygon(t * polygon.vertices), t * h)
            assert m_t.nodes.shape == m.nodes.shape
            assert np.array_equal(_canonical(m_t.triangles), _canonical(m.triangles))
            assert np.abs(m_t.nodes - t * m.nodes).max() <= 1e-15 * t


@pytest.mark.parametrize(
    "h, n_nodes, n_triangles, n_boundary, sum_x, sum_y, sum_xy",
    [
        (0.5, 38, 46, 28, 34.92159912928645, 36.07798943422706, 27.41236045092524),
        (0.25, 137, 203, 69, 129.89168608740206, 128.80857036405064, 104.35198346032305),
        (0.125, 412, 694, 128, 367.9320250789785, 366.13399774530996, 276.99835458354835),
        (1 / 32, 5468, 10405, 529, 4837.131182468724, 4848.2461717762835, 3643.120379304278),
    ],
)
def test_graded_lshape_meshes_pinned(lshape, h, n_nodes, n_triangles, n_boundary, sum_x, sum_y, sum_xy):
    # the graded L-shape of the convergence studies, q = 1/(1 - 0.42): the
    # Ruppert passes take circumcentres in qhull's simplex order, so these
    # meshes move under edits that change that order or the candidate rules
    m = triangulate(lshape, h, 1.0 / (1.0 - 0.42))
    assert (m.n_nodes, m.n_triangles, int(m.boundary_node_flags.sum())) == (n_nodes, n_triangles, n_boundary)
    x, y = m.nodes.T
    assert np.allclose([x.sum(), y.sum(), (x * y).sum()], [sum_x, sum_y, sum_xy], rtol=1e-12, atol=0.0)


def _min_angles_each(lengths):
    """The three angles by arccos each, then their minimum."""
    c, a, b = lengths.T
    angs = [
        np.arccos(np.clip((e1**2 + e2**2 - opp**2) / (2 * e1 * e2), -1.0, 1.0))
        for opp, e1, e2 in ((a, b, c), (b, c, a), (c, a, b))
    ]
    return np.min(np.column_stack(angs), axis=1)


def test_min_angles_one_arccos_matches_three(rng):
    random = rng.uniform(-1.0, 1.0, size=(200_000, 3, 2))
    # near-degenerate: the third vertex within 1e-12 .. 1e-3 of the first edge's line
    flat = rng.uniform(-1.0, 1.0, size=(100_000, 3, 2))
    t = rng.uniform(-0.5, 1.5, size=100_000)
    flat[:, 2] = flat[:, 0] + t[:, None] * (flat[:, 1] - flat[:, 0])
    flat[:, 2, 1] += 10.0 ** rng.uniform(-12, -3, size=100_000) * rng.choice([-1, 1], size=100_000)
    # isosceles, with an apex angle of 20 degrees up to 1e-13 radians: the floor's edge
    ang = math.radians(20.0) + rng.integers(-10, 11, size=20_000) * 1e-14
    leg = rng.uniform(0.5, 2.0, size=20_000)
    floor = np.zeros((20_000, 3, 2))
    floor[:, 1, 0] = leg
    floor[:, 2] = leg[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    assert np.abs(meshing._min_angles(meshing._edge_lengths(floor)) - math.radians(20.0)).max() < 1e-12
    # a zero-length edge gives NaN in both forms
    zero = np.array([[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    for verts in (random, flat, floor, zero):
        lengths = meshing._edge_lengths(verts)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(meshing._min_angles(lengths), _min_angles_each(lengths), equal_nan=True)


def test_candidate_dedupe_keeps_first_in_input_order(lshape):
    # each candidate drops when a kept one lies within its own radius, 0.3 times
    # the local size at it; these sizes shrink toward the corner (1, 1)
    h, q = 0.5, 3.0

    def survivors(cand):
        sides = [meshing._side_offsets(L, h, q) for L in lshape.side_lengths]
        # the existing points are the corners, so the nearest lies at the
        # distance to them (a circumcentre's lies at its circumradius)
        cand = np.array(cand)
        new, split = meshing._process_candidates(lshape, sides, cand, dist_to_vertices(lshape, cand), h, q, 2.0)
        assert not split
        return new.tolist()

    a, b, c = [0.7, 0.7], [0.7, 0.72], [0.755, 0.755]
    radius = 0.3 * meshing._local_size(lshape, h, q, np.array([a, b, c]))
    assert 0.02 < radius.min()  # a and b lie within each other's radius
    assert radius[2] < math.dist(a, c) < radius[0]  # c lies within a's radius only
    assert survivors([a, b]) == [a]
    assert survivors([b, a]) == [b]
    assert survivors([a, c]) == [a, c]
    assert survivors([c, a]) == [c]


def _cycle_edges_by_codes(simp, B, n):
    """The sub-segments (k, k + 1 mod B) found among the sorted edge codes."""
    k = np.arange(B)
    pairs = np.column_stack([k, (k + 1) % B])
    return np.isin(meshing._edge_codes(pairs, n), meshing._edges(simp, n)[1])


def test_cycle_edges_present_matches_edge_codes(lshape, rng):
    m = triangulate(lshape, 0.25, 1.0 / (1.0 - 0.42))
    B = int(m.boundary_node_flags.sum())
    assert meshing._cycle_edges_present(m.triangles, B).all()
    # drop the triangles on one boundary sub-segment: exactly that one is missing
    k = B // 2
    on_k = np.isin(m.triangles, [k, k + 1]).sum(axis=1) == 2
    present = meshing._cycle_edges_present(m.triangles[~on_k], B)
    assert np.flatnonzero(~present).tolist() == [k]
    assert np.array_equal(present, _cycle_edges_by_codes(m.triangles[~on_k], B, m.n_nodes))
    # random point sets whose first B points are a random cycle, and random index triples
    for _ in range(50):
        n, B = int(rng.integers(8, 60)), int(rng.integers(3, 8))
        simp = Delaunay(rng.uniform(size=(n, 2))).simplices
        present = meshing._cycle_edges_present(simp, B)
        assert np.array_equal(present, _cycle_edges_by_codes(simp, B, n))
        simp = rng.integers(0, 6, size=(int(rng.integers(1, 12)), 3))
        assert np.array_equal(meshing._cycle_edges_present(simp, 5), _cycle_edges_by_codes(simp, 5, 6))

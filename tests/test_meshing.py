import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from venttsel import meshing
from venttsel.errors import GeometryError, MeshError, MeshQualityWarning
from venttsel.geometry import build_polygon
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
    assert np.allclose(bm.normals, [[0, -1], [1, 0], [0, 1], [-1, 0]])


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
    from venttsel.verify import PointwiseBoundarySource, make_manufactured

    polygon = request.getfixturevalue(shape)
    problem = make_manufactured("cubic", polygon, 0.25, 1.0)
    for kind, m in _boundary_meshes(polygon).items():
        bm = extract_boundary(m)
        tris = m.triangles
        directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        assert np.all(m.areas > 0), kind
        for i, j in bm.node_pairs:
            assert np.sum((directed[:, 0] == i) & (directed[:, 1] == j)) == 1, kind
        assert np.array_equal(m.nodes[bm.boundary_nodes[0]], polygon.vertices[0]), kind
        assert bm.corner_nodes[0] == 0, kind
        assert np.array_equal(bm.points[bm.corner_nodes], polygon.vertices), kind
        masses = PointwiseBoundarySource(problem).build(bm).point_masses
        assert [k for k, _ in masses] == bm.corner_nodes.tolist(), kind


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
    full = Delaunay(m.nodes).simplices
    full = full[polygon.contains_points(m.nodes[full].mean(axis=1))]
    assert np.array_equal(_canonical(m.triangles), _canonical(full))
    # every interior edge lies in exactly two triangles, every boundary edge in
    # one; not checked along a slanted hull side, where the Ruppert loop can
    # keep a zero-area triangle of qhull's
    sides = [meshing._side_offsets(L, h, 1.0) for L in polygon.side_lengths]
    assume(meshing._hull_sides_straight(polygon, sides))
    _, codes, _, counts = meshing._edges(m.triangles, m.n_nodes)
    boundary = meshing._edge_codes(m.boundary.node_pairs, m.n_nodes)
    assert np.array_equal(codes[counts == 1], np.sort(boundary))
    assert np.all(counts[counts != 1] == 2)


def _lattice_results(monkeypatch):
    """Record what the lattice builder returns on each triangulate call."""
    results = []
    lattice_mesh = meshing._lattice_mesh

    def spy(*args):
        results.append(lattice_mesh(*args))
        return results[-1]

    monkeypatch.setattr(meshing, "_lattice_mesh", spy)
    return results


@pytest.mark.parametrize("shape", ["square", "lshape"])
def test_uniform_lattice_mesh_matches_ruppert_loop(shape, request, monkeypatch):
    polygon = request.getfixturevalue(shape)
    for h in (1 / 4, 1 / 8, 1 / 32):
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

import math

import numpy as np
import pytest

from venttsel.errors import MeshError
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
        h_target=1.0,
        grading_exponent=1.0,
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
        h_target=1.0,
        grading_exponent=1.0,
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

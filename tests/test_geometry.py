import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venttsel.errors import GeometryError
from venttsel.geometry import WeightWindow, build_polygon, dist_to_vertices, sigma_window


def test_unit_square_angles(square):
    assert np.allclose(square.angles, math.pi / 2, atol=1e-14)
    assert square.alpha_max == pytest.approx(math.pi / 2)
    assert square.is_convex


def test_lshape_angles(lshape):
    assert np.sum(np.isclose(lshape.angles, math.pi / 2)) == 5
    assert np.sum(np.isclose(lshape.angles, 3 * math.pi / 2)) == 1
    reentrant = lshape.vertices[np.argmax(lshape.angles)]
    assert np.allclose(reentrant, [1.0, 1.0])
    assert lshape.alpha_max == pytest.approx(3 * math.pi / 2)
    assert not lshape.is_convex


def test_repeated_point_rejected():
    with pytest.raises(GeometryError):
        build_polygon([(0, 0), (0, 0), (1, 0), (1, 1)])


def test_self_intersection_rejected():
    with pytest.raises(GeometryError):
        build_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_clockwise_reoriented():
    p = build_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert p.reoriented
    assert p.area == pytest.approx(1.0)


def test_collinear_vertices_merged():
    p = build_polygon([(0, 0), (0.3, 0), (1, 0), (1, 1), (0, 1)])
    assert p.n_sides == 4
    assert np.allclose(sorted(p.angles), [math.pi / 2] * 4)


def test_exterior_angle_sum(square, lshape):
    for p in (square, lshape):
        assert abs(np.sum(math.pi - p.angles) - 2 * math.pi) <= 1e-12


def test_sigma_window_square(square):
    w = sigma_window(square)
    assert w.lower == pytest.approx(-0.5)
    assert w.lower_closed
    assert w.contains(-0.5) and w.contains(0.49) and not w.contains(0.5)


def test_sigma_window_lshape(lshape):
    w = sigma_window(lshape)
    assert w.lower == pytest.approx(1.0 / 3.0)
    assert not w.lower_closed
    assert not w.contains(1.0 / 3.0)
    assert w.contains(0.42)


def test_sigma_window_slit_limit():
    # formula limit alpha -> 2*pi: window (1/2, 1/2) reported empty
    w = WeightWindow(lower=0.5, lower_closed=False)
    assert w.is_empty
    assert not w.contains(0.5)
    with pytest.raises(GeometryError):
        _ = w.midpoint


def test_near_slit_window_thin():
    # deep notch: reentrant angle close to 2*pi gives a thin window
    eps = 1e-3
    p = build_polygon([(0, 0), (4, 0), (4, 4), (2 + eps, 4), (2, 0.5), (2 - eps, 4), (0, 4)])
    w = sigma_window(p)
    assert 0.49 < w.lower < 0.5
    assert not w.is_empty


def test_dist_to_vertices_examples(square, lshape):
    assert dist_to_vertices(square, (0.5, 0.5)) == pytest.approx(math.sqrt(0.5))
    assert dist_to_vertices(square, (1.0, 0.0)) == 0.0
    assert dist_to_vertices(lshape, (1.0, 1.0)) == 0.0
    # bitwise equal to the norm over all corners, then the minimum
    rng = np.random.default_rng(7)
    for poly in (square, lshape):
        sides = [
            poly.boundary_point(k, rng.uniform(0.0, poly.side_lengths[k], 10))
            for k in range(poly.n_sides)
        ]
        pts = np.vstack([rng.uniform(-1.0, 3.0, (200, 2)), poly.vertices, *sides])
        ref = np.linalg.norm(pts[:, None, :] - poly.vertices[None, :, :], axis=2).min(axis=1)
        assert np.array_equal(dist_to_vertices(poly, pts), ref)


def test_sigma_window_monotone_in_alpha():
    # darts with deeper notches: alpha_max grows, window lower bound must too
    data = []
    for d in (0.8, 0.4, 0.2, 0.1):
        p = build_polygon([(1, 0), (0, 1), (-1, 0), (0, d)])
        data.append((p.alpha_max, sigma_window(p).lower))
    data.sort()
    alphas = [a for a, _ in data]
    lowers = [lo for _, lo in data]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))  # distinct openings
    assert all(b >= a - 1e-14 for a, b in zip(lowers, lowers[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)
    )
)
def test_dist_is_1_lipschitz(xyxy):
    p = build_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    x = np.array(xyxy[:2])
    y = np.array(xyxy[2:])
    dx = dist_to_vertices(p, x)
    dy = dist_to_vertices(p, y)
    assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-12


def test_contains_and_boundary_distance(lshape):
    pts = np.array([[0.5, 0.5], [1.5, 1.5], [1.5, 0.5], [-0.1, 0.3]])
    inside = lshape.contains_points(pts)
    assert inside.tolist() == [True, False, True, False]
    d = lshape.nearest_side(np.array([[0.5, 0.5]]))[2]
    assert d[0] == pytest.approx(0.5)


def test_nan_point_not_on_boundary(square):
    # a NaN point is at no finite distance from any side
    side, t, dist = square.nearest_side(np.array([[np.nan, 0.0], [0.3, 0.0]]))
    assert side.tolist() == [0, 0] and t[1] == 0.3 and dist.tolist() == [np.inf, 0.0]
    with pytest.raises(GeometryError, match="is not on the boundary"):
        square.locate_boundary_point(np.array([[np.nan, 0.0]]))


def test_cusp_rejected():
    # spike whose tip angle collapses to zero
    with pytest.raises(GeometryError):
        build_polygon([(0, 0), (1, 0), (1e-16, 1e-8), (0, 1)])


def test_boundary_point_coordinate_major(lshape):
    # the same bits as start + outer(t, tangent) for scalar, 1-D and 2-D
    # offsets, on the L-shape and on a slanted polygon; with 1-D offsets each
    # coordinate column is contiguous
    slanted = build_polygon([(0, 5), (1, 0), (5, 2), (4, 3)])
    rng = np.random.default_rng(3)
    for poly in (lshape, slanted):
        for k in range(poly.n_sides):
            L = poly.side_lengths[k]
            for t in (0.37 * L, rng.uniform(0.0, L, 23), rng.uniform(0.0, L, (5, 7))):
                got = poly.boundary_point(k, t)
                ref = poly.side_starts[k] + np.multiply.outer(t, poly.side_tangents[k])
                assert got.shape == ref.shape and np.array_equal(got, ref)
            got = poly.boundary_point(k, rng.uniform(0.0, L, 23))
            assert got[:, 0].flags.c_contiguous and got[:, 1].flags.c_contiguous
        # an index array: each offset on its own side
        sides = rng.integers(0, poly.n_sides, 40)
        t = rng.uniform(0.0, 1.0, 40) * poly.side_lengths[sides]
        got = poly.boundary_point(sides, t)
        assert np.array_equal(got, poly.side_starts[sides] + t[:, None] * poly.side_tangents[sides])
        assert got[:, 0].flags.c_contiguous and got[:, 1].flags.c_contiguous

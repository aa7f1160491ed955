import math

import numpy as np
import pytest

from venttsel.quadrature import (
    adaptive_interval,
    adaptive_rectangle,
    duffy_triangle_rule,
    gauss01,
    gauss_interval,
    graded_breakpoints,
    tri_points_weights,
    tri_rule,
)


def test_gauss01_polynomial_exactness():
    x, w = gauss01(4)
    for k in range(8):
        assert np.sum(w * x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_tri_rule_degree2_exact():
    lam, w = tri_rule(2)
    # integrate x^a y^b over reference triangle, area 1/2
    verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    pts, wts = tri_points_weights(verts, degree=2)
    for a, b, exact in ((0, 0, 0.5), (1, 0, 1 / 6), (1, 1, 1 / 24), (2, 0, 1 / 12)):
        val = np.sum(wts[0] * pts[0, :, 0] ** a * pts[0, :, 1] ** b)
        assert val == pytest.approx(exact, rel=1e-13)


def test_duffy_rule_high_degree():
    verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    lam, w = duffy_triangle_rule(8)
    pts = np.einsum("kl,tld->tkd", lam, verts)[0]
    wts = 0.5 * w
    # degree-7 monomial: Int x^3 y^4 = 3! 4! / 9! = 1/2520
    val = np.sum(wts * pts[:, 0] ** 3 * pts[:, 1] ** 4)
    assert val == pytest.approx(144.0 / math.factorial(9), rel=1e-12)


def test_adaptive_interval_singular_endpoint():
    val, err = adaptive_interval(
        lambda t: t**-0.5, 0.0, 1.0, 1e-10, singular_end=0.0, singular_power=-0.5
    )
    assert val == pytest.approx(2.0, abs=1e-9)


def test_adaptive_interval_smooth():
    val, _ = adaptive_interval(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_adaptive_rectangle_smooth():
    val, _ = adaptive_rectangle(
        lambda x, y: np.exp(x) * np.cos(y), (0.0, 1.0, 0.0, 1.0), 1e-10
    )
    assert val == pytest.approx((math.e - 1.0) * math.sin(1.0), abs=1e-9)


def test_adaptive_rectangle_corner_singularity():
    # Int over [0,1]^2 of (x^2+y^2)^(-1/4): integrable, singular at origin
    def f(x, y):
        return (x**2 + y**2) ** -0.25

    val, err = adaptive_rectangle(
        f,
        (0.0, 1.0, 0.0, 1.0),
        1e-7,
        singular_points=[(0.0, 0.0)],
        singular_power=-0.5,
        singular_scale=4.0,
    )
    # reference by polar quadrature over the two symmetric halves
    from venttsel.quadrature import gauss_interval

    th, wt = gauss_interval(0.0, math.pi / 4.0, 60)
    ref = 2.0 * np.sum(wt * (1.0 / np.cos(th)) ** 1.5 / 1.5)
    assert val == pytest.approx(ref, rel=1e-6)


def test_adaptive_rectangle_vector_components():
    # a (3, P) integrand shares one subdivision; each component stays within
    # tol of its own scalar run, smooth or with a corner singularity
    def smooth(x, y):
        return np.array([np.exp(x) * np.cos(y), x * y**2, np.sin(3.0 * x + y)])

    def corner(x, y):
        r2 = x**2 + y**2
        return np.array([r2**-0.25, x * r2**-0.5, np.ones_like(x) + y])

    cases = (
        (smooth, {}),
        (
            corner,
            {"singular_points": [(0.0, 0.0)], "singular_power": -0.5, "singular_scale": 4.0},
        ),
    )
    for f, kw in cases:
        tol = 1e-8
        vals, err = adaptive_rectangle(f, (0.0, 1.0, 0.0, 1.0), tol, **kw)
        assert vals.shape == (3,) and err <= tol
        for k in range(3):
            ref, _ = adaptive_rectangle(lambda x, y: f(x, y)[k], (0.0, 1.0, 0.0, 1.0), tol, **kw)
            assert abs(vals[k] - ref) <= tol


def test_adaptive_rectangle_scalar_returns_float():
    val, _ = adaptive_rectangle(lambda x, y: x + y, (0.0, 1.0, 0.0, 2.0), 1e-10)
    assert type(val) is float and val == pytest.approx(3.0, abs=1e-12)


def test_graded_breakpoints():
    brk = graded_breakpoints(0.0, 1.0, 0.0, 4)
    assert brk[0] == 0.0 and brk[-1] == 1.0
    assert brk[1] == pytest.approx(2.0**-4)
    with pytest.raises(ValueError):
        graded_breakpoints(0.0, 1.0, 0.5, 3)


def test_graded_breakpoints_toward_both_ends():
    # one graded side: the union of the two one-sided layouts, endpoints exact
    for L, k in ((1.0, 4), (2.0, 40), (np.sqrt(2.0), 52)):
        both = graded_breakpoints(0.0, L, (0.0, L), k)
        one_each = np.union1d(graded_breakpoints(0.0, L, 0.0, k), graded_breakpoints(0.0, L, L, k))
        assert np.array_equal(both, one_each)
        assert both[0] == 0.0 and both[-1] == L and len(both) == 2 * k + 1
        assert np.array_equal(graded_breakpoints(0.0, L, (), k), [0.0, L])


def test_gauss_interval_on_panel_arrays():
    # arrays of panel ends give, row by row, the scalar rule of each panel
    brk = graded_breakpoints(0.0, 1.5, (0.0, 1.5), 6)
    ts, ws = gauss_interval(brk[:-1], brk[1:], 5)
    assert ts.shape == ws.shape == (len(brk) - 1, 5)
    for row, (a, b) in enumerate(zip(brk[:-1], brk[1:])):
        t, w = gauss_interval(a, b, 5)
        assert np.array_equal(ts[row], t) and np.array_equal(ws[row], w)
    assert np.sum(ws) == pytest.approx(1.5, rel=1e-14)

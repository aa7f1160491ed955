import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venttsel.assembly import NodalField, load_vector, nonlocal_matrix
from venttsel.errors import OracleError, VenttselError
from venttsel.geometry import build_polygon
from venttsel.meshing import extract_boundary, triangulate
from venttsel.transfer import evaluate_field, evaluate_gradient
from venttsel.quadrature import gauss_interval, graded_breakpoints, tri_points_weights
from venttsel import assembly, meshing, transfer, verify
from venttsel.verify import (
    ConvergenceTable,
    convergence_study,
    lshape_benchmark,
    make_manufactured,
    operator_laws,
    random_smooth_fields,
    rate_estimate,
    theta_entry_oracle,
    theta_pointwise_oracle,
)


# --- pointwise oracle --------------------------------------------------------


def test_pointwise_constant_trace(square):
    v = theta_pointwise_oracle(
        square, lambda p: np.ones(len(np.atleast_2d(p))), (0.3, 0.0), 0.25
    )
    assert v == 0.0


def test_pointwise_antisymmetric(square):
    centered = build_polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    v = theta_pointwise_oracle(
        centered, lambda p: np.atleast_2d(p)[:, 0], (0.0, 0.5), 0.3
    )
    assert abs(v) <= 1e-12


def test_pointwise_self_consistency_and_riemann(square):
    trace = lambda p: np.atleast_2d(p)[:, 0]
    x = np.array([1.0, 0.5])
    tol = 1e-6
    v1 = theta_pointwise_oracle(square, trace, x, 0.25, tol)
    v2 = theta_pointwise_oracle(square, trace, x, 0.25, tol / 10.0)
    assert abs(v1 - v2) <= 10.0 * tol

    # naive uniform Riemann evaluation extrapolated in mesh size
    def riemann(n):
        per, h = 4.0, 4.0 / n
        tt = (np.arange(n) + 0.5) * h
        side = np.minimum((tt // 1.0).astype(int), 3)
        loc = tt - side
        pts = square.side_starts[side] + loc[:, None] * square.side_tangents[side]
        d = np.linalg.norm(pts - x[None, :], axis=1)
        return 2.0 * np.sum((x[0] - pts[:, 0]) * d ** (-1.5) * h)

    r1, r2, r4 = riemann(2000), riemann(4000), riemann(8000)
    rate = (r2 - r1) / (r4 - r2)
    extrapolated = r4 + (r4 - r2) / (rate - 1.0)
    assert abs(extrapolated - v2) <= 1e-4


@pytest.mark.parametrize("s", [0.25, 0.5, 0.7])
def test_pointwise_tolerance_scaling(square, s):
    trace = lambda p: np.atleast_2d(p)[:, 0] ** 3 + np.atleast_2d(p)[:, 1] ** 3
    tol = 1e-7
    v1 = theta_pointwise_oracle(square, trace, (1.0, 0.37), s, tol)
    v2 = theta_pointwise_oracle(square, trace, (1.0, 0.37), s, tol / 2.0)
    assert abs(v1 - v2) <= tol * (1.0 + abs(v1))


def test_pointwise_corner_rules(square):
    trace = lambda p: np.atleast_2d(p)[:, 0] ** 3 + np.atleast_2d(p)[:, 1] ** 3
    with pytest.raises(OracleError):
        theta_pointwise_oracle(square, trace, (0.0, 0.0), 0.6, 1e-8)
    v = theta_pointwise_oracle(square, trace, (0.0, 0.0), 0.25, 1e-6)
    assert np.isfinite(v)


_TRACES = {
    "cubic": lambda p: np.atleast_2d(p)[:, 0] ** 3 + np.atleast_2d(p)[:, 1] ** 3,
    "harmonic": lambda p: np.exp(np.atleast_2d(p)[:, 0]) * np.sin(np.atleast_2d(p)[:, 1]),
    "wave": lambda p: np.sin(12 * np.atleast_2d(p)[:, 0]) * np.cos(9 * np.atleast_2d(p)[:, 1]),
}

# (polygon, trace, s, x, tol, value): values of the one-point-at-a-time
# oracle this batched one replaced (panel layout, orders, tail fit and retry
# unchanged), recorded as literals. Points within 1e-6 of a corner use a
# tolerance their error estimate meets at that s. The value at the L-shape's
# corner (1, 1) is the one corner rule's, which test_pointwise_lshape_corner_series
# checks against a series.
_GOLDEN = [
    ("square", "cubic", 0.25, (0.3, 0.0), 1e-08, -7.152336569356318),
    ("square", "cubic", 0.25, (1.0, 0.37), 1e-08, 2.3268006210709204),
    ("square", "cubic", 0.25, (0.62, 1.0), 1e-08, 2.9587301381160493),
    ("square", "cubic", 0.25, (0.9999995, 0.0), 1e-08, 8.817621999546862),
    ("square", "cubic", 0.25, (1.0, 3e-07), 1e-08, 8.830668481486082),
    ("lshape", "harmonic", 0.25, (0.0, 1.3), 1e-08, -5.472000099748046),
    ("lshape", "harmonic", 0.25, (1.0, 1.0000004), 1e-08, -3.674055700726581),
    ("square", "cubic", 0.5, (0.3, 0.0), 1e-08, -8.47908219746093),
    ("square", "cubic", 0.5, (1.0, 0.37), 1e-08, 1.734598449606697),
    ("square", "cubic", 0.5, (0.62, 1.0), 1e-08, 1.1846786704524002),
    ("square", "cubic", 0.5, (0.9999995, 0.0), 1e-06, 72.41746629237016),
    ("square", "cubic", 0.5, (1.0, 3e-07), 1e-06, 84.90873225200393),
    ("lshape", "harmonic", 0.5, (0.0, 1.3), 1e-08, -4.131133097161146),
    ("lshape", "harmonic", 0.5, (1.0, 1.0000004), 1e-06, -95.58963065151906),
    ("square", "cubic", 0.7, (0.3, 0.0), 1e-08, -11.006270058564573),
    ("square", "cubic", 0.7, (1.0, 0.37), 1e-08, -0.24463782871986095),
    ("square", "cubic", 0.7, (0.62, 1.0), 1e-08, -3.1400086574713146),
    ("square", "cubic", 0.7, (0.9999995, 0.0), 0.0001, 2454.6622028291044),
    ("square", "cubic", 0.7, (1.0, 3e-07), 0.0001, 6074.536744318748),
    ("lshape", "harmonic", 0.7, (0.0, 1.3), 1e-08, -2.438822448987395),
    ("lshape", "harmonic", 0.7, (1.0, 1.0000004), 0.0001, -5443.00072430304),
    ("square", "cubic", 0.25, (0.0, 0.0), 1e-06, -5.615390712708651),
    ("lshape", "harmonic", 0.25, (1.0, 1.0), 1e-06, -3.688433695527803),
]


@pytest.fixture(scope="module")
def polygons(square, lshape):
    return {"square": square, "lshape": lshape}


def test_pointwise_golden_values(polygons):
    groups = {}
    for poly, trace, s, x, tol, value in _GOLDEN:
        groups.setdefault((poly, trace, s, tol), []).append((x, value))
    for (poly, trace, s, tol), cases in groups.items():
        pts = np.array([x for x, _ in cases])
        golden = np.array([v for _, v in cases])
        batch = theta_pointwise_oracle(polygons[poly], _TRACES[trace], pts, s, tol)
        single = [theta_pointwise_oracle(polygons[poly], _TRACES[trace], x, s, tol) for x in pts]
        assert isinstance(single[0], float) and batch.shape == golden.shape
        assert np.all(np.abs(batch - golden) <= 1e-12 * np.abs(golden))
        assert np.array_equal(batch, single)


def test_pointwise_batch_invariance(lshape):
    trace = _TRACES["harmonic"]
    rng = np.random.default_rng(7)
    sides = rng.integers(0, lshape.n_sides, 40)
    offs = rng.uniform(0.0, 1.0, 40) * lshape.side_lengths[sides]
    offs[:8] = 10.0 ** rng.uniform(-9.0, -4.0, 8)  # near the start corners
    near = lshape.side_starts[sides] + offs[:, None] * lshape.side_tangents[sides]
    near[8] = lshape.vertices[3]  # the reentrant corner itself, s < 1/2 only
    for s, pts in ((0.25, near), (0.4, np.delete(near, 8, axis=0))):
        together, err = theta_pointwise_oracle(lshape, trace, pts, s, 1e-6, return_error=True)
        assert np.all(err <= 1e-6 * (1.0 + np.abs(together)))
        alone = [theta_pointwise_oracle(lshape, trace, p, s, 1e-6) for p in pts]
        assert np.array_equal(together, alone)
        reversed_ = theta_pointwise_oracle(lshape, trace, pts[::-1], s, 1e-6)[::-1]
        assert np.array_equal(together, reversed_)
        # leading points move the chunk boundaries to other places among
        # these; the last lead is 5 short of one chunk's rows at the first
        # pass's shallowest layout (20 panels x 16 nodes)
        for lead in (1, 13, verify._ORACLE_CHUNK // 320 - 5):
            shifted = np.vstack([np.repeat(pts[-1:], lead, axis=0), pts])
            values = theta_pointwise_oracle(lshape, trace, shifted, s, 1e-6)
            assert np.array_equal(together, values[lead:])


def test_pointwise_array_corner_rule(square):
    pts = np.array([[0.3, 0.0], [1.0, 0.37], [0.0, 1.0], [0.62, 1.0]])
    with pytest.raises(OracleError, match=re.escape(str(pts[2]))):
        theta_pointwise_oracle(square, _TRACES["cubic"], pts, 0.6, 1e-6)


def test_pointwise_retry(square):
    # the order-16 pass misses 1e-14 at this point; the order-24 pass meets it
    trace, x, s, tol, golden = _TRACES["wave"], (0.0, 0.81), 0.5, 1e-14, 4.2980933672585016
    first, first_err = theta_pointwise_oracle(square, trace, x, s, 1.0, return_error=True)
    assert first_err > tol * (1.0 + abs(first))
    value, err = theta_pointwise_oracle(square, trace, x, s, tol, return_error=True)
    assert err <= tol * (1.0 + abs(value))
    assert abs(value - golden) <= tol * (1.0 + abs(golden))


def test_pointwise_nan_estimate_raises(square):
    # a NaN estimate misses every tol, so it fails both passes
    trace = lambda p: np.where(np.atleast_2d(p)[:, 1] > 0.9, np.nan, np.atleast_2d(p)[:, 0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(OracleError, match="exceeds tol"):
            theta_pointwise_oracle(square, trace, (0.3, 0.0), 0.25, 1e-6)


@pytest.mark.parametrize("x, s, tol", [((0.0, 0.0), 0.4, 1e-7), ((1.0, 1.0), 0.25, 1e-10)])
def test_pointwise_corner_first_pass_meets_tol(lshape, x, s, tol):
    # the first pass takes both sides that meet at the corner in arc offsets
    # from it and meets tol, so the call never retries
    trace = _TRACES["harmonic"]
    first, first_err = theta_pointwise_oracle(lshape, trace, x, s, 1.0, return_error=True)
    assert np.isfinite(first) and first_err <= tol * (1.0 + abs(first))
    assert theta_pointwise_oracle(lshape, trace, x, s, tol) == first


def test_pointwise_lshape_corner_series(lshape):
    # u = e^x sin y at the reentrant corner (1, 1), s = 1/4: the two sides
    # meeting there integrate term by term, the four far ones are smooth
    # (200-point Gauss each)
    trace, s = _TRACES["harmonic"], 0.25
    e, sin1, cos1 = math.e, math.sin(1.0), math.cos(1.0)
    side_y = -e * sin1 * sum(1.0 / (math.factorial(k) * (k - 2 * s)) for k in range(1, 30))
    side_x = e * (
        sin1 * sum((-1) ** (k + 1) / (math.factorial(2 * k) * (2 * k - 2 * s)) for k in range(1, 15))
        - cos1 * sum((-1) ** k / (math.factorial(2 * k + 1) * (2 * k + 1 - 2 * s)) for k in range(15))
    )
    x = np.array([1.0, 1.0])
    r, w = gauss_interval(0.0, 1.0, 200)
    far = 0.0
    for j in (0, 1, 4, 5):
        y = lshape.side_starts[j] + np.outer(r * lshape.side_lengths[j], lshape.side_tangents[j])
        d = np.linalg.norm(y - x, axis=1)
        far += lshape.side_lengths[j] * np.sum(w * (trace(x) - trace(y)) * d ** (-(1.0 + 2.0 * s)))
    exact = 2.0 * (side_y + side_x + far)
    first, first_err = theta_pointwise_oracle(lshape, trace, x, s, 1.0, return_error=True)
    assert abs(first - exact) <= first_err <= 1e-10


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.45, 0.49])
def test_pointwise_corner_closed_form(square, s):
    # u = x + y^2 at the corner (1, 1): the two sides meeting there integrate
    # in closed form, the two far ones are smooth (80-point Gauss); the first
    # pass's estimate bounds its error, and the call meets tol
    trace = lambda p: np.atleast_2d(p)[:, 0] + np.atleast_2d(p)[:, 1] ** 2
    near = (2.0 / (1.0 - 2.0 * s) - 1.0 / (2.0 - 2.0 * s)) + 1.0 / (1.0 - 2.0 * s)
    r, w = gauss_interval(0.0, 1.0, 80)
    kernel = (1.0 + (1.0 - r) ** 2) ** (-(1.0 + 2.0 * s) / 2.0)
    far = np.sum(w * (2.0 - r) * kernel) + np.sum(w * (2.0 - r**2) * kernel)
    exact = 2.0 * (near + far)
    first, first_err = theta_pointwise_oracle(square, trace, (1.0, 1.0), s, 1.0, return_error=True)
    assert abs(first - exact) <= first_err
    value, err = theta_pointwise_oracle(square, trace, (1.0, 1.0), s, 1e-8, return_error=True)
    assert err <= 1e-8 * (1.0 + abs(value))
    assert abs(value - exact) <= err


def _near_corner_points(polygon, count, seed):
    """Every corner, then `count` boundary points, three in four of them
    2.5e-12..3.5e-12 off a corner: there the first pass takes its deepest
    layout (44 layers) on the side that meets theirs."""
    rng = np.random.default_rng(seed)
    sides = rng.integers(0, polygon.n_sides, count)
    L = polygon.side_lengths[sides]
    u = rng.uniform(0.0, 1.0, count)
    d = rng.uniform(2.5e-12, 3.5e-12, count)
    offs = np.where(rng.uniform(0.0, 1.0, count) < 0.75, np.where(u < 0.5, d, L - d), u * L)
    pts = polygon.side_starts[sides] + offs[:, None] * polygon.side_tangents[sides]
    return np.vstack([polygon.vertices, pts])


def test_pointwise_one_pass_per_stage(lshape, monkeypatch):
    passes = []
    original = verify._oracle_pass

    def counting(*args, **kwargs):
        passes.append(len(args[5]))
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "_oracle_pass", counting)
    pts = _near_corner_points(lshape, 200, 3)[lshape.n_sides :]
    theta_pointwise_oracle(lshape, _TRACES["harmonic"], pts, 0.25, 1e-8)
    assert 1 <= len(passes) <= 2 and passes[0] == len(pts)


def test_pointwise_batch_invariance_across_chunks(lshape, monkeypatch):
    trace = _TRACES["harmonic"]
    pts = _near_corner_points(lshape, 200, 5)
    layouts = []
    original = verify._chunks

    def recording(rows, nodes):
        layouts.append((nodes, len(rows)))
        return original(rows, nodes)

    monkeypatch.setattr(verify, "_chunks", recording)
    together, err = theta_pointwise_oracle(lshape, trace, pts, 0.25, 1e-8, return_error=True)
    monkeypatch.setattr(verify, "_chunks", original)
    assert np.all(err <= 1e-8 * (1.0 + np.abs(together)))
    # the deepest layout's rows fill several chunks
    nodes, rows = max(layouts)
    assert rows > 3 * (verify._ORACLE_CHUNK // nodes)
    alone = [theta_pointwise_oracle(lshape, trace, p, 0.25, 1e-8) for p in pts]
    assert np.array_equal(together, alone)


def _recording(trace, seen):
    """The trace, noting whether each array it gets has contiguous columns."""

    def wrapped(p):
        p = np.atleast_2d(p)
        seen.append(p[:, 0].flags.c_contiguous and p[:, 1].flags.c_contiguous)
        return trace(p)

    return wrapped


@pytest.mark.parametrize(
    "polygon, trace, pts, s, tol, derivative",
    [
        # the second point misses tol in the first pass and meets it in the retry
        ("square", "wave", [(0.0, 0.4), (0.0, 0.81)], 0.5, 1e-13, None),
        # a corner's first pass integrates the sides that meet there like its
        # own, and both points meet tol there
        ("lshape", "harmonic", [(0.0, 0.0), (0.5, 0.0)], 0.4, 1e-7, [0.0, 0.0]),
    ],
)
def test_pointwise_trace_reads_contiguous_columns(polygons, polygon, trace, pts, s, tol, derivative, monkeypatch):
    # every array the trace gets is coordinate-major, whatever the layout of
    # x: the points themselves, the numeric tangential derivative's stencil
    # and each pass's quadrature points
    passes = []
    original = verify._oracle_pass
    monkeypatch.setattr(
        verify, "_oracle_pass", lambda *args, **kwargs: passes.append(len(args[5])) or original(*args, **kwargs)
    )
    seen = []
    value, err = theta_pointwise_oracle(
        polygons[polygon], _recording(_TRACES[trace], seen), np.array(pts), s, tol,
        tangential_derivative=derivative, return_error=True,
    )
    assert passes == ([2, 1] if trace == "wave" else [2]) and np.all(err <= tol * (1.0 + np.abs(value)))
    assert len(seen) > 10 and all(seen)


def test_pointwise_logs_one_debug_line(square, caplog):
    caplog.set_level(logging.DEBUG, logger="venttsel")
    value, err = theta_pointwise_oracle(
        square, _TRACES["wave"], [(0.0, 0.4), (0.0, 0.81)], 0.5, 1e-13, return_error=True
    )
    (record,) = [r for r in caplog.records if r.name == "venttsel"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "points=2 retried=1 " in message
    assert f"worst_err={np.max(err / (1.0 + np.abs(value))):.3e} " in message
    assert re.search(r" \d+\.\d{3}s$", message)


# --- entry oracle --------------------------------------------------------------


def test_entry_oracle_separated_vs_tensor_gauss(square_bm8):
    # nodes 0 and 4 sit on opposite sides: all contributing pairs are separated
    s = 0.5
    val = theta_entry_oracle(square_bm8, s, tol=1e-10)[0, 4]

    x16, w16 = gauss_interval(0.0, 1.0, 16)

    def hat(node, seg, t, L):
        S = square_bm8.n_nodes
        if node == seg:
            return 1.0 - t / L
        if node == (seg + 1) % S:
            return t / L
        return np.zeros_like(t)

    ref = 0.0
    S = square_bm8.n_nodes
    for a in range(S):
        for b in range(S):
            if a == b or b == (a + 1) % S or a == (b + 1) % S:
                continue
            dofs = {a, (a + 1) % S, b, (b + 1) % S}
            if 0 not in dofs or 4 not in dofs:
                continue
            La = square_bm8.lengths[a]
            Lb = square_bm8.lengths[b]
            ta = x16 * La
            tb = x16 * Lb
            xp = square_bm8.segment_starts[a][None, :] + ta[:, None] * square_bm8.tangents[a]
            yp = square_bm8.segment_starts[b][None, :] + tb[:, None] * square_bm8.tangents[b]
            d = np.linalg.norm(xp[:, None, :] - yp[None, :, :], axis=2)
            fi = hat(0, a, ta, La)[:, None] - hat(0, b, tb, Lb)[None, :]
            fj = hat(4, a, ta, La)[:, None] - hat(4, b, tb, Lb)[None, :]
            wmat = (w16 * La)[:, None] * (w16 * Lb)[None, :]
            ref += np.sum(wmat * fi * fj * d**-2.0)
    assert val == pytest.approx(ref, abs=1e-9)


def test_entry_oracle_row_sum_and_symmetry(square):
    # each pair's hat products share one subdivision and the pair's hats sum
    # to zero, so the rows vanish to roundoff; both halves get the same sums
    bm = extract_boundary(triangulate(square, 1.0))
    oracle = theta_entry_oracle(bm, 0.5, 1e-8)
    assert oracle.shape == (bm.n_nodes, bm.n_nodes)
    assert np.array_equal(oracle, oracle.T)
    assert np.abs(oracle.sum(axis=1)).max() <= 1e-13 * np.abs(oracle).max()


# entries (0, 0), (0, 1) and (0, 4) of the per-entry oracle at tol 1e-9, as
# recorded before the oracle integrated each segment pair once
_ORACLE_PINS = {
    ("square_bm8", 0.25): (3.712469532472372, -0.44731109093657756, -0.3873669916744201),
    ("square_bm8", 0.5): (5.699958765667386, -1.308388064316155, -0.3572899453254529),
    ("square_bm8", 0.7): (10.213381015766597, -3.393606885887462, -0.33545910526398776),
    ("lshape_bm8", 0.25): (5.817025370594973, -0.4619375349783239, -1.1728872901050693),
    ("lshape_bm8", 0.5): (6.262617155175901, -1.1312471138795304, -0.9938381101606828),
    ("lshape_bm8", 0.7): (8.276633107425086, -2.396755826413301, -0.8742562457561996),
}


@pytest.mark.parametrize("bm_name, s", list(_ORACLE_PINS))
def test_entry_oracle_pinned_entries(bm_name, s, request):
    oracle = theta_entry_oracle(request.getfixturevalue(bm_name), s, tol=1e-9)
    assert oracle[0, [0, 1, 4]] == pytest.approx(_ORACLE_PINS[bm_name, s], abs=1e-9)


def test_entry_oracle_desk_scale_cap(square):
    bm = extract_boundary(triangulate(square, 1.0 / 32.0))
    with pytest.raises(OracleError):
        theta_entry_oracle(bm, 0.5)


# --- manufactured problems ------------------------------------------------------


def test_unknown_preset(square):
    with pytest.raises(VenttselError):
        make_manufactured("quartic", square, 0.5, 1.0)


def test_harmonic_bulk_source_vanishes(square):
    prob = make_manufactured("harmonic", square, 0.25, 1.0)
    pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
    assert np.abs(prob.f(pts)).max() == 0.0


def test_boundary_identity_residual(square, rng):
    """Self-check of the g construction: all terms evaluated analytically or by
    the oracle at tol and tol/10 agree to 2 tol at random non-corner points."""
    prob = make_manufactured("cubic", square, 0.25, 1.0)
    tol = 1e-7
    sides = rng.integers(0, 4, size=50)
    offs = rng.uniform(0.1, 0.9, size=50)
    pts = np.array([square.boundary_point(s, o) for s, o in zip(sides, offs)])
    g1 = prob.boundary_g_values(pts, sides, tol=tol)
    g2 = prob.boundary_g_values(pts, sides, tol=tol / 10.0)
    assert np.abs(g1 - g2).max() <= 2.0 * tol * (1.0 + np.abs(g2).max())


def test_load_route_equivalence(square, monkeypatch):
    """Pointwise-table and form-based load routes agree at s = 0.25."""
    monkeypatch.setattr(verify, "_POINTWISE_TOL", 1e-10)
    mesh = triangulate(square, 0.25)
    bm = extract_boundary(mesh)
    prob = make_manufactured("cubic", square, 0.25, 1.0)
    assert prob.g_route == "pointwise"
    lv_pw = load_vector(mesh, prob.f, prob)
    lv_lt = load_vector(mesh, prob.f, dataclasses.replace(prob, g_route="load_table"))
    scale = np.abs(lv_pw[bm.boundary_nodes]).max()
    assert np.abs(lv_pw - lv_lt).max() <= 1e-6 * scale


@pytest.mark.parametrize("polygon, h, q", [("square", 1.0 / 16.0, 1.0), ("lshape", 0.25, 1.0 / (1.0 - 0.42))])
def test_load_bulk_terms_boundary_triangles_bitwise(polygon, h, q, request, monkeypatch):
    # the form-based load integrates the bulk terms only over triangles with a
    # boundary vertex; its values are bitwise those of the full-mesh evaluation
    poly = request.getfixturevalue(polygon)
    bm = triangulate(poly, h, q).boundary
    prob = make_manufactured("cubic", poly, 0.7, 1.0)
    bulk_terms = verify._bulk_load_terms
    used = []
    monkeypatch.setattr(
        verify, "_bulk_load_terms", lambda p, m, tris: used.append(tris.sum()) or bulk_terms(p, m, tris)
    )
    restricted = verify.energy_load_table(prob, bm)
    assert 0 < used[0] < bm.mesh.n_triangles
    monkeypatch.setattr(verify, "_bulk_load_terms", lambda p, m, tris: bulk_terms(p, m, np.ones_like(tris)))
    assert np.array_equal(verify.energy_load_table(prob, bm), restricted)


def _stable_diff_rows(problem, x1, x2):
    """u(x1) - u(x2) of (..., 2) points as rows, the midpoint-gradient form
    where the separation nears roundoff."""
    f1, f2 = x1.reshape(-1, 2), x2.reshape(-1, 2)
    du = problem.u(f1) - problem.u(f2)
    delta = f1 - f2
    close = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2) < 1e-5 * (1.0 + np.sqrt(f1[:, 0] ** 2 + f1[:, 1] ** 2))
    if np.any(close):
        g = problem.grad_u(0.5 * (f1[close] + f2[close]))
        du[close] = np.einsum("pd,pd->p", g, delta[close])
    return du.reshape(x1.shape[:-1]), close.any()


@pytest.mark.parametrize("preset", ["cubic", "harmonic"])
def test_stable_diff_coordinate_major(square, preset):
    # the coordinate-major form gives the bits of the row form, on and off
    # its close branch
    problem = make_manufactured(preset, square, 0.7, 1.0)
    rng = np.random.default_rng(4)
    x1 = rng.uniform(-1.0, 2.0, (3, 5, 5, 2))
    for step, branch in ((0.3, False), (1e-7, True)):
        x2 = x1 + step * rng.uniform(-1.0, 1.0, x1.shape)
        expected, close = _stable_diff_rows(problem, x1, x2)
        assert close == branch
        got = verify._stable_diff(problem, np.moveaxis(x1, -1, 0).copy(), np.moveaxis(x2, -1, 0).copy())
        assert np.array_equal(got, expected)


def test_pointwise_table_skips_padding(square, monkeypatch):
    # the table pads its segments to the widest rule with zero weights; its one
    # oracle call sees only the nodes of positive weight
    bm = triangulate(square, 0.25).boundary
    prob = make_manufactured("cubic", square, 0.25, 1.0)
    evaluated = []
    original = verify.theta_pointwise_oracle

    def counting(polygon, trace, x, *args, **kwargs):
        evaluated.append(len(np.atleast_2d(x)))
        return original(polygon, trace, x, *args, **kwargs)

    monkeypatch.setattr(verify, "theta_pointwise_oracle", counting)
    verify.pointwise_load_table(prob, bm)
    # at h = 1/4 each corner touches two segments, graded toward it alone
    brk = graded_breakpoints(0.0, 1.0, (0.0,), verify._CORNER_LAYERS)
    graded = gauss_interval(brk[:-1], brk[1:], 6)[0].size
    touching = 2 * len(bm.corner_nodes)
    assert graded > verify._POINTWISE_ORDER
    assert evaluated == [touching * graded + (bm.n_segments - touching) * verify._POINTWISE_ORDER]


def test_default_g_routes(square):
    assert make_manufactured("cubic", square, 0.25, 1.0).g_route == "pointwise"
    assert make_manufactured("cubic", square, 0.7, 1.0).g_route == "load_table"
    assert make_manufactured("constant", square, 0.7, 1.0).g_route == "exact"


def test_unknown_g_route_raises(square):
    prob = dataclasses.replace(make_manufactured("cubic", square, 0.25, 1.0), g_route="table")
    with pytest.raises(VenttselError, match="unknown g route 'table'"):
        prob.spec()


def test_corner_jumps_cubic(square):
    prob = make_manufactured("cubic", square, 0.25, 1.0)
    jumps = prob.corner_jumps()
    # at (1, 0): incoming tangent (1,0) gives 3x^2 = 3; outgoing (0,1) gives 3y^2 = 0
    assert jumps[1] == pytest.approx(3.0)


def _g_l2_per_side(problem):
    """manufactured_g_l2 with one boundary_g_values call per side."""
    poly = problem.polygon
    total = 0.0
    for side in range(poly.n_sides):
        L = poly.side_lengths[side]
        brk = graded_breakpoints(0.0, L, (0.0, L), 12)
        ts, ws = gauss_interval(brk[:-1], brk[1:], 6)
        gv = problem.boundary_g_values(
            poly.boundary_point(side, ts.ravel()), np.full(ts.size, side), tol=1e-6
        ).reshape(ts.shape)
        panel_vals = list(np.sum(ws * gv**2, axis=1))
        total += sum(panel_vals)
        for inner, nxt in ((panel_vals[0], panel_vals[1]), (panel_vals[-1], panel_vals[-2])):
            ratio = min(abs(inner / nxt), 0.95) if nxt else 0.0
            total += inner * ratio / (1.0 - ratio)
    return math.sqrt(max(0.0, total))


@pytest.mark.parametrize("polygon, s", [("square", 0.25), ("lshape", 0.7)])
def test_g_norm_one_oracle_call(polygon, s, request, monkeypatch):
    # the pointwise oracle runs once over the points of all sides, and its
    # batch invariance keeps the norm bitwise that of one call per side
    problem = make_manufactured("cubic", request.getfixturevalue(polygon), s, 1.0)
    reference = _g_l2_per_side(problem)
    calls = []
    oracle = verify.theta_pointwise_oracle
    monkeypatch.setattr(
        verify, "theta_pointwise_oracle", lambda *args, **kwargs: calls.append(1) or oracle(*args, **kwargs)
    )
    assert verify.manufactured_g_l2(problem) == reference
    assert len(calls) == 1


# Boundary loads per node on the square, cubic preset: (s, h) -> sum and sum of
# absolute values of the pointwise route's load (s < 1/2), recorded from the
# boundary entries of load_vector(mesh, 0.0, g) when g was a quadrature table,
# and of the form-based load (s = 0.7), recorded before the points were built
# coordinate-major; and the g norm at s = 0.25
_TABLE_PINS = {
    (0.25, 0.5): (8.999994789706205, 34.822197366518786),
    (0.25, 0.25): (8.999998157926118, 39.037521713535455),
    (0.25, 0.125): (8.999999348736154, 40.495901796564254),
    (0.4, 0.5): (8.999847638868852, 37.295312686490924),
    (0.4, 0.25): (8.999933681880123, 42.17913411914863),
    (0.4, 0.125): (8.999971133560791, 43.869093636175684),
    (0.7, 0.25): (9.0, 59.40094204756382),
    (0.7, 0.125): (8.999999999999996, 64.13454794949784),
    (0.7, 0.0625): (9.000000000000005, 65.48158680158505),
}


@pytest.mark.parametrize("s, h", list(_TABLE_PINS))
def test_load_tables_pinned(square, s, h):
    problem = make_manufactured("cubic", square, s, 1.0)
    bm = triangulate(square, h).boundary
    values = problem.build(bm)
    assert np.allclose((values.sum(), np.abs(values).sum()), _TABLE_PINS[s, h], rtol=1e-13, atol=0.0)


def test_g_norm_pinned(square):
    assert verify.manufactured_g_l2(make_manufactured("cubic", square, 0.25, 1.0)) == pytest.approx(
        15.88704457981682, rel=1e-13, abs=0.0
    )


def test_bulk_norms_independent_of_chunks(square, monkeypatch):
    # the chunked bulk sums cover every triangle once; chunking moves them by
    # summation order only
    mesh = triangulate(square, 1.0 / 16.0)
    problem = make_manufactured("cubic", square, 0.7, 1.0)
    u = NodalField(problem.u(mesh.nodes) + 1e-3 * np.sin(7.0 * mesh.nodes[:, 0]), mesh)
    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 10**9)
    whole = (verify.source_l2_bulk(problem.f, mesh), *verify.errors_vs_exact(u, problem))
    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 7)
    assert mesh.n_triangles > 10 * 7
    chunked = (verify.source_l2_bulk(problem.f, mesh), *verify.errors_vs_exact(u, problem))
    assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)


def test_reference_errors_independent_of_chunks(lshape, monkeypatch):
    # each chunk of reference triangles locates its own points; a point's
    # triangle and barycentrics do not depend on the batch, so chunking moves
    # the errors by summation order only
    mesh, rmesh = triangulate(lshape, 1.0 / 8.0), triangulate(lshape, 1.0 / 16.0)

    def field(m):
        return NodalField(np.sin(3.0 * m.nodes[:, 0]) * m.nodes[:, 1] ** 2, m)

    u, ref = field(mesh), field(rmesh)
    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 10**9)
    whole = verify.errors_vs_reference(u, ref)
    monkeypatch.setattr(meshing, "_TRIANGLE_CHUNK", 7)
    assert rmesh.n_triangles > 10 * 7
    assert np.allclose(verify.errors_vs_reference(u, ref), whole, rtol=1e-14, atol=0.0)


def test_reference_errors_locate_once_per_triangle(lshape, monkeypatch):
    # graded meshes are regenerated per level, so some quadrature points of a
    # reference triangle lie outside the coarse triangle that holds its
    # centroid; only those points are located on their own
    q = 1.0 / (1.0 - 0.42)
    mesh, rmesh = triangulate(lshape, 0.5, q), triangulate(lshape, 0.125, q)
    u = NodalField(np.sin(3.0 * mesh.nodes[:, 0]) * mesh.nodes[:, 1] ** 2, mesh)
    ref = NodalField(np.cos(2.0 * rmesh.nodes[:, 1]) * rmesh.nodes[:, 0], rmesh)
    assert rmesh.n_triangles <= meshing._TRIANGLE_CHUNK

    def located_each(u, cent, pts):
        # every quadrature point and every centroid located on its own
        return evaluate_field(u, pts.reshape(-1, 2)).reshape(pts.shape[:2]), evaluate_gradient(u, cent)

    with monkeypatch.context() as each:
        each.setattr(verify, "_evaluate_by_centroid", located_each)
        expected = verify.errors_vs_reference(u, ref)

    cent = rmesh.tri_verts.mean(axis=1)
    pts = tri_points_weights(rmesh.tri_verts, 2)[0].reshape(-1, 2)
    tri_c = transfer.locate_points(mesh, cent)[0]
    lam = transfer._bary(mesh, np.repeat(tri_c, 3), pts)
    misses = int(np.sum(lam.min(axis=1) < -transfer._BARY_TOL))
    assert misses > 0

    seen = []
    locate = transfer.locate_points

    def spy(m, p):
        seen.append(len(p))
        return locate(m, p)

    monkeypatch.setattr(transfer, "locate_points", spy)
    errors = verify.errors_vs_reference(u, ref)
    assert seen == [rmesh.n_triangles, misses]
    assert np.allclose(errors, expected, rtol=1e-13, atol=0.0)


# --- assembly vs oracle on richer geometry ---------------------------------------


def test_assembly_matches_oracle_coarse_square(square):
    # one segment per side, s = 1/2: every entry against the adaptive oracle,
    # which rejects the operator scaled by 1 + 1e-5
    bm = extract_boundary(triangulate(square, 1.0))
    theta = nonlocal_matrix(bm, 0.5)
    for factor, passed in ((1.0, True), (1.0 + 1e-5, False)):
        laws = {rec["name"]: rec for rec in operator_laws(bm, 0.5, factor * theta)}
        assert laws["theta_oracle_equivalence"]["passed"] is passed


def _flip_top_eigenpair(theta):
    w, V = np.linalg.eigh(theta)
    return theta - 2.0 * w[-1] * np.outer(V[:, -1], V[:, -1])


def _bump_off_diagonal(theta):
    theta = theta.copy()
    theta[0, 1] += 1e-9
    return theta


_BROKEN_THETA = {
    "theta_symmetric": _bump_off_diagonal,
    "theta_annihilates_constants": lambda theta: theta + 1e-9 * np.eye(len(theta)),
    "theta_psd": _flip_top_eigenpair,
    "theta_scaling_law": lambda theta: theta * (1.0 + 1e-6),
    "theta_orders": None,  # one-point separated-pair rules instead
}


@pytest.mark.parametrize("law", list(_BROKEN_THETA))
def test_operator_laws_reject_broken_theta(square_bm, law, monkeypatch):
    # the intact operator passes every law (criterion 2); on 16 segments the
    # oracle record is skipped, so each case is cheap
    s = 0.7
    if _BROKEN_THETA[law] is None:
        monkeypatch.setattr(assembly, "_ORDERS", (1, 1, 1))
        theta = nonlocal_matrix(square_bm, s)
    else:
        theta = _BROKEN_THETA[law](nonlocal_matrix(square_bm, s))
    records = {rec["name"]: rec for rec in operator_laws(square_bm, s, theta)}
    assert not records[law]["passed"] and "theta_oracle_equivalence" not in records
    assert all(rec["passed"] == (rec["value"] <= rec["bound"]) for rec in records.values())


# --- tables and rates -------------------------------------------------------------


def _table(errors):
    rows = [
        {"level": k, "h": 0.5**k, "unknowns": 10, "err_l2_bulk": e}
        for k, e in enumerate(errors)
    ]
    return ConvergenceTable(rows=rows)


def test_rate_estimate_examples():
    assert rate_estimate(_table([0.1, 0.05, 0.025]), "err_l2_bulk") == pytest.approx([1.0, 1.0])
    assert rate_estimate(_table([0.1, 0.025]), "err_l2_bulk") == pytest.approx([2.0])
    assert rate_estimate(_table([0.3, 0.3, 0.3]), "err_l2_bulk") == pytest.approx([0.0, 0.0])
    assert rate_estimate(_table([0.1, 0.0]), "err_l2_bulk") == ["exact"]
    with pytest.raises(VenttselError):
        rate_estimate(_table([0.1]), "err_l2_bulk")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(1e-8, 1e2), min_size=2, max_size=6))
def test_rate_estimate_reconstructs(errors):
    rates = rate_estimate(_table(errors), "err_l2_bulk")
    for k, r in enumerate(rates):
        assert errors[k + 1] * 2.0**r == pytest.approx(errors[k], rel=1e-9)


def test_csv_format():
    tab = _table([0.1, 0.05])
    for row in tab.rows:
        row.update(
            err_h1_bulk=1.0, err_l2_bdry=1.0, err_h1_bdry=1.0, bdry_h2_diag=1.0, stability_ratio=1.0
        )
    text = tab.to_csv()
    lines = text.splitlines()
    assert lines[0] == (
        "level,h,unknowns,err_l2_bulk,err_h1_bulk,err_l2_bdry,err_h1_bdry,"
        "bdry_h2_diag,stability_ratio"
    )
    assert len(lines) == 3
    assert lines[2] == "1,0.5,10,0.05,1.0,1.0,1.0,1.0,1.0"
    assert text.endswith("\n")


def test_random_smooth_fields_deterministic(square_mesh):
    a = [u.values for u in random_smooth_fields(square_mesh, 3, 42)]
    b = [u.values for u in random_smooth_fields(square_mesh, 3, 42)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_lshape_benchmark_data():
    bench = lshape_benchmark()
    assert bench.s == 0.5
    assert bench.polygon.alpha_max == pytest.approx(1.5 * math.pi)
    spec = bench.spec()
    assert spec.coercive


def test_graded_benchmark_study_meshes_only_used_levels(monkeypatch):
    # levels 0..2 plus the reference two levels down; level 3 is never used
    sizes = []
    original = verify.triangulate

    def counting(polygon, h, *args, **kwargs):
        sizes.append(h)
        return original(polygon, h, *args, **kwargs)

    monkeypatch.setattr(verify, "triangulate", counting)
    convergence_study(lshape_benchmark(), 3, h0=1.0, q=1.0 / (1.0 - 0.42))
    assert sizes == [1.0, 0.5, 0.25, 0.0625]

import tracemalloc

import numpy as np
import pytest

from venttsel.geometry import build_polygon
from venttsel.meshing import extract_boundary, triangulate

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
LSHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


def traced_peak(fn) -> int:
    """Peak bytes of traced Python allocations, numpy arrays included, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def square():
    return build_polygon(SQUARE)


@pytest.fixture(scope="session")
def lshape():
    return build_polygon(LSHAPE)


@pytest.fixture(scope="session")
def square_mesh(square):
    return triangulate(square, 0.25)


@pytest.fixture(scope="session")
def square_bm(square_mesh):
    return extract_boundary(square_mesh)


@pytest.fixture(scope="session")
def square_mesh8(square):
    """Unit square with exactly 8 boundary segments (2 per side)."""
    return triangulate(square, 0.5)


@pytest.fixture(scope="session")
def square_bm8(square_mesh8):
    return extract_boundary(square_mesh8)


@pytest.fixture(scope="session")
def lshape_mesh8(lshape):
    """L-shape with exactly 8 boundary segments (one per unit of perimeter)."""
    return triangulate(lshape, 1.0)


@pytest.fixture(scope="session")
def lshape_bm8(lshape_mesh8):
    return extract_boundary(lshape_mesh8)


@pytest.fixture(scope="session")
def lshape_mesh(lshape):
    return triangulate(lshape, 0.25)


@pytest.fixture(scope="session")
def entry_oracles():
    """theta_entry_oracle(bm, s, tol) matrices by (bm, s, tol): the operator-law
    records of criteria 2 and 3 fill it, and the pinned-entry test reads it, so
    each of those oracles is built once per session."""
    return {}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)

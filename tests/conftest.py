import numpy as np
import pytest

import radonflow as rf

# frozen desk-scale configurations used across the suite
SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
TRI_INTERIOR = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.5, 0.5]]
HEXAGON = [[0.0, 0.0], [4.0, 1.0], [6.0, 4.0], [5.0, 7.0], [1.0, 6.0], [-1.0, 3.0]]
LINE4 = [[0.0], [1.0], [2.0], [4.0]]
# two coincident pairs make a direct sum: some vertices have a neighbor and
# its antipode on one cycle
DIRECT_SUM = [[0, 0], [0, 0], [4, 1], [6, 4], [6, 4], [1, 6]]
# a triple collinear up to eps, on both sides of the rank rule's threshold
NEAR_COLLINEAR_EPS = [5e-10, 8e-10, 1e-9, 2e-9, 3e-9, 5e-9]


def near_collinear(eps):
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, eps], [0.0, 1.0], [1.0, 2.0]]
    return rf.PointConfiguration(np.asarray(pts), 2)


def pentagon_points():
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.fixture(scope="session")
def square_config():
    return rf.PointConfiguration(np.asarray(SQUARE), 2)


@pytest.fixture(scope="session")
def square_matroid(square_config):
    return rf.circuits_of_points(square_config)


@pytest.fixture(scope="session")
def tri_interior_config():
    return rf.PointConfiguration(np.asarray(TRI_INTERIOR), 2)


@pytest.fixture(scope="session")
def pentagon_config():
    return rf.PointConfiguration(pentagon_points(), 2)


@pytest.fixture(scope="session")
def hexagon_config():
    return rf.PointConfiguration(np.asarray(HEXAGON), 2)


@pytest.fixture(scope="session")
def line_config():
    return rf.PointConfiguration(np.asarray(LINE4), 1)


@pytest.fixture(scope="session")
def pentagon_complex(pentagon_config):
    return rf.geometric_radon_complex(pentagon_config)


@pytest.fixture(scope="session")
def hexagon_complex(hexagon_config):
    return rf.geometric_radon_complex(hexagon_config)


@pytest.fixture(scope="session")
def pentagon_sphere(pentagon_config):
    return rf.EmbeddedSphere.from_points(pentagon_config)


@pytest.fixture(scope="session")
def hexagon_sphere(hexagon_config):
    return rf.EmbeddedSphere.from_points(hexagon_config)


def sample_spanning_points(n, d, rng):
    """Integer coordinates in [-20, 20], resampled until they span R^d."""
    while True:
        pts = rng.integers(-20, 21, size=(n, d))
        config = rf.PointConfiguration(pts.astype(float), d)
        if config.affinely_spans():
            return pts


def sample_degenerate_points(n, d, rng, kind):
    """Integer points with a coincident pair or a collinear triple, spanning R^d."""
    while True:
        pts = rng.integers(-20, 21, size=(n, d))
        i, j, k = rng.choice(n, size=3, replace=False)
        if kind == "pair":
            pts[j] = pts[i]
        else:  # k on the line through i and j, outside the segment
            pts[k] = pts[i] + rng.choice([-2, -1, 2, 3]) * (pts[j] - pts[i])
        if rf.PointConfiguration(pts.astype(float), d).affinely_spans():
            return pts


def widened(m, n, shift):
    """m with every element e relabeled e + shift, on a ground set of n elements."""
    return rf.OrientedMatroid.from_circuits(
        rf.GroundSet(n, m.d),
        frozenset(
            rf.Circuit.make({e + shift for e in c.pos}, {e + shift for e in c.neg})
            for c in m.circuits
        ),
    )


def ascending_pairs(pairs, k):
    """pairs is an (m, 2) intp array of pairs 0 <= i < j < k whose rows are
    in strictly ascending row-major order, so no pair repeats."""
    if pairs.dtype != np.intp or pairs.ndim != 2 or pairs.shape[1] != 2:
        return False
    i, j = pairs.T
    return bool(((0 <= i) & (i < j) & (j < k)).all() and (np.diff(i * k + j) > 0).all())

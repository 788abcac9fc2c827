"""The ambient polytope { x : sum|x_i| = 2, sum x_i = 0 }: radial projection
onto it, and the test-side model of it in oracles."""

import numpy as np
import pytest

import radonflow as rf
from oracles import AmbientSpace, support_projection


def zero_sum_vectors(rng, n, count):
    for _ in range(count):
        x = rng.standard_normal(n)
        x -= x.mean()
        if np.abs(x).sum() > 1e-6:
            yield x


def test_project_lands_on_polytope():
    rng = np.random.default_rng(101)
    for x in zero_sum_vectors(rng, 6, 200):
        y = rf.project_to_gamma(x)
        assert abs(y.sum()) < 1e-12 and abs(np.abs(y).sum() - 2.0) < 1e-12
        # radial: direction unchanged
        assert np.allclose(y / np.linalg.norm(y), x / np.linalg.norm(x))


def test_project_is_idempotent():
    rng = np.random.default_rng(102)
    for x in zero_sum_vectors(rng, 5, 50):
        y = rf.project_to_gamma(x)
        assert np.allclose(rf.project_to_gamma(y), y, atol=1e-14)


def test_project_scale_invariant():
    x = np.array([3.0, -1.0, -2.0, 0.0])
    assert np.allclose(rf.project_to_gamma(x), rf.project_to_gamma(10.0 * x))


def test_project_rejects_near_zero():
    with pytest.raises(rf.DegeneratePointError):
        rf.project_to_gamma(np.zeros(4))
    with pytest.raises(rf.DegeneratePointError):
        rf.project_to_gamma(np.full(4, 1e-12) * np.array([1, -1, 1, -1]))


def test_project_rejects_nonzero_sum():
    with pytest.raises(rf.GammaMembershipError):
        rf.project_to_gamma(np.array([1.0, 1.0, -1.0, 0.0]))


def test_support_projection_zeroes_off_support():
    x = np.array([3.0, 1.0, -2.0, 5.0, 0.5])
    y = support_projection([1, 3, 4], x)
    assert y[1] == 0.0 and y[4] == 0.0
    assert abs(y[[0, 2, 3]].sum()) < 1e-12


def test_support_projection_is_orthogonal():
    # residual is orthogonal to every difference direction of the support
    rng = np.random.default_rng(103)
    for _ in range(100):
        x = rng.standard_normal(6)
        sup = [1, 2, 5, 6]
        y = support_projection(sup, x)
        r = x - y
        for i in sup:
            for j in sup:
                if i < j:
                    e = np.zeros(6)
                    e[i - 1], e[j - 1] = 1.0, -1.0
                    assert abs(r @ e) < 1e-12
        assert np.allclose(support_projection(sup, y), y, atol=1e-14)


def test_support_projection_validates_input():
    with pytest.raises(ValueError):
        support_projection([1], np.zeros(4))
    with pytest.raises(ValueError):
        support_projection([1, 9], np.zeros(4))


def test_ambient_vertices_and_barycenters():
    amb = AmbientSpace(4)
    v = amb.vertex(2, 4)
    assert amb.face_of(v) == ({2}, {4})
    assert v[1] == 1.0 and v[3] == -1.0
    c = rf.Circuit(frozenset({1, 4}), frozenset({2, 3}))
    b = amb.barycenter(c)
    assert amb.face_of(b) == (c.pos, c.neg)
    a = 5e-10  # below the sign threshold, within membership tolerance
    assert amb.face_of(np.array([1.0, -1.0, a, -a])) == ({1}, {2})
    assert np.allclose(amb.barycenter(c, -1), -b)


def test_ambient_validates_labels():
    amb = AmbientSpace(4)
    with pytest.raises(ValueError):
        amb.vertex(1, 1)
    with pytest.raises(ValueError):
        amb.vertex(0, 2)
    with pytest.raises(ValueError):
        AmbientSpace(2)
    with pytest.raises(ValueError):
        amb.project(np.zeros(5))
    with pytest.raises(ValueError, match="not on the polytope"):
        amb.face_of(np.array([2.0, -2.0, 0.0, 0.0]))


def test_project_rescales_a_stack_row_by_row():
    rng = np.random.default_rng(103)
    xs = np.array(list(zero_sum_vectors(rng, 9, 40)))
    stacked = rf.project_to_gamma(xs)
    assert np.array_equal(stacked, np.array([rf.project_to_gamma(x) for x in xs]))
    # one bad row is enough, wherever it sits
    for bad, error in ((np.zeros(9), rf.DegeneratePointError), (np.eye(9)[2], rf.GammaMembershipError)):
        rows = xs.copy()
        rows[17] = bad
        with pytest.raises(error):
            rf.project_to_gamma(rows)

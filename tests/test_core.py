from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import radonflow as rf
from conftest import (
    HEXAGON,
    LINE4,
    SQUARE,
    TRI_INTERIOR,
    sample_degenerate_points,
    sample_spanning_points,
    widened,
)
from oracles import exact_circuits, sample_configuration
from radonflow.core import ELIMINATION_CAP


def circuit_set(m):
    return {(c.pos, c.neg) for c in m.circuits}


def test_square_has_one_crossing_circuit(square_matroid):
    assert circuit_set(square_matroid) == {(frozenset({1, 4}), frozenset({2, 3}))}


def test_triangle_interior_circuit(tri_interior_config):
    m = rf.circuits_of_points(tri_interior_config)
    # interior point against the three corners, canonicalized
    assert circuit_set(m) == {(frozenset({1, 2, 3}), frozenset({4}))}


def test_pentagon_has_one_circuit_per_four_subset(pentagon_config):
    m = rf.circuits_of_points(pentagon_config)
    assert len(m.circuits) == 5
    supports = {c.support for c in m.circuits}
    assert supports == {
        frozenset({1, 2, 3, 4, 5}) - {e} for e in range(1, 6)
    }
    assert m.is_uniform and m.acyclic


def test_line_circuits_are_all_triples(line_config):
    m = rf.circuits_of_points(line_config)
    assert {c.support for c in m.circuits} == {
        frozenset(s) for s in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    }
    # middle point carries the opposite sign
    assert (frozenset({1, 3}), frozenset({2})) in circuit_set(m)


def test_coincident_pair_is_a_two_element_circuit():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = rf.circuits_of_points(rf.PointConfiguration(pts, 2))
    assert circuit_set(m) == {(frozenset({1}), frozenset({2}))}


def test_circuits_match_exact_oracle_on_fixed_configs():
    for pts, d in ((SQUARE, 2), (TRI_INTERIOR, 2), (HEXAGON, 2), (LINE4, 1)):
        ints = [[int(v) for v in row] for row in pts]
        if any(float(a) != b for row, irow in zip(pts, ints) for a, b in zip(row, irow)):
            continue
        m = rf.circuits_of_points(rf.PointConfiguration(np.asarray(pts), d))
        assert circuit_set(m) == exact_circuits(ints, d)


def test_circuits_match_exact_oracle_random():
    rng = np.random.default_rng(2024)
    for n, d in ((5, 2), (6, 3)):
        draws = [sample_spanning_points(n, d, rng) for _ in range(25)]
        degenerate_rng = np.random.default_rng([2024, n, d])
        draws += [
            sample_degenerate_points(n, d, degenerate_rng, kind)
            for kind in ("pair", "triple")
            for _ in range(10)
        ]
        for pts in draws:
            cfg = rf.PointConfiguration(pts.astype(float), d)
            want = exact_circuits(pts.tolist(), d)
            assert circuit_set(rf.circuits_of_points(cfg)) == want
            geometric = rf.matroid_of_complex(rf.geometric_radon_complex(cfg))
            assert circuit_set(geometric) == want


def test_every_public_name_resolves():
    assert [name for name in rf.__all__ if not hasattr(rf, name)] == []


def test_rejects_rank_deficient_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(rf.RankDeficientError):
        rf.circuits_of_points(rf.PointConfiguration(pts, 2))


def test_point_configuration_validation():
    with pytest.raises(ValueError):
        rf.PointConfiguration(np.zeros((3, 2)), 2)  # need d + 2 points
    with pytest.raises(ValueError):
        rf.PointConfiguration(np.array([[np.inf, 0.0]] * 4), 2)
    with pytest.raises(ValueError):
        rf.GroundSet(3, 2)
    with pytest.raises(ValueError):
        rf.GroundSet(4, 0)


def test_circuit_canonicalization():
    c = rf.Circuit.make({3, 4}, {1, 2})
    assert 1 in c.pos  # smallest support element forced positive
    assert c == rf.Circuit.make({1, 2}, {3, 4})


def test_is_radon_partition_square(square_matroid):
    m = square_matroid
    assert rf.is_radon_partition(m, {1, 4}, {2, 3})
    assert rf.is_radon_partition(m, {2, 3}, {1, 4})  # orientation symmetric
    assert rf.is_radon_partition(m, {1, 4, 2}, {3})  is False
    assert rf.is_radon_partition(m, {1, 4}, {2}) is False
    with pytest.raises(ValueError):
        rf.is_radon_partition(m, {1, 2}, {2, 3})


def test_weak_map_order(square_matroid, tri_interior_config):
    m_tri = rf.circuits_of_points(tri_interior_config)
    assert rf.weak_map_leq(square_matroid, square_matroid)  # reflexive
    assert not rf.weak_map_leq(square_matroid, m_tri)
    assert not rf.weak_map_leq(m_tri, square_matroid)


def test_weak_map_degeneration_is_below():
    generic = rf.circuits_of_points(
        rf.PointConfiguration(np.asarray(TRI_INTERIOR), 2)
    )
    # interior point slid onto the edge between points 1 and 2
    collapsed = rf.circuits_of_points(
        rf.PointConfiguration(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0]]), 2)
    )
    assert circuit_set(collapsed) == {(frozenset({1, 2}), frozenset({4}))}
    assert rf.weak_map_leq(collapsed, generic)
    assert not rf.weak_map_leq(generic, collapsed)


def test_axioms_pass_for_computed_matroids(pentagon_config, hexagon_config):
    for cfg in (pentagon_config, hexagon_config):
        report = rf.check_circuit_axioms(rf.circuits_of_points(cfg))
        assert report.ok, report.summary()


def test_axioms_catch_support_nesting():
    m = rf.OrientedMatroid(
        rf.GroundSet(4, 2),
        frozenset({rf.Circuit.make({1, 2}, {3}), rf.Circuit.make({1, 2, 3}, {4})}),
    )
    report = rf.check_circuit_axioms(m)
    assert report.support_minimality and not report.ok


def test_axioms_catch_noncanonical_storage():
    m = rf.OrientedMatroid(
        rf.GroundSet(4, 2),
        frozenset({rf.Circuit(frozenset({2}), frozenset({1}))}),
    )
    report = rf.check_circuit_axioms(m)
    assert report.canonicalization


def test_axioms_catch_missing_elimination():
    m = rf.OrientedMatroid(
        rf.GroundSet(4, 2),
        frozenset({rf.Circuit.make({1, 3}, {2}), rf.Circuit.make({2, 4}, {3})}),
    )
    report = rf.check_circuit_axioms(m)
    assert report.weak_elimination


@pytest.mark.parametrize("n", [40, 70])
def test_weak_elimination_stops_at_the_cap(n):
    # the chain {i, i+2}|{i+1} has 6n - 20 elimination failures; at n = 70
    # its sign vectors span three 32-element words
    chain = frozenset(rf.Circuit.make({i, i + 2}, {i + 1}) for i in range(1, n - 1))
    m = rf.OrientedMatroid(rf.GroundSet(n, 1), chain)
    report = rf.check_circuit_axioms(m)
    assert len(report.weak_elimination) == ELIMINATION_CAP
    assert report.elimination_truncated
    assert "truncated" in report.summary()
    assert report == oracles.check_circuit_axioms(m)
    first = sorted(chain, key=rf.Circuit.sort_key)[:30]  # 172 failures
    below = rf.OrientedMatroid(rf.GroundSet(n, 1), frozenset(first))
    short = rf.check_circuit_axioms(below)
    assert not short.elimination_truncated and "truncated" not in short.summary()
    assert short == oracles.check_circuit_axioms(below)


def test_axioms_on_ground_sets_wider_than_64(pentagon_config):
    m = rf.circuits_of_points(pentagon_config)
    wide = widened(m, 70, 65)  # elements 66..70 of 70
    assert rf.check_circuit_axioms(wide).ok
    broken = rf.OrientedMatroid(wide.ground, frozenset(wide.sorted_circuits()[1:]))
    report = rf.check_circuit_axioms(broken)
    assert report.weak_elimination and not report.ok
    assert report == oracles.check_circuit_axioms(broken)


@pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 64, 65, 70])
def test_sign_rows_match_int_masks(n):
    # kernel rows from the int8 sign matrix against words cut from int masks
    rng = np.random.default_rng([5, n])
    signs = rng.integers(-1, 2, size=(9, n)).astype(np.int8)
    words = []
    for row in signs:
        pos = oracles.mask_of(np.flatnonzero(row > 0) + 1)
        neg = oracles.mask_of(np.flatnonzero(row < 0) + 1)
        words.append([
            (pos >> 32 * w & 0xFFFFFFFF) << 32 | neg >> 32 * w & 0xFFFFFFFF
            for w in range(-(-n // 32))
        ])
    rows = rf.core._pack(signs)
    assert rows.dtype == np.uint64 and rows.tolist() == words
    supports, which = rf.core._supports(rows, n)
    assert np.array_equal(supports[which], signs != 0)
    assert len(np.unique(supports, axis=0)) == len(supports)
    vectors = [
        SimpleNamespace(pos=np.flatnonzero(r > 0) + 1, neg=np.flatnonzero(r < 0) + 1)
        for r in signs
    ]
    assert np.array_equal(rf.core._signs(vectors, n), signs)


def test_matroid_serialization_roundtrip(square_matroid):
    again = rf.OrientedMatroid.from_dict(square_matroid.to_dict())
    assert again == square_matroid


def test_relabeling_permutes_circuits(square_matroid):
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    moved = oracles.relabeled(square_matroid, perm)
    assert circuit_set(moved) == {(frozenset({1, 2}), frozenset({3, 4}))}


def assert_same_scan(cfg):
    """The batched scan returns the loop scan's dict: same order, same bits."""
    got, want = rf.core.circuit_dependences(cfg), oracles.circuit_scan(cfg)
    assert list(got) == list(want)
    for c, x in want.items():
        assert np.array_equal(got[c], x)
        assert got[c].tobytes() == x.tobytes()  # signed zeros too
    return got


@pytest.mark.parametrize("n, d", [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4)])
def test_batched_scan_matches_loop_on_census_draws(n, d):
    rng = np.random.default_rng([77, n, d])
    draws = [sample_configuration(n, d, rng) for _ in range(60)]
    draws = [cfg for cfg in draws if cfg.affinely_spans()]
    assert len(draws) > 30
    for cfg in draws:
        assert_same_scan(cfg)


@pytest.mark.parametrize(
    "n, d", [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]
)
def test_batched_scan_matches_loop_on_degenerate_draws(n, d):
    rng = np.random.default_rng([78, n, d])
    for kind in ("pair", "triple"):
        for _ in range(3):
            pts = sample_degenerate_points(n, d, rng, kind)
            assert_same_scan(rf.PointConfiguration(pts.astype(float), d))


@pytest.mark.parametrize("eps", [5e-10, 8e-10, 1e-9, 2e-9, 3e-9, 5e-9])
def test_batched_scan_matches_loop_near_collinear(eps):
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, eps], [0.0, 1.0], [1.0, 2.0]]
    assert_same_scan(rf.PointConfiguration(np.asarray(pts), 2))


@pytest.mark.parametrize("block_words", [1, 40, 200])
def test_batched_scan_split_across_blocks(monkeypatch, block_words):
    rng = np.random.default_rng([79, block_words])
    configs = [
        rf.PointConfiguration(sample_degenerate_points(8, 2, rng, kind).astype(float), 2)
        for kind in ("pair", "triple")
    ]
    svd_calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(rf.core, "_BLOCK_WORDS", block_words)
    for cfg in configs:
        want = oracles.circuit_scan(cfg)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        got = rf.core.circuit_dependences(cfg)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert list(got) == list(want)
        assert all(got[c].tobytes() == x.tobytes() for c, x in want.items())
    # the 56 triples of a level no longer fit in one stacked SVD
    stacked = [shape for shape in svd_calls if len(shape) == 3]
    assert len(stacked) > 2 * 3


def test_batched_scan_on_ground_sets_wider_than_64():
    # 66 points on a line with coincident pairs inside and across the
    # 32-element words of a sign row: pairs are circuits, and no triple
    # holding one may be
    pts = np.arange(66, dtype=float)[:, None]
    for i, j in ((3, 40), (0, 65), (31, 32), (10, 11), (50, 63)):
        pts[j] = pts[i]
    got = assert_same_scan(rf.PointConfiguration(pts, 1))
    pairs = {c.support for c in got if len(c.support) == 2}
    assert pairs == {
        frozenset({4, 41}), frozenset({1, 66}), frozenset({32, 33}),
        frozenset({11, 12}), frozenset({51, 64}),
    }

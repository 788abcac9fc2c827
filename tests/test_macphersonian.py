import itertools
import json
import math

import numpy as np
import pytest

import oracles
import radonflow as rf
from radonflow.cli import main


@pytest.fixture(scope="module")
def oms42():
    return rf.enumerate_acyclic_oms(4, 2)


@pytest.fixture(scope="module")
def poset42(oms42):
    return rf.MatroidPoset.from_elements(oms42)


def test_enumeration_4_2_matches_known_census(oms42):
    assert len(oms42) == 25
    assert sum(1 for m in oms42 if m.is_uniform) == 7
    assert all(m.acyclic for m in oms42)
    assert all(rf.check_circuit_axioms(m).ok for m in oms42)


def test_enumeration_is_closed_under_relabeling(oms42):
    keys = {m.circuit_key() for m in oms42}
    swap = {1: 2, 2: 1, 3: 4, 4: 3}
    cycle = {1: 2, 2: 3, 3: 4, 4: 1}
    for m in oms42[::5]:
        assert oracles.relabeled(m, swap).circuit_key() in keys
        assert oracles.relabeled(m, cycle).circuit_key() in keys


def test_enumeration_is_deterministic(oms42):
    again = rf.enumerate_acyclic_oms(4, 2)
    assert [m.circuit_key() for m in again] == [m.circuit_key() for m in oms42]


def test_enumeration_range_errors():
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(7, 2)
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(9, 2)
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(3, 2)  # n < d + 2
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(4, 0)
    # n = 6 censuses that outgrow memory in the dense weak-map order
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(6, 2)
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(6, 3)


def test_each_census_sample_takes_one_spanning_test(monkeypatch):
    # the sampled census: circuits_of_points tests each draw for spanning once
    samples, spans = [], []
    sample, affinely_spans = oracles.sample_configuration, rf.PointConfiguration.affinely_spans
    monkeypatch.setattr(
        oracles, "sample_configuration", lambda *a: samples.append(1) or sample(*a)
    )
    monkeypatch.setattr(
        rf.PointConfiguration, "affinely_spans", lambda c: spans.append(1) or affinely_spans(c)
    )
    oracles.sampled_census(4, 2, seed=0, stable_rounds=50)
    assert len(samples) == len(spans) > 50


SAMPLED_SHAPES = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4), (5, 2)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, d", SAMPLED_SHAPES)
def test_sampled_census_lies_in_the_exact_census(n, d, seed):
    found, _ = oracles.sampled_census(n, d, seed, stable_rounds=100)
    exact = {m.circuit_key() for m in rf.enumerate_acyclic_oms(n, d)}
    assert set(found) <= exact


@pytest.mark.parametrize("n, d", SAMPLED_SHAPES)
def test_circuits_read_off_the_chirotope_match_the_points(n, d):
    subsets, _ = rf.macphersonian._chirotopes(n, d + 1)
    ground = rf.GroundSet(n, d)
    for seed in (0, 1):
        _, configs = oracles.sampled_census(n, d, seed, stable_rounds=100)
        for config in configs:
            chi = oracles.chirotope(config, subsets)
            (m,) = rf.macphersonian._acyclic_matroids(subsets, chi[None], ground)
            assert m.circuit_key() == rf.circuits_of_points(config).circuit_key()


def test_poset_4_2_structure(poset42):
    assert len(poset42) == 25
    k = len(poset42)
    assert all(poset42.leq[i, i] for i in range(k))
    uniform = [i for i, m in enumerate(poset42.elements) if m.is_uniform]
    assert poset42.maximal_indices() == uniform
    strict = poset42.leq & ~np.eye(k, dtype=bool)
    for i, j in poset42.hasse_pairs():
        assert strict[i, j]
        assert not (strict[i] & strict[:, j]).any()


def test_order_complex_4_2(poset42):
    oc = rf.order_complex(poset42)
    assert oc.counts() == [25, 72, 48]
    assert oc.euler_characteristic() == 1
    assert rf.gf2_betti(oc) == [1, 1, 1]


def test_three_chain_poset():
    g = rf.GroundSet(4, 2)
    bottom = rf.OrientedMatroid(g, frozenset({rf.Circuit.make({2}, {4})}))
    middle = rf.OrientedMatroid(g, frozenset({rf.Circuit.make({2, 3}, {4})}))
    top = rf.OrientedMatroid(g, frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    p = rf.MatroidPoset.from_elements([bottom, middle, top])
    assert p.leq[0, 1] and p.leq[1, 2] and p.leq[0, 2]
    assert not p.leq[1, 0] and not p.leq[2, 1]
    assert p.hasse_pairs() == [(0, 1), (1, 2)]
    assert p.maximal_indices() == [2]
    oc = rf.order_complex(p)
    assert oc.counts() == [3, 3, 1]
    assert oc.euler_characteristic() == 1
    assert rf.gf2_betti(oc) == [1, 0, 0]


def test_poset_rejects_non_antisymmetric_input():
    g = rf.GroundSet(4, 2)
    m = rf.OrientedMatroid(g, frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    with pytest.raises(ValueError, match="antisymmetric"):
        rf.MatroidPoset.from_elements([m, m])
    # the constructor itself checks, so an order read from a file does too
    cyclic = np.eye(3, dtype=bool) | np.roll(np.eye(3, dtype=bool), 1, axis=1)
    with pytest.raises(ValueError, match="antisymmetric"):
        rf.MatroidPoset(elements=[m] * 3, leq=cyclic | cyclic @ cyclic)


def test_gf2_rank():
    assert rf.gf2_rank(np.eye(3, dtype=int)) == 3
    assert rf.gf2_rank(np.array([[1, 1], [1, 1]])) == 1
    assert rf.gf2_rank(np.array([[1, 1], [1, 0]])) == 2
    assert rf.gf2_rank(np.zeros((2, 3), dtype=int)) == 0
    # over GF(2) the all-ones 3x3 has rank 1, not 2 as over the rationals
    assert rf.gf2_rank(np.ones((3, 3), dtype=int)) == 1


def test_gf2_betti_on_known_spaces():
    circle = rf.SimplicialComplex.from_maximal_faces([(1, 2), (1, 3), (2, 3)])
    assert rf.gf2_betti(circle) == [1, 1]

    sphere = rf.SimplicialComplex.from_maximal_faces(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )
    assert rf.gf2_betti(sphere) == [1, 0, 1]

    disk = rf.SimplicialComplex.from_maximal_faces([(1, 2, 3)])
    assert rf.gf2_betti(disk) == [1, 0, 0]

    two_points = rf.SimplicialComplex.from_maximal_faces([(1,), (2,)])
    assert rf.gf2_betti(two_points) == [2]

    # 6-vertex closed surface with euler characteristic 1
    projective_plane = rf.SimplicialComplex.from_maximal_faces(
        [
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
        ]
    )
    assert projective_plane.counts() == [6, 15, 10]
    assert projective_plane.euler_characteristic() == 1
    assert rf.gf2_betti(projective_plane) == [1, 1, 1]


def test_order_complex_betti_matches_cell_betti(poset42):
    # the chain complex of the 25-element poset carries the same GF(2)
    # homology as the 7-facet cell structure it subdivides
    oc = rf.order_complex(poset42)
    assert rf.gf2_betti(oc) == [1, 1, 1]
    assert oc.euler_characteristic() == rf.cell_structure_m42(poset42.elements).euler_characteristic


def test_cell_structure_m42(oms42):
    report = rf.cell_structure_m42(oms42)
    assert report.face_vector == (6, 12, 7)
    assert report.euler_characteristic == 1
    assert report.square_facets == 3
    assert report.triangle_facets == 4
    assert report.matroid_facet_bijection
    assert report.ok
    d = report.to_dict()
    assert d["face_vector"] == [6, 12, 7] and d["ok"] is True


def test_simplicial_complex_basics():
    c = rf.SimplicialComplex.from_maximal_faces([(3, 1, 2), (2, 3)])
    assert c.dim == 2
    assert c.counts() == [3, 3, 1]
    assert c.simplices[0] == [(1,), (2,), (3,)]
    empty = rf.SimplicialComplex.from_maximal_faces([])
    assert empty.counts() == []
    assert rf.gf2_betti(empty) == []


def _assert_poset_matches_pairwise_loop(elements):
    p = rf.MatroidPoset.from_elements(elements)
    leq = oracles.weak_map_matrix(elements)
    assert np.array_equal(p.leq, leq)
    assert p.hasse_pairs() == oracles.hasse_pairs(leq)
    assert p.maximal_indices() == oracles.maximal_indices(leq)
    return p


@pytest.mark.parametrize("n, d", [(4, 1), (4, 2), (5, 3)])
def test_weak_map_matrix_matches_pairwise_loop(n, d):
    _assert_poset_matches_pairwise_loop(rf.enumerate_acyclic_oms(n, d))


def _random_circuit(rng, n):
    support = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, 5)), replace=False)
    split = int(rng.integers(0, len(support) + 1))
    # the raw constructor keeps non-canonical orientations
    return rf.Circuit(frozenset(support[:split].tolist()), frozenset(support[split:].tolist()))


def test_weak_map_matrix_matches_pairwise_loop_on_non_realizable_sets():
    # circuit sets that no point configuration has: mixed support sizes,
    # one-sided and non-canonical circuits, circuits stored with their
    # reversal; an element joins only while the loop order stays antisymmetric
    g = rf.GroundSet(5, 2)
    rng = np.random.default_rng(515)
    elements = [
        rf.OrientedMatroid(g, frozenset({rf.Circuit({1, 2}, {3}), rf.Circuit({3}, {1, 2})})),
        rf.OrientedMatroid(g, frozenset({rf.Circuit({1}, {2, 3, 4}), rf.Circuit({5}, set())})),
        rf.OrientedMatroid(g, frozenset()),
    ]
    while len(elements) < 40:
        m = rf.OrientedMatroid(
            g, frozenset(_random_circuit(rng, 5) for _ in range(int(rng.integers(1, 6))))
        )
        leq = oracles.weak_map_matrix(elements + [m])
        if not np.triu(leq & leq.T, 1).any():
            elements.append(m)
    assert sum(not rf.check_circuit_axioms(m).ok for m in elements) > 20
    p = _assert_poset_matches_pairwise_loop(elements)
    assert 0 < len(p.hasse_pairs()) < 40 * 39 // 2
    with pytest.raises(ValueError, match="antisymmetric"):
        rf.MatroidPoset.from_elements(elements + [elements[5]])


def test_poset_rejects_mixed_ground_sets():
    a = rf.OrientedMatroid(rf.GroundSet(4, 2), frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    b = rf.OrientedMatroid(rf.GroundSet(5, 2), frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    with pytest.raises(ValueError, match="same ground set"):
        rf.MatroidPoset.from_elements([a, b])


def _flag_complex(rng, k, p):
    """The clique complex of a random graph on k vertices."""
    edges = {(i, j) for i, j in itertools.combinations(range(k), 2) if rng.random() < p}
    faces = [(v,) for v in range(k)]
    for size in range(2, 6):
        faces += [
            s for s in itertools.combinations(range(k), size)
            if all(e in edges for e in itertools.combinations(s, 2))
        ]
    return rf.SimplicialComplex.from_maximal_faces(faces)


def test_gf2_betti_matches_dense_elimination_on_flag_complexes():
    rng = np.random.default_rng(2718)
    for k, p in [(8, 0.3), (10, 0.5), (12, 0.5), (12, 0.7), (14, 0.6), (9, 1.0)]:
        c = _flag_complex(rng, k, p)
        assert rf.gf2_betti(c) == oracles.gf2_betti_dense(c)
        assert sum((-1) ** i * b for i, b in enumerate(rf.gf2_betti(c))) == c.euler_characteristic()


def test_gf2_betti_of_the_torus():
    # the 7-vertex (Moebius-Csaszar) torus
    torus = rf.SimplicialComplex.from_maximal_faces(
        [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    )
    assert torus.counts() == [7, 21, 14]
    assert rf.gf2_betti(torus) == oracles.gf2_betti_dense(torus) == [1, 2, 1]


def test_gf2_rank_matches_dense_elimination():
    rng = np.random.default_rng(31)
    for rows, cols, p in [(1, 1, 0.5), (5, 9, 0.5), (40, 30, 0.2), (70, 90, 0.5), (0, 3, 0.5)]:
        for _ in range(5):
            mat = (rng.random((rows, cols)) < p).astype(int)
            assert rf.gf2_rank(mat) == oracles.gf2_rank_dense(mat)
            assert rf.gf2_rank(mat.T) == rf.gf2_rank(mat)


def test_cell_structure_m42_reuses_given_elements(oms42):
    assert rf.cell_structure_m42(oms42).ok
    # the report reads the uniform matroids it is given
    assert not rf.cell_structure_m42(oms42[:-1]).matroid_facet_bijection


def _fubini(n):
    """The ordered Bell number: weak orders (rankings with ties) of n labels."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def _census(n, d):
    """Element count and GF(2) Betti numbers of the (n, d) census."""
    elements = rf.enumerate_acyclic_oms(n, d)
    poset = rf.MatroidPoset.from_elements(elements)
    return len(elements), rf.gf2_betti(rf.order_complex(poset))


def test_census_4_1_counts_weak_orders_up_to_reversal():
    # rank 2: the points' order on the line, ties allowed, at least two
    # blocks, up to reversal
    assert _census(4, 1) == ((_fubini(4) - 1) // 2, [1, 1, 1])


def test_census_5_3_counts_sign_vectors_up_to_negation():
    # corank 1: the one circuit up to sign, both signs present
    assert _census(5, 3) == ((3**5 - 2**6 + 1) // 2, [1, 1, 1, 1])


def test_census_5_1_counts_weak_orders_up_to_reversal():
    assert _census(5, 1) == ((_fubini(5) - 1) // 2, [1, 1, 1, 1])


def test_census_6_1_counts_weak_orders_up_to_reversal():
    # the count alone: the homology of its 273 241 chains takes seconds
    assert len(rf.enumerate_acyclic_oms(6, 1)) == (_fubini(6) - 1) // 2 == 2341


@pytest.mark.parametrize(
    "n, d, betti", [(4, 2, [1, 1, 1]), (6, 4, [1, 1, 1, 1, 1])], ids=["4-2", "6-4"]
)
def test_corank_one_census_counts_sign_vectors_up_to_negation(n, d, betti):
    assert _census(n, d) == ((3**n - 2 ** (n + 1) + 1) // 2, betti)


def test_basis_exchange():
    def bases(*sets):
        return [frozenset(b) for b in sets]

    assert rf.macphersonian._is_matroid(bases(*itertools.combinations(range(5), 3)))
    assert rf.macphersonian._is_matroid(bases((0, 1), (0, 2), (1, 3), (2, 3)))
    # {0,1,2} loses 0 and no element of {3,4,5} takes its place
    assert not rf.macphersonian._is_matroid(bases((0, 1, 2), (3, 4, 5)))
    assert not rf.macphersonian._is_matroid(bases((0, 1), (2, 3), (0, 2)))


def test_chirotopes_keep_only_matroid_supports():
    # rank 3 on 6 elements is the smallest case where sign maps that pass
    # every 3-term Grassmann-Pluecker relation can break basis exchange
    subsets, chi = rf.macphersonian._chirotopes(6, 3)
    for support in np.unique(chi != 0, axis=0):
        bases = [frozenset(subsets[i]) for i in np.flatnonzero(support)]
        assert rf.macphersonian._is_matroid(bases)


def test_census_5_2_completes(tmp_path):
    assert main(["macphersonian", "5", "2", "--out", str(tmp_path)]) == 0
    oc = json.loads((tmp_path / "order_complex.json").read_text())
    counts, betti = oc["simplex_counts"], oc["betti_gf2"]
    assert json.loads((tmp_path / "poset.json").read_text())["count"] == counts[0] == 842
    assert betti == [1, 1, 2, 1, 1]
    chi = sum((-1) ** k * c for k, c in enumerate(counts))
    assert chi == sum((-1) ** k * b for k, b in enumerate(betti)) == oc["euler_characteristic"]

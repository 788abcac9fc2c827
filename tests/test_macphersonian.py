import itertools
import json
import math

import numpy as np
import pytest

import oracles
import radonflow as rf
from conftest import ascending_pairs
from radonflow.cli import _json_text, main
from radonflow.core import _plain


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


@pytest.mark.parametrize("n, d", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 4)])
def test_census_table_matches_the_two_step_reference(n, d):
    # the census once sorted the reader's output itself (_census_table)
    subsets, chi = rf.macphersonian._chirotopes(n, d + 1, itertools.combinations(range(n), d + 2))
    ground = rf.GroundSet(n, d)
    got = rf.macphersonian._acyclic_matroids(subsets, chi, ground)
    want = oracles.census_table(ground, *oracles.distinct_circuits(*oracles.gather_circuits(chi, n, d + 1), n))
    for a, b in ((got.signs, want.signs), (got.elements.offsets, want.elements.offsets),
                 (got.elements.values, want.elements.values)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_enumeration_is_closed_under_relabeling(oms42):
    keys = {m.circuits for m in oms42}
    swap = {1: 2, 2: 1, 3: 4, 4: 3}
    cycle = {1: 2, 2: 3, 3: 4, 4: 1}
    for m in oms42[::5]:
        assert oracles.relabeled(m, swap).circuits in keys
        assert oracles.relabeled(m, cycle).circuits in keys


def test_enumeration_is_deterministic(oms42):
    again = rf.enumerate_acyclic_oms(4, 2)
    assert [m.circuits for m in again] == [m.circuits for m in oms42]


def test_enumeration_range_errors():
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(7, 2)
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(9, 2)
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(3, 2)  # n < d + 2
    with pytest.raises(rf.UnsupportedRangeError):
        rf.enumerate_acyclic_oms(4, 0)
    for d in range(1, 6):  # n = 7 at every d
        with pytest.raises(rf.UnsupportedRangeError, match="n <= 6"):
            rf.enumerate_acyclic_oms(7, d)


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
    exact = {m.circuits for m in rf.enumerate_acyclic_oms(n, d)}
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
            assert m.circuits == frozenset(oracles.circuit_scan(config))


def test_poset_4_2_structure(poset42):
    assert len(poset42) == 25
    k = len(poset42)
    assert (poset42.pairs[:, 0] != poset42.pairs[:, 1]).all()
    uniform = [i for i, m in enumerate(poset42.elements) if m.is_uniform]
    hasse = poset42.hasse_pairs()
    assert poset42.payload(hasse)["maximal"] == uniform
    strict = oracles.leq_of(poset42) & ~np.eye(k, dtype=bool)
    for i, j in hasse:
        assert strict[i, j]
        assert not (strict[i] & strict[:, j]).any()


def test_order_complex_4_2(poset42):
    oc = rf.order_complex(poset42)
    assert oc.counts() == [25, 72, 48]
    assert oc.euler_characteristic() == 1
    assert rf.gf2_betti(oc) == [1, 1, 1]


def test_three_chain_poset():
    g = rf.GroundSet(4, 2)
    bottom = rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({2}, {4})}))
    middle = rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({2, 3}, {4})}))
    top = rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    p = rf.MatroidPoset.from_elements([bottom, middle, top])
    assert p.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert p.hasse_pairs().tolist() == [[0, 1], [1, 2]]
    assert p.payload(p.hasse_pairs())["maximal"] == [2]
    oc = rf.order_complex(p)
    assert oc.counts() == [3, 3, 1]
    assert oc.euler_characteristic() == 1
    assert rf.gf2_betti(oc) == [1, 0, 0]


def test_poset_rejects_non_antisymmetric_input():
    g = rf.GroundSet(4, 2)
    m = rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    with pytest.raises(ValueError, match="antisymmetric"):
        rf.MatroidPoset.from_elements([m, m])
    # the constructor itself checks, so an order read from a file does too
    every = np.array([[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]])
    with pytest.raises(ValueError, match="antisymmetric"):
        rf.MatroidPoset(elements=[m] * 3, pairs=every)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[0, 2], [0, 1]], "ascending row-major order"),
        ([[0, 1], [0, 1], [1, 2]], "each pair once"),
        ([[0, 1], [0, 3]], "name elements"),
        ([[-1, 1]], "name elements"),
        ([[0, 1], [1, 1]], "strict"),
    ],
    ids=["unsorted", "duplicate", "past-the-end", "negative", "diagonal"],
)
def test_poset_rejects_malformed_pairs(pairs, message):
    m = rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), frozenset())
    with pytest.raises(ValueError, match=message):
        rf.MatroidPoset(elements=[m] * 3, pairs=np.array(pairs))


def test_covers_refuse_a_relation_that_is_not_transitive():
    # 0 < 1 < 2 < 3 with (0, 2) missing: the join of (0, 1) with (1, 2) ends
    # on no pair; the constructor checks only the listing
    m = rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), frozenset())
    p = rf.MatroidPoset(elements=[m] * 4, pairs=np.array([[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]))
    with pytest.raises(ValueError, match=r"not transitive: 0 < 1 < 2, but not 0 < 2"):
        p.hasse_pairs()


def test_gf2_rank():
    assert oracles.gf2_rank(np.eye(3, dtype=int)) == 3
    assert oracles.gf2_rank(np.array([[1, 1], [1, 1]])) == 1
    assert oracles.gf2_rank(np.array([[1, 1], [1, 0]])) == 2
    assert oracles.gf2_rank(np.zeros((2, 3), dtype=int)) == 0
    # over GF(2) the all-ones 3x3 has rank 1, not 2 as over the rationals
    assert oracles.gf2_rank(np.ones((3, 3), dtype=int)) == 1


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
    assert oc.euler_characteristic() == _m42(poset42).euler_characteristic


def _m42(poset):
    hasse = poset.hasse_pairs()
    return rf.cell_structure_m42(poset, rf.grades(poset, hasse), hasse)


def test_cell_structure_m42(poset42):
    report = _m42(poset42)
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
    assert [rows.tolist() for rows in c.simplices] == [
        [[1], [2], [3]],
        [[1, 2], [1, 3], [2, 3]],
        [[1, 2, 3]],
    ]
    assert all(rows.dtype.kind == "i" for rows in c.simplices)
    empty = rf.SimplicialComplex.from_maximal_faces([])
    assert empty.counts() == []
    assert rf.gf2_betti(empty) == []


def _assert_poset_matches_pairwise_loop(elements):
    p = rf.MatroidPoset.from_elements(elements)
    leq = oracles.weak_map_matrix(elements)
    assert np.array_equal(oracles.leq_of(p), leq)
    hasse = p.hasse_pairs()
    assert hasse.tolist() == oracles.hasse_pairs(leq)
    assert p.payload(hasse)["maximal"] == oracles.maximal_indices(leq)
    assert oracles.element_circuits(_plain(p.payload(hasse))) == [m.to_dict()["circuits"] for m in elements]
    return p


@pytest.mark.parametrize("n, d", [(4, 1), (4, 2), (5, 3)])
def test_weak_map_matrix_matches_pairwise_loop(n, d):
    _assert_poset_matches_pairwise_loop(rf.enumerate_acyclic_oms(n, d))


def test_weak_map_matrix_with_a_circuit_free_element_and_a_single_element():
    # an element with no circuit lies above every other, and a one-element
    # list gets its 1 x 1 order whether or not its element has circuits
    oms = rf.enumerate_acyclic_oms(4, 2)
    free = rf.OrientedMatroid.from_circuits(oms[0].ground, frozenset())
    p = _assert_poset_matches_pairwise_loop(oms[:6] + [free] + oms[6:12])
    assert p.payload(p.hasse_pairs())["maximal"] == [6]
    for elements in ([free], [oms[3]]):
        assert _assert_poset_matches_pairwise_loop(elements).pairs.shape == (0, 2)


def test_one_element_poset_and_antichain_have_no_covers(poset42):
    # the uniform elements are the maximal ones, so they form an antichain
    uniform = [m for m in poset42.elements if m.is_uniform]
    assert len(uniform) > 1
    for elements in (uniform[:1], uniform):
        p = rf.MatroidPoset.from_elements(elements)
        hasse = p.hasse_pairs()
        assert hasse.shape == (0, 2) and hasse.dtype == np.intp
        assert p.payload(hasse)["hasse"].shape == (0, 2) and p.payload(hasse)["maximal"] == list(range(len(p)))
        assert rf.grades(p, hasse).tolist() == [0] * len(p)
        assert rf.cellular_homology(p, hasse)[1] == [len(p)]


def test_axiom_check_matches_the_loop_on_the_52_census_less_one_circuit():
    # every (5,2) element with its first circuit dropped: weak elimination
    # then fails wherever that circuit was the only witness
    reports = []
    for m in rf.enumerate_acyclic_oms(5, 2):
        less = rf.OrientedMatroid.from_circuits(m.ground, frozenset(m.sorted_circuits[1:]))
        reports.append(rf.check_circuit_axioms(less))
        assert reports[-1] == oracles.check_circuit_axioms(less)
    assert sum(not r.ok for r in reports) == 797  # of the 842


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
        rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit({1, 2}, {3}), rf.Circuit({3}, {1, 2})})),
        rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit({1}, {2, 3, 4}), rf.Circuit({5}, set())})),
        rf.OrientedMatroid.from_circuits(g, frozenset()),
    ]
    while len(elements) < 40:
        m = rf.OrientedMatroid.from_circuits(
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
    a = rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
    b = rf.OrientedMatroid.from_circuits(rf.GroundSet(5, 2), frozenset({rf.Circuit.make({1, 4}, {2, 3})}))
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


# the 7-vertex (Moebius-Csaszar) torus
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]


def test_gf2_betti_with_rows_in_any_vertex_order():
    # a chain lists its elements in the poset's order, which need not be
    # the order of their indices: the same flag complexes with each row's
    # vertices in a scrambled but consistent order
    rng = np.random.default_rng(3)
    for k, p in [(10, 0.45), (9, 0.6), (11, 0.5), (8, 0.8)]:
        c = _flag_complex(rng, k, p)
        place = rng.permutation(k)
        scrambled = rf.SimplicialComplex(
            simplices=[
                np.array(sorted(sorted(row, key=place.__getitem__) for row in rows.tolist()))
                for rows in c.simplices
            ]
        )
        assert rf.gf2_betti(scrambled) == oracles.gf2_betti_dense(c)
        _assert_boundary_faces_match_the_prefix_codes(scrambled)


def _assert_boundary_faces_match_the_prefix_codes(c):
    # the reference lists the face without entry k - j in column j
    got, want = rf.macphersonian._boundary_faces(c), oracles.boundary_faces(c)
    assert len(got) == len(want) == len(c.simplices) - 1
    assert all(np.array_equal(a, b[:, ::-1]) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "faces",
    [
        [[-3, 5, -7], [5, 2**40], [-7, -3]],  # negative labels, one beyond 32 bits, a face inside another
        [[2**33, 1, 2**33, -1], [0], [1, 0, -1]],  # a label twice in one face
        [[10**9 - 7919 * i for i in range(6) if i != skip] for skip in range(6)] + [[-(2**62), 2**62]],
        [[(i * 7) % 11 - 5 for i in range(k, k + 4)] for k in range(11)],
        [[i, i + 1, i + 2] for i in range(0, 600, 2)] + [[0, 299, 3 * 2**31]],  # ranks of two bytes
        [],
    ],
)
def test_closure_and_boundary_faces_match_the_references(faces):
    c, want = rf.SimplicialComplex.from_maximal_faces(faces), oracles.maximal_faces_closure(faces)
    assert [(rows.dtype, rows.tolist()) for rows in c.simplices] == [(rows.dtype, rows.tolist()) for rows in want.simplices]
    if faces:
        _assert_boundary_faces_match_the_prefix_codes(c)
        assert rf.gf2_betti(c) == oracles.gf2_betti_dense(c)


def test_gf2_betti_of_the_torus():
    torus = rf.SimplicialComplex.from_maximal_faces(TORUS)
    assert torus.counts() == [7, 21, 14]
    assert rf.gf2_betti(torus) == oracles.gf2_betti_dense(torus) == [1, 2, 1]
    # relabeled into large labels in scrambled order
    labels = np.random.default_rng(7).choice(10**9, size=7, replace=False).tolist()
    torus = rf.SimplicialComplex.from_maximal_faces([[labels[v] for v in f] for f in TORUS])
    assert rf.gf2_betti(torus) == oracles.gf2_betti_dense(torus) == [1, 2, 1]


def test_gf2_rank_matches_dense_elimination():
    rng = np.random.default_rng(31)
    for rows, cols, p in [(1, 1, 0.5), (5, 9, 0.5), (40, 30, 0.2), (70, 90, 0.5), (0, 3, 0.5)]:
        for _ in range(5):
            mat = (rng.random((rows, cols)) < p).astype(int)
            assert oracles.gf2_rank(mat) == oracles.gf2_rank_dense(mat)
            assert oracles.gf2_rank(mat.T) == oracles.gf2_rank(mat)


def test_cell_structure_m42_reuses_given_elements(oms42, poset42):
    assert _m42(poset42).ok
    # the report reads the uniform matroids of the poset it is given
    assert oms42[-1].is_uniform
    fewer = rf.MatroidPoset.from_elements(oms42[:-1])
    assert not _m42(fewer).matroid_facet_bijection


def test_cell_structure_m42_reads_the_order(poset42):
    # drop one cover below a top cell from the order; it stays transitive,
    # since nothing lies strictly between a cover's ends
    hasse = poset42.hasse_pairs()
    top = set(poset42.payload(hasse)["maximal"])
    i, j = next((i, j) for i, j in hasse if j in top)
    leq = oracles.leq_of(poset42)
    leq[i, j] = False
    as_int = leq.astype(np.int64)
    assert ((as_int @ as_int > 0) == leq).all()
    report = _m42(_bare_poset(leq, poset42.elements))
    assert (report.square_facets, report.triangle_facets) != (3, 4)
    assert report.to_dict()["ok"] is False


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
    assert _census(6, 1) == ((_fubini(6) - 1) // 2, [1, 1, 1, 1, 1]) == (2341, [1, 1, 1, 1, 1])


@pytest.mark.parametrize(
    "n, d, betti", [(4, 2, [1, 1, 1]), (6, 4, [1, 1, 1, 1, 1])], ids=["4-2", "6-4"]
)
def test_corank_one_census_counts_sign_vectors_up_to_negation(n, d, betti):
    assert _census(n, d) == ((3**n - 2 ** (n + 1) + 1) // 2, betti)


def _exchange(subsets, supports):
    """The kernel's and the loop's basis exchange on each row of supports."""
    kernel = rf.macphersonian._matroid_supports(subsets, supports).tolist()
    loop = [oracles.is_matroid([frozenset(b) for b in subsets[s].tolist()]) for s in supports]
    return kernel, loop


def test_basis_exchange():
    def exchange(n, r, *bases):
        subsets = rf.core._colex(n, r)
        support = [tuple(b) in bases for b in subsets.tolist()]
        (kernel,), (loop,) = _exchange(subsets, np.array([support]))
        assert kernel == loop
        return kernel

    assert exchange(5, 3, *itertools.combinations(range(5), 3))
    assert exchange(4, 2, (0, 1), (0, 2), (1, 3), (2, 3))
    # {0,1,2} loses 0 and no element of {3,4,5} takes its place
    assert not exchange(6, 3, (0, 1, 2), (3, 4, 5))
    assert not exchange(4, 2, (0, 1), (2, 3), (0, 2))


def test_kernel_exchange_matches_the_loop_on_random_supports():
    # sets of r-subsets of every density, matroids and not; the supports the
    # census drops are all pairs of complements, {B, E - B}, which cannot
    # tell the offers B1 - x + y with y in B2 from those with any y outside B1
    rng = np.random.default_rng(5)
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]:
        subsets = rf.core._colex(n, r)
        supports = rng.random((300, len(subsets))) < rng.uniform(0.1, 0.9, (300, 1))
        kernel, loop = _exchange(subsets, supports)
        assert kernel == loop
        assert 0 < sum(loop) < len(loop)


def test_chirotopes_keep_only_matroid_supports():
    # rank 3 on 6 elements is the smallest case where sign maps that pass
    # every 3-term Grassmann-Pluecker relation can break basis exchange
    subsets, chi = rf.macphersonian._chirotopes(6, 3)
    for support in np.unique(chi != 0, axis=0):
        assert oracles.is_matroid([frozenset(b) for b in subsets[support].tolist()])


# (n, r) -> the rows that pass every 3-term relation but break basis exchange
EXCHANGE_DROPS = {
    (3, 2): 0, (4, 2): 0, (4, 3): 0, (5, 2): 0, (5, 3): 0,
    (5, 4): 0, (6, 2): 0, (6, 3): 20, (6, 4): 0, (6, 5): 0,
}


@pytest.mark.parametrize("n, r", sorted(EXCHANGE_DROPS))
def test_kernel_exchange_matches_the_loop_on_every_relation_passing_support(n, r, monkeypatch):
    subsets, chi = rf.macphersonian._chirotopes(n, r)
    # with every support let through, _chirotopes keeps what the relations pass
    monkeypatch.setattr(rf.macphersonian, "_matroid_supports", lambda _, s: np.ones(len(s), bool))
    _, passing = rf.macphersonian._chirotopes(n, r)
    monkeypatch.undo()
    supports = np.unique(passing != 0, axis=0)
    kernel, loop = _exchange(subsets, supports)
    assert kernel == loop
    ok = dict(zip(map(tuple, supports.tolist()), loop))
    assert chi.tolist() == [row for row in passing.tolist() if ok[tuple(v != 0 for v in row)]]
    assert len(passing) - len(chi) == EXCHANGE_DROPS[n, r]
    if (n, r) == (6, 3):
        # the broken supports are the 10 pairs {B, E - B}, two rows each: + on
        # the first basis and either sign on the second
        bases = list(map(frozenset, subsets.tolist()))
        broken = {frozenset(b for b, on in zip(bases, s) if on) for s, k in zip(supports, kernel) if not k}
        assert broken == {frozenset({b, frozenset(range(6)) - b}) for b in bases}
        assert len(broken) == 10


@pytest.mark.parametrize("n, d", [(n, d) for n in range(3, 7) for d in range(1, n - 1)])
def test_frontier_prune_keeps_the_acyclic_chirotopes(n, d):
    # the frontier drops a sign map as soon as one of its circuits is signed
    # and positive; at every supported shape that leaves the table of every
    # chirotope with the cyclic rows dropped at the end
    census, reference = rf.enumerate_acyclic_oms(n, d), oracles.acyclic_census(n, d)
    assert np.array_equal(census.signs, reference.signs)
    assert np.array_equal(census.elements.offsets, reference.elements.offsets)
    assert np.array_equal(census.elements.values, reference.elements.values)


@pytest.mark.parametrize("d, count", [(1, 23646), (5, 966)])
def test_frontier_prune_counts_seven_points(d, count, monkeypatch):
    # (Fubini(7) - 1)/2 and (3^7 - 2^8 + 1)/2, past the range the census
    # accepts, which stays n <= 6
    monkeypatch.setattr(rf.macphersonian, "MAX_ENUMERATION_N", 7)
    assert len(rf.enumerate_acyclic_oms(7, d)) == count


def test_census_5_2_completes(tmp_path):
    assert main(["macphersonian", "5", "2", "--out", str(tmp_path)]) == 0
    oc = json.loads((tmp_path / "order_complex.json").read_text())
    counts, betti = oc["simplex_counts"], oc["betti_gf2"]
    assert json.loads((tmp_path / "poset.json").read_text())["count"] == counts[0] == 842
    assert betti == [1, 1, 2, 1, 1]
    chi = sum((-1) ** k * c for k, c in enumerate(counts))
    assert chi == sum((-1) ** k * b for k, b in enumerate(betti)) == oc["euler_characteristic"]


def _bare_poset(leq, elements=None):
    """A poset with the reflexive order leq, by default on elements that
    order_complex and the covers never read."""
    if elements is None:
        elements = [rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), frozenset())] * len(leq)
    return rf.MatroidPoset(elements=elements, pairs=np.argwhere(leq & ~np.eye(len(leq), dtype=bool)))


def _random_poset(rng, k, p):
    """The transitive closure of a random DAG on k elements, relabeled so
    that the order does not follow the element indices."""
    perm = rng.permutation(k)
    leq = np.eye(k, dtype=bool) | np.triu(rng.random((k, k)) < p, 1)[np.ix_(perm, perm)]
    return _bare_poset(_closed(leq))


def _closed(leq):
    """The transitive closure of a reflexive relation."""
    while True:
        closed = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if (closed == leq).all():
            return leq
        leq = closed


def _face_poset(facets):
    """The nonempty faces of a simplicial complex ordered by inclusion; its
    order complex is the barycentric subdivision."""
    faces = {
        frozenset(s)
        for f in facets
        for size in range(1, len(f) + 1)
        for s in itertools.combinations(f, size)
    }
    faces = sorted(faces, key=lambda s: (len(s), sorted(s)))
    return _bare_poset(np.array([[a <= b for b in faces] for a in faces], dtype=bool))


def _oracle_posets():
    rng = np.random.default_rng(1013)
    g = rf.GroundSet(4, 2)
    three_chain = rf.MatroidPoset.from_elements(
        [
            rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({2}, {4})})),
            rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({2, 3}, {4})})),
            rf.OrientedMatroid.from_circuits(g, frozenset({rf.Circuit.make({1, 4}, {2, 3})})),
        ]
    )
    return {
        "three-chain": three_chain,
        "torus-faces": _face_poset(TORUS),
        **{
            f"dag-{k}-{p}": _random_poset(rng, k, p)
            for k, p in [(1, 0.5), (7, 0.4), (12, 0.2), (18, 0.15), (24, 0.06), (30, 0.05)]
        },
    }


ORACLE_POSETS = _oracle_posets()
CENSUS_SHAPES = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4)]


@pytest.fixture(scope="module", params=CENSUS_SHAPES, ids=lambda s: "%d-%d" % s)
def census_poset(request):
    return rf.MatroidPoset.from_elements(rf.enumerate_acyclic_oms(*request.param))


def _assert_order_complex_matches_recursion(poset):
    oc = rf.order_complex(poset)
    reference = oracles.order_complex(poset)
    assert [rows.tolist() for rows in oc.simplices] == [
        [list(chain) for chain in lst] for lst in reference
    ]
    assert oc.counts() == [len(lst) for lst in reference]
    return oc


def _grades(poset):
    """Each element's grade: the length of the longest chain below it."""
    grade = np.zeros(len(poset), np.int64)
    for g, chains in enumerate(rf.order_complex(poset).simplices):
        grade[chains[:, -1]] = g
    return grade


# f by grade and the number of distinct sets of circuit supports
GRADED = {(4, 2): ([6, 12, 7], 11), (6, 4): ([15, 60, 105, 90, 31], 57)}


def test_census_covers_span_one_grade_and_grades_follow_the_supports(census_poset):
    grade = _grades(census_poset)
    hasse, k = census_poset.hasse_pairs(), len(census_poset)
    assert all(grade[j] - grade[i] == 1 for i, j in hasse)
    assert ascending_pairs(hasse, k) and np.isin(hasse @ [k, 1], census_poset.pairs @ [k, 1]).all()
    by_supports = {}
    for m, g in zip(census_poset.elements, grade.tolist()):
        assert by_supports.setdefault(frozenset(c.support for c in m.circuits), g) == g
    ground = census_poset.elements[0].ground
    if (ground.n, ground.d) in GRADED:
        assert (np.bincount(grade).tolist(), len(by_supports)) == GRADED[ground.n, ground.d]


def test_census_order_complex_and_betti_match_the_references(census_poset):
    oc = _assert_order_complex_matches_recursion(census_poset)
    assert rf.gf2_betti(oc) == oracles.gf2_betti_sparse(oc)
    if max(oc.counts()) < 10_000:  # dense matrices at (6,4) would take 174 MB
        assert rf.gf2_betti(oc) == oracles.gf2_betti_dense(oc)


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_order_complex_and_betti_match_the_references_on_small_posets(name):
    # the covers too: the random DAG posets are not graded
    p = ORACLE_POSETS[name]
    assert p.hasse_pairs().tolist() == oracles.hasse_pairs(oracles.leq_of(p))
    oc = _assert_order_complex_matches_recursion(p)
    assert rf.gf2_betti(oc) == oracles.gf2_betti_dense(oc) == oracles.gf2_betti_sparse(oc)
    if name == "torus-faces":  # the barycentric subdivision keeps the torus's homology
        assert oc.counts() == [42, 126, 84]
        assert rf.gf2_betti(oc) == [1, 2, 1]


def test_csr_equals_the_lexsorted_csr_on_sorted_and_unsorted_pairs():
    # row-major pairs (i, j), read with upper = i and lower = j, already come
    # in the sort's order; the other pairs must be sorted
    rng = np.random.default_rng(22)
    pairs = np.column_stack(np.divmod(np.unique(rng.integers(0, 900, 400)), 30))
    covers = rf.MatroidPoset.from_elements(rf.enumerate_acyclic_oms(5, 2)).hasse_pairs()
    shuffled = pairs[rng.permutation(len(pairs))]
    cases = [(p[:, 1], p[:, 0]) for p in (pairs, covers, pairs[:0], shuffled)] + [
        (p[:, 0], p[:, 1]) for p in (pairs, covers)
    ]
    for lower, upper in cases:
        got = rf.core.Ragged.grouped(lower, upper, 842)
        assert all(np.array_equal(a, b) for a, b in zip((got.offsets, got.values), oracles.csr(lower, upper, 842)))


# labels near 10**9: packing a 10-vertex row into one int64 by label would
# need 10**90; the boundary of an 11-vertex simplex (a 9-sphere) plus a
# hollow triangle
BIG = [10**9 - 7919 * i for i in range(14)]
BIG_FACETS = [
    [v for v in BIG[:11] if v != skip] for skip in BIG[:11]
] + [[BIG[11], BIG[12]], [BIG[12], BIG[13]], [BIG[11], BIG[13]]]


def test_gf2_betti_with_large_labels_and_a_ten_vertex_facet():
    c = rf.SimplicialComplex.from_maximal_faces(BIG_FACETS)
    assert c.counts() == [14, 58, 165, 330, 462, 462, 330, 165, 55, 11]
    assert c.simplices[0][:, 0].tolist() == sorted(BIG)
    assert rf.gf2_betti(c) == oracles.gf2_betti_dense(c) == [2, 1, 0, 0, 0, 0, 0, 0, 0, 1]


def test_homology_command_with_large_labels(tmp_path):
    config = tmp_path / "facets.json"
    config.write_text(json.dumps({"facets": BIG_FACETS}))
    assert main(["homology", "--config", str(config), "--out", str(tmp_path)]) == 0
    betti = json.loads((tmp_path / "betti.json").read_text())
    assert betti["betti_gf2"] == [2, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    assert betti["simplex_counts"] == [14, 58, 165, 330, 462, 462, 330, 165, 55, 11]


# every shape the census supports, (5,2) and (6,1) included
ALL_CENSUS_SHAPES = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 4)]


@pytest.mark.parametrize("n, d", ALL_CENSUS_SHAPES)
def test_cellular_homology_matches_the_order_complex_at_every_census_shape(n, d):
    p = rf.MatroidPoset.from_elements(rf.enumerate_acyclic_oms(n, d))
    hasse = p.hasse_pairs()
    assert ascending_pairs(hasse, len(p)) and np.isin(hasse @ [len(p), 1], p.pairs @ [len(p), 1]).all()
    grade, betti = rf.cellular_homology(p, hasse)  # raises if a check fails
    oc = rf.order_complex(p)
    assert betti == rf.gf2_betti(oc)
    assert rf.chain_counts(p) == oc.counts()
    assert grade.tolist() == _grades(p).tolist()
    assert p.payload(hasse)["maximal"] == oracles.maximal_indices(oracles.leq_of(p))


@pytest.mark.parametrize("n, d", ALL_CENSUS_SHAPES)
def test_census_comes_in_the_sort_key_order(n, d):
    # the table's two np.lexsorts against the Python sort of Circuit
    # objects: the table's rows and each element's rows by Circuit.sort_key,
    # elements by circuit count, then by their circuits' sort keys as
    # lists, and each element's ids ascending, so its rows come in order
    census = rf.enumerate_acyclic_oms(n, d)
    elements = list(census)
    assert len({m.circuits for m in elements}) == len(elements)
    expected = sorted(elements, key=oracles.census_key)
    assert [m.circuits for m in elements] == [m.circuits for m in expected]
    rows = [rf.Circuit(**c) for c in rf.core._circuit_table(census.signs).tolist()]
    assert rows == sorted(set(rows), key=rf.Circuit.sort_key)
    for i, m in enumerate(elements):
        held = census.elements[i]
        assert (np.diff(held) > 0).all() and np.array_equal(census.signs[held], m.signs)
        assert list(m.sorted_circuits) == sorted(m.circuits, key=rf.Circuit.sort_key)


@pytest.mark.parametrize("n, d", ALL_CENSUS_SHAPES)
def test_poset_of_the_table_equals_the_poset_of_its_objects(n, d):
    # from_elements and payload read the table as it is, and a list of the
    # same matroids through the adapter (MatroidTable.of)
    census = rf.enumerate_acyclic_oms(n, d)
    elements = list(census)
    p, q = rf.MatroidPoset.from_elements(census), rf.MatroidPoset.from_elements(elements)
    assert p.elements is census and q.elements is elements
    assert np.array_equal(p.pairs, q.pairs)
    hasse = p.hasse_pairs()
    assert _json_text(p.payload(hasse)) == _json_text(q.payload(hasse))
    assert oracles.element_circuits(_plain(p.payload(hasse))) == [m.to_dict()["circuits"] for m in elements]
    assert census.uniform.tolist() == [m.is_uniform for m in elements]


def test_census_elements_round_trip_through_their_dicts():
    census = rf.enumerate_acyclic_oms(5, 2)
    for m in census:
        data = m.to_dict()
        again = rf.OrientedMatroid.from_dict(data)
        assert again == m and hash(again) == hash(m) and again.to_dict() == data


def _poset_dict(elements):
    """The poset dict the census writes for elements, n and d included."""
    p = rf.MatroidPoset.from_elements(elements)
    ground = rf.MatroidTable.of(elements).ground
    return {**_plain(p.payload(p.hasse_pairs())), "n": ground.n, "d": ground.d}


@pytest.mark.parametrize("n, d", ALL_CENSUS_SHAPES)
def test_table_parser_reads_back_the_census(n, d):
    # the census's poset dict parses back into its own table, array for
    # array, each element is the matroid of its circuits built one by one,
    # and each listed circuit is distinct and held by some element
    census = rf.enumerate_acyclic_oms(n, d)
    data = _poset_dict(census)
    table = rf.MatroidTable.from_dict(data)
    assert table.ground == census.ground
    for got, want in (
        (table.signs, census.signs),
        (table.elements.offsets, census.elements.offsets),
        (table.elements.values, census.elements.values),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    listed = oracles.element_circuits(data)
    for i in np.random.default_rng([29, n, d]).choice(len(listed), min(len(listed), 20), replace=False):
        circuits = [rf.Circuit(c["pos"], c["neg"]) for c in listed[i]]
        assert table[int(i)] == rf.OrientedMatroid.from_circuits(census.ground, circuits)
    assert len({json.dumps(c) for c in data["circuits"]}) == len(data["circuits"])
    assert sorted({k for ids in data["elements"] for k in ids}) == list(range(len(data["circuits"])))


def test_table_parser_keeps_the_element_order_and_each_circuit_once(oms42):
    # elements in another order and circuits listed in another order, the
    # ids remapped: the same matroids in the given order, the rows in the
    # census's order, each circuit once and the ids ascending
    rng = np.random.default_rng(29)
    data = _poset_dict(oms42)
    order = rng.permutation(len(oms42))
    messy = oracles.shuffled_circuits({**data, "elements": [data["elements"][i] for i in order]}, rng)
    assert messy["circuits"] != data["circuits"]
    table = rf.MatroidTable.from_dict(messy)
    assert list(table) == [oms42[int(i)] for i in order]
    assert np.array_equal(table.signs, oms42.signs)
    assert all((np.diff(ids) > 0).all() for ids in table.elements)
    again = _plain(rf.MatroidPoset.from_elements(table).payload(np.zeros((0, 2), np.intp)))
    assert again["circuits"] == data["circuits"]
    assert oracles.element_circuits(again) == [oracles.element_circuits(data)[i] for i in order]


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({"circuits": [{"pos": [1, 2], "neg": [2]}]}, ValueError, "circuit parts must be disjoint"),
        ({"circuits": [{"pos": [], "neg": []}]}, ValueError, "circuit support must be nonempty"),
        ({"circuits": [{"pos": [0], "neg": [2]}]}, ValueError, "elements are 1-based positive integers"),
        ({"circuits": [{"pos": [1, 6], "neg": [2]}]}, ValueError, "circuit {1,6}|{2} uses an element beyond n=5"),
        (
            {"circuits": [{"pos": [1, 2], "neg": [3]}, {"pos": [3, 1], "neg": [4, 2]}]},
            ValueError,
            "circuit {1,3}|{2,4} has support larger than d + 2 = 3",
        ),
        ({"d": None}, ValueError, "missing key 'd'"),
        ({"n": None}, ValueError, "missing key 'n'"),
        ({"elements": None}, ValueError, "missing key 'elements'"),
        ({"circuits": [{"pos": [1], "neg": 2}]}, ValueError,
         "circuit 0 of 'circuits' needs 'pos' and 'neg', each a list of elements"),
        ({"n": "5"}, ValueError, "'n' must be an integer, not '5'"),
        ({"d": 1.9}, ValueError, "'d' must be an integer, not 1.9"),
        ({"circuits": [{"pos": [1.9], "neg": [2]}]}, ValueError,
         "an element of 'pos' of circuit 0 must be an integer, not 1.9"),
        ({"circuits": [{"pos": [1], "neg": [True]}]}, ValueError,
         "an element of 'neg' of circuit 0 must be an integer, not True"),
    ],
    ids=["overlap", "empty", "element-0", "beyond-n", "wide", "no-d", "no-n", "no-elements", "part-not-a-list",
         "string-n", "float-d", "float-element", "bool-element"],
)
def test_table_parser_names_the_first_malformed_circuit(bad, error, message):
    # a (5,1) element's dict made malformed: the table parser, on a poset
    # of that one element holding every listed circuit, and from_dict raise
    # the message the parser of one Circuit per listed circuit always
    # raised, word for word
    element = rf.enumerate_acyclic_oms(5, 1)[2].to_dict()
    element = {k: v for k, v in {**element, **bad}.items() if v is not None}
    poset = {**element, "elements": [list(range(len(element["circuits"])))]}
    poset = {k: v for k, v in {**poset, **bad}.items() if v is not None}
    parsers = [(rf.MatroidTable.from_dict, poset), (rf.OrientedMatroid.from_dict, element)]
    # an element's dict holds no 'elements' to lose
    for parse, data in parsers[: 1 if "elements" in bad else 2]:
        with pytest.raises(error) as raised:
            parse(data)
        assert str(raised.value) == message


def test_table_parser_needs_one_ground_set():
    census = rf.enumerate_acyclic_oms(5, 1)
    other = rf.OrientedMatroid.from_circuits(rf.GroundSet(5, 2), [rf.Circuit({1, 2}, {3})])
    for make in (rf.MatroidTable.of, rf.MatroidPoset.from_elements):
        with pytest.raises(ValueError, match="matroids must share the same ground set"):
            make(census[:3] + [other])


def _gaussian_binomial(m, k):
    """The coefficients of the Gaussian binomial [m choose k]_t, by
    [m choose k] = [m-1 choose k-1] + t^k [m-1 choose k]."""
    if k < 0 or k > m:
        return [0]
    if k in (0, m):
        return [1]
    a, b = _gaussian_binomial(m - 1, k - 1), [0] * k + _gaussian_binomial(m - 1, k)
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


@pytest.mark.parametrize("n, d", ALL_CENSUS_SHAPES)
def test_census_homology_is_that_of_the_real_grassmannian(n, d):
    # the MacPhersonian of rank d + 1 on n elements is homotopy equivalent
    # to the real Grassmannian G(d, n - 1) at these sizes, whose GF(2) Betti
    # numbers are the coefficients of [n-1 choose d]_t (Schubert cells)
    p = rf.MatroidPoset.from_elements(rf.enumerate_acyclic_oms(n, d))
    expected = _gaussian_binomial(n - 1, d)
    hasse = p.hasse_pairs()
    assert rf.cellular_homology(p, hasse)[1] == expected
    if (n, d) == (5, 2):
        assert expected == [1, 1, 2, 1, 1]
        try:
            betti = rf.cellular_homology(p, np.delete(hasse, len(hasse) // 2, axis=0))[1]
        except rf.NotACWPosetError:
            return
        assert betti != expected


def test_cell_structure_m42_from_the_table_and_from_a_list(oms42):
    for elements in (oms42, list(oms42)):
        assert _m42(rf.MatroidPoset.from_elements(elements)).ok


def test_table_indexing_builds_matroids_on_request(oms42):
    assert isinstance(oms42, rf.MatroidTable)
    assert oms42[-1].circuits == oms42[24].circuits
    assert [m.circuits for m in oms42[3:9:2]] == [oms42[i].circuits for i in (3, 5, 7)]
    assert isinstance(oms42[:2], list)
    with pytest.raises(IndexError):
        oms42[25]
    # element i is the matroid of its rows of the table, and every row is
    # some element's circuit
    for i, m in enumerate(oms42):
        assert np.array_equal(m.signs, oms42.signs[oms42.elements[i]])
    assert len({c for m in oms42 for c in m.circuits}) == len(oms42.signs)


def _poset_of_covers(k, covers):
    """The poset on range(k) whose order is generated by covers."""
    leq = np.eye(k, dtype=bool)
    leq[tuple(np.array(covers).T)] = True
    return _bare_poset(_closed(leq))


# vertices a, b = 0, 1; edges 2, 3 on both; faces 4, 5 on both edges: a
# 2-sphere of two digons
DIGON_SPHERE = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)]
# the sphere and a 3-cell 6 on it, plus edges 8, 9 from vertex 0 to a new
# vertex 7 that 6 covers too: each of 8, 9 spans grades 1 to 3, though every
# two-step path of covers still closes a diamond
NOT_GRADED = (10, DIGON_SPHERE + [(4, 6), (5, 6), (0, 8), (7, 8), (0, 9), (7, 9), (8, 6), (9, 6)])
# the sphere with a third face 7 on edge 2 and a new edge 6, and a 3-cell 8
# on the three faces: edge 2 lies in three faces below 8, edge 6 in one, yet
# the order complex below 8 is a 2-sphere with a disk hanging off an arc
NOT_THIN = (9, DIGON_SPHERE + [(0, 6), (1, 6), (2, 7), (6, 7), (4, 8), (5, 8), (7, 8)])
# two circles of two vertices and two edges each, and one 2-cell 8 on all
# four edges: its boundary is two circles
NOT_SPHERICAL = (
    9,
    [(0, 2), (1, 2), (0, 3), (1, 3), (4, 6), (5, 6), (4, 7), (5, 7)]
    + [(e, 8) for e in (2, 3, 6, 7)],
)


def _below(p, x):
    """The poset of the elements strictly below x."""
    leq = oracles.leq_of(p)
    keep = np.setdiff1d(np.flatnonzero(leq[:, x]), [x])
    return _bare_poset(leq[np.ix_(keep, keep)])


@pytest.mark.parametrize(
    "cells, check",
    [(NOT_GRADED, "graded"), (NOT_THIN, "diamond"), (NOT_SPHERICAL, "sphere")],
    ids=["graded", "diamond", "sphere"],
)
def test_each_check_refuses_the_poset_that_breaks_only_it(cells, check):
    p = _poset_of_covers(*cells)
    hasse = p.hasse_pairs()
    assert hasse.tolist() == sorted(map(list, cells[1]))
    with pytest.raises(rf.NotACWPosetError, match=f"^{check} check: "):
        rf.cellular_homology(p, hasse)
    # the other checks pass when run on their own
    if check != "diamond":
        rf.macphersonian._check_diamonds(hasse, len(p))
    if check != "graded":
        grade = rf.grades(p, hasse)
    if check == "diamond":
        rf.macphersonian._check_spheres(p, hasse, grade)
        # and the order complex below each element is a sphere of one
        # dimension less than its grade
        for x in np.flatnonzero(grade).tolist():
            expected = [2] if grade[x] == 1 else [1] + [0] * (grade[x] - 2) + [1]
            assert rf.gf2_betti(rf.order_complex(_below(p, x))) == expected


def test_grades_refuse_covers_that_close_a_cycle():
    p = _bare_poset(np.eye(3, dtype=bool))
    with pytest.raises(rf.NotACWPosetError, match="^graded check: "):
        rf.grades(p, np.array([[0, 1], [1, 2], [2, 0]]))


def test_cellular_homology_on_the_oracle_posets():
    # the Betti numbers, or the name of the check that refused the poset
    answer = {}
    for name, p in ORACLE_POSETS.items():
        try:
            answer[name] = rf.cellular_homology(p, p.hasse_pairs())[1]
        except rf.NotACWPosetError as exc:
            answer[name] = str(exc).split(" check: ")[0]
    assert answer["torus-faces"] == [1, 2, 1]
    assert answer["three-chain"] == "diamond"
    assert answer["dag-7-0.4"] == "diamond"
    assert answer["dag-30-0.05"] == "graded"
    assert answer["dag-1-0.5"] == [1]  # one point

import dataclasses
import functools
import importlib
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import radonflow as rf
from conftest import (
    HEXAGON,
    LINE4,
    NEAR_COLLINEAR_EPS,
    SQUARE,
    TRI_INTERIOR,
    near_collinear,
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
            geometric = rf.geometric_radon_complex(cfg).matroid
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


def test_weak_map_leq_of_one_circuit_matroids_over_the_square(square_matroid):
    # the square's one circuit {1,4}|{2,3} nests in either orientation of
    # that partition, and not in {1,2,4}|{3} or {1,4}|{2}
    def one(pos, neg):
        return rf.OrientedMatroid.from_circuits(square_matroid.ground, [rf.Circuit(pos, neg)])

    assert rf.weak_map_leq(square_matroid, one({1, 4}, {2, 3}))
    assert rf.weak_map_leq(square_matroid, one({2, 3}, {1, 4}))
    assert not rf.weak_map_leq(square_matroid, one({1, 4, 2}, {3}))
    assert not rf.weak_map_leq(square_matroid, one({1, 4}, {2}))


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
    m = rf.OrientedMatroid.from_circuits(
        rf.GroundSet(4, 2),
        frozenset({rf.Circuit.make({1, 2}, {3}), rf.Circuit.make({1, 2, 3}, {4})}),
    )
    report = rf.check_circuit_axioms(m)
    assert report.support_minimality and not report.ok


def test_axioms_catch_noncanonical_storage():
    m = rf.OrientedMatroid.from_circuits(
        rf.GroundSet(4, 2),
        frozenset({rf.Circuit(frozenset({2}), frozenset({1}))}),
    )
    report = rf.check_circuit_axioms(m)
    assert report.canonicalization


def test_axioms_catch_missing_elimination():
    m = rf.OrientedMatroid.from_circuits(
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
    m = rf.OrientedMatroid.from_circuits(rf.GroundSet(n, 1), chain)
    report = rf.check_circuit_axioms(m)
    assert len(report.weak_elimination) == ELIMINATION_CAP
    assert report.elimination_truncated
    assert "truncated" in report.summary()
    assert report == oracles.check_circuit_axioms(m)
    first = sorted(chain, key=rf.Circuit.sort_key)[:30]  # 172 failures
    below = rf.OrientedMatroid.from_circuits(rf.GroundSet(n, 1), frozenset(first))
    short = rf.check_circuit_axioms(below)
    assert not short.elimination_truncated and "truncated" not in short.summary()
    assert short == oracles.check_circuit_axioms(below)


def test_axioms_on_ground_sets_wider_than_64(pentagon_config):
    m = rf.circuits_of_points(pentagon_config)
    wide = widened(m, 70, 65)  # elements 66..70 of 70
    assert rf.check_circuit_axioms(wide).ok
    broken = rf.OrientedMatroid.from_circuits(wide.ground, frozenset(wide.sorted_circuits[1:]))
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
    masks = [oracles.mask_of(np.flatnonzero(s) + 1) for s in supports]
    assert masks == sorted(masks)  # ascending as integers, across words
    vectors = [
        SimpleNamespace(pos=np.flatnonzero(r > 0) + 1, neg=np.flatnonzero(r < 0) + 1)
        for r in signs
    ]
    assert np.array_equal(rf.core._signs(vectors, n), signs)


def distinct_keys():
    rng = np.random.default_rng(17)
    signs = rng.integers(-1, 2, size=(300, 40)).astype(np.int8)[rng.integers(0, 300, 900)]
    words = rf.core._pack(signs)  # two words a row: elements 33..40 in the second
    yield "random-repeats", rng.integers(0, 50, 400)
    yield "none", np.zeros(0, np.int64)
    yield "one", np.array([7])
    yield "all-equal", np.full(300, 5)
    yield "extremes", np.array([2**64 - 1, 0, 5, 2**64 - 1, 0], np.uint64)
    # the big-endian support words of _supports, one and two to a row
    supports = (words >> np.uint64(32) | words) & np.uint64(0xFFFFFFFF)
    yield "big-endian-one-word", rf.core._keys(supports[:, :1].astype(">u8"))
    yield "big-endian-two-words", rf.core._keys(supports[:, ::-1].astype(">u8"))
    yield "two-word-void", rf.core._keys(words)
    # rows of three big-endian 4-byte entries, as _ordered_rows' keys at n >= 65536
    yield "big-endian-four-byte-rows", rf.core._keys(rng.integers(0, 3, size=(500, 3)).astype(">u4"))


@pytest.mark.parametrize("name, keys", list(distinct_keys()), ids=[name for name, _ in distinct_keys()])
def test_distinct_is_numpys_unique_with_index_and_inverse(name, keys):
    got = rf.core._distinct(keys)
    want = np.unique(keys, return_index=True, return_inverse=True)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("n", [1, 6, 40, 300])
def test_ordered_rows_match_the_lexsort_reference(n):
    # at n = 300 each entry of a row's key takes two bytes
    rng = np.random.default_rng([5, n])
    rows = rng.integers(-1, 2, size=(120, n)).astype(np.int8)
    signs = rows[rng.integers(0, len(rows), 400)]
    got, want = rf.core._ordered_rows(signs), oracles.ordered_rows(signs)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(got[0]) < len(signs)


def test_only_core_reads_the_kernel_word_layout():
    # the other modules read kernel rows' supports through core._supports
    for name in ("cli", "complexes", "flow", "macphersonian"):
        module = importlib.import_module(f"radonflow.{name}")
        assert not {"_BITS", "_HALF", "_LOW"} & set(vars(module)), name


def test_equality_of_array_holders_is_identity(pentagon_config):
    # a generated == would compare the arrays by truth value and raise
    ragged = rf.core.Ragged.sized([1, 2], np.array([4, 5, 6]))
    table = rf.core.RecordTable({"a": np.array([1, 2]), "b": ragged})
    cfg = rf.PointConfiguration(pentagon_config.points.copy(), 2)
    rc = rf.geometric_radon_complex(pentagon_config)
    poset = rf.MatroidPoset.from_elements(rf.enumerate_acyclic_oms(4, 1))
    sc = rf.SimplicialComplex.from_maximal_faces([[0, 1, 2], [1, 2, 3]])
    for x, copy in [
        (ragged, rf.core.Ragged(ragged.offsets.copy(), ragged.values.copy())),
        (table, rf.core.RecordTable(dict(table.fields))),
        (cfg, rf.PointConfiguration(cfg.points.copy(), 2)),
        (rc, dataclasses.replace(rc, positions=rc.positions.copy())),
        (poset, rf.MatroidPoset(poset.elements, poset.pairs.copy())),
        (sc, rf.SimplicialComplex([s.copy() for s in sc.simplices])),
    ]:
        assert (x == x) is True and (x == copy) is False and (x != copy) is True
    assert isinstance(hash(cfg), int) and {cfg: 1}[cfg] == 1


def test_matroid_dict_names_missing_circuits(square_matroid):
    # a missing n or d is a case of the table parser's test, which reads
    # a poset without 'circuits' as the schema_version 1 form
    data = square_matroid.to_dict()
    del data["circuits"]
    with pytest.raises(ValueError, match="^missing key 'circuits'$"):
        rf.OrientedMatroid.from_dict(data)


def _signs_loop(vectors, n):
    out = np.zeros((len(vectors), n), np.int8)
    for k, v in enumerate(vectors):
        for e in v.pos:
            out[k, e - 1] = 1
        for e in v.neg:
            out[k, e - 1] = -1
    return out


def test_signs_match_a_per_vector_loop():
    # signed circuits and their vertices spread over three 32-element words
    rng = np.random.default_rng(44)
    circuits = []
    for size in (2, 3, 5, 8):
        for _ in range(6):
            support = rng.choice(np.arange(1, 71), size=size, replace=False).tolist()
            cut = int(rng.integers(1, size))
            circuits.append(rf.Circuit.make(support[:cut], support[cut:]))
    circuits.append(rf.Circuit.make({1, 33, 70}, {32, 64, 65}))
    vertices = [oracles.SignedCircuitVertex(c, s) for c in circuits for s in (1, -1)]
    for vectors in (circuits, vertices, []):
        signs = rf.core._signs(vectors, 70)
        assert signs.dtype == np.int8 and signs.shape == (len(vectors), 70)
        assert np.array_equal(signs, _signs_loop(vectors, 70))
    assert {w for row in rf.core._signs(circuits, 70) for w in np.flatnonzero(row) // 32} == {0, 1, 2}


@functools.lru_cache(maxsize=None)
def kernel_case(n, z_rows, s_rows):
    """Sparse z rows (one of them zero) and s rows, half of which extend a z
    row, with the oracle's answer."""
    rng = np.random.default_rng([83, n, z_rows, s_rows])

    def draw(rows, density):
        signs = rng.choice(np.array([-1, 1], np.int8), size=(rows, n))
        return np.where(rng.random((rows, n)) < density, signs, 0).astype(np.int8)

    z, s = draw(z_rows, min(1.0, 3 / n)), draw(s_rows, 0.7)
    z[z_rows // 2 : z_rows // 2 + (z_rows > 1)] = 0
    if z_rows:
        base = z[rng.integers(z_rows, size=len(s[::2]))]
        s[::2] = np.where(base != 0, base, s[::2])
    return z, s, oracles.conformity(z, s)


@pytest.mark.parametrize("block_words", [1, 40, None])
@pytest.mark.parametrize("s_rows", [0, 1, 500])
@pytest.mark.parametrize("z_rows", [0, 1, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 70])
def test_conformance_kernel_matches_pairwise_oracle(
    monkeypatch, n, z_rows, s_rows, block_words
):
    z, s, want = kernel_case(n, z_rows, s_rows)
    if block_words is not None:
        monkeypatch.setattr(rf.core, "_BLOCK_WORDS", block_words)
    limit = rf.core._BLOCK_WORDS
    zp, sp = rf.core._pack(z), rf.core._pack(s)
    blocks = list(rf.core._conforming(zp, sp))
    words = -(-z_rows // 64)
    sizes = [len(bits) for _, bits in blocks]
    assert [start for start, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
    if not s_rows:
        assert len(blocks) == 1  # an empty s still yields one, empty, block
    assert sum(sizes) == s_rows
    for _, bits in blocks:
        assert bits.dtype == np.uint64 and bits.shape[1] == words
        # the documented bounds, which a one-row block may pass
        assert len(bits) == 1 or len(bits) * words <= limit
        assert len(bits) == 1 or len(bits) * z_rows <= 8 * limit
    bits = np.concatenate([b for _, b in blocks])
    flags = np.unpackbits(bits.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not flags[:, z_rows:].any()  # nothing past len(z)
    assert np.array_equal(flags[:, :z_rows].view(bool), want)
    pairs = [rf.core._pairs(b) for _, b in blocks]
    rows = np.concatenate([start + i for (start, _), (i, _) in zip(blocks, pairs)])
    cols = np.concatenate([j for _, j in pairs])
    want_rows, want_cols = np.nonzero(want)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(rf.core._conformity(zp, sp), want)


def _set_bits(bits):
    """(i, j) for every set bit j of bits[i], one bit at a time."""
    return [
        (i, 64 * w + b)
        for i, row in enumerate(bits.tolist())
        for w, word in enumerate(row)
        for b in range(64)
        if word >> b & 1
    ]


def _listed(pairs):
    return list(zip(*(part.tolist() for part in pairs)))


@pytest.mark.parametrize("words", [1, 2, 3])
def test_pairs_lists_the_set_bits_a_per_bit_loop_finds(words):
    rng = np.random.default_rng([47, words])
    top = np.iinfo(np.uint64).max
    bits = rng.integers(0, top, size=(9, words), dtype=np.uint64, endpoint=True)
    bits &= rng.integers(0, top, size=(9, words), dtype=np.uint64, endpoint=True)
    bits[2] = 0  # an empty row
    bits[4, 0] = top  # an all-ones word
    bits[6] = 0
    bits[6, -1] = np.uint64(1) << np.uint64(63)  # bit 63 alone
    assert _listed(rf.core._pairs(bits)) == _set_bits(bits)
    assert _listed(rf.core._pairs(bits[:0])) == []


def test_pairs_of_a_block_split_at_one_word_list_its_set_bits(monkeypatch):
    # 130 z rows make three-word bitsets; at _BLOCK_WORDS = 1 the kernel
    # yields the one default block row by row
    rng = np.random.default_rng(47)
    z = rf.core._pack(rng.integers(-1, 2, size=(130, 7)).astype(np.int8))
    s = rf.core._pack(rng.choice(np.array([-1, 1], np.int8), size=(6, 7)))
    ((_, whole),) = rf.core._conforming(z, s)
    monkeypatch.setattr(rf.core, "_BLOCK_WORDS", 1)
    blocks = list(rf.core._conforming(z, s))
    assert len(blocks) == len(s)
    split = [(start + i, j) for start, bits in blocks for i, j in _listed(rf.core._pairs(bits))]
    assert split == _set_bits(whole) and split


def test_matroid_serialization_roundtrip(square_matroid):
    again = rf.OrientedMatroid.from_dict(square_matroid.to_dict())
    assert again == square_matroid


LADDER = [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]


# the census shapes up to n = 5, and (6,1) and (6,4)
READER_CENSUS = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 4)]


def reader_input(case):
    """(values, n, r) for core._circuit_rows: a census shape's chirotopes,
    a ladder draw's lifted minors, or the minors of four points on a line,
    two coincident, whose 2-element circuit lies in two spans."""
    if case[0] == "census":
        _, n, d = case
        return rf.macphersonian._chirotopes(n, d + 1, itertools.combinations(range(n), d + 2))[1], n, d + 1
    if case[0] == "ladder":
        _, n, d, kind = case
        rng = np.random.default_rng([53, n, d])
        if kind == "uniform":
            pts = sample_spanning_points(n, d, rng)
        else:
            pts = sample_degenerate_points(n, d, rng, kind)
        return rf.PointConfiguration(pts.astype(float), d)._minors[1][None], n, d + 1
    return rf.PointConfiguration(np.array([[0.0], [0.0], [1.0], [2.0]]), 1)._minors[1][None], 4, 2


READER_CASES = [("census", n, d) for n, d in READER_CENSUS] + [
    ("ladder", n, d, kind) for n, d in LADDER for kind in ("uniform", "pair", "triple")
] + [("line",)]


@pytest.mark.parametrize("case", READER_CASES, ids=["-".join(map(str, c)) for c in READER_CASES])
def test_circuit_reader_matches_the_two_step_reference(case):
    # the reader once ran as two routines, gather then distinct, and each
    # caller sorted their output itself
    values, n, r = reader_input(case)
    got = rf.core._circuit_rows(values, n, r)
    want = oracles.circuit_rows(values, n, r)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if case == ("line",):  # the pair {1, 2} is held by the spans {1, 2, 3} and {1, 2, 4}
        assert got[3].tolist() == [[0, 0, 1, 2]] and got[0][0].tolist() == [1, -1, 0, 0]


def test_matroid_is_its_sorted_distinct_rows(hexagon_config):
    # the same circuits in any order or with repeats give one matroid, one
    # hash; a circuit's reversal added makes another, and the rows are
    # read-only
    m = rf.circuits_of_points(hexagon_config)
    circuits = list(m.sorted_circuits)
    rng = np.random.default_rng(28)
    shuffled = [circuits[i] for i in rng.permutation(len(circuits))]
    for order in (circuits[::-1], shuffled, circuits + circuits[:5]):
        again = rf.OrientedMatroid.from_circuits(m.ground, order)
        assert again == m and hash(again) == hash(m)
        assert np.array_equal(again.signs, m.signs) and again.sorted_circuits == m.sorted_circuits
    assert list(m.sorted_circuits) == sorted(m.circuits, key=rf.Circuit.sort_key)
    x = circuits[3]
    with_reversal = rf.OrientedMatroid.from_circuits(m.ground, circuits + [rf.Circuit(x.neg, x.pos)])
    assert with_reversal != m and len(with_reversal.signs) == len(m.signs) + 1
    assert rf.OrientedMatroid(m.ground, -m.signs) != m
    assert m != rf.OrientedMatroid(rf.GroundSet(6, 3), m.signs)  # same rows, other ground set
    assert not m.signs.flags.writeable
    with pytest.raises(ValueError):
        m.signs[0, 0] = -m.signs[0, 0]


@pytest.mark.parametrize(
    "signs, message",
    [
        (np.zeros((1, 5), np.int8), "nonzero"),
        (np.array([[1, 2, 0, 0, 0]]), "entries"),
        (np.ones((1, 4), np.int8), "rows of 5"),
        (np.array([[1, -1, 1, -1, 1]]), "support larger than d \\+ 2 = 4"),
    ],
    ids=["zero-row", "entry-2", "narrow", "wide"],
)
def test_matroid_rejects_malformed_rows(signs, message):
    with pytest.raises(ValueError, match=message):
        rf.OrientedMatroid(rf.GroundSet(5, 2), signs)


def test_from_circuits_rejects_an_element_beyond_n():
    with pytest.raises(ValueError, match=re.escape("circuit {1,5}|{2} uses an element beyond n=4")):
        rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), [rf.Circuit.make({1, 5}, {2})])


@pytest.mark.parametrize("n, d", LADDER)
def test_matroid_dict_round_trip_on_the_ladder(n, d):
    rng = np.random.default_rng([28, n, d])
    draws = [sample_spanning_points(n, d, rng)]
    draws += [sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")]
    for pts in draws:
        m = rf.circuits_of_points(rf.PointConfiguration(pts.astype(float), d))
        data = m.to_dict()
        again = rf.OrientedMatroid.from_dict(data)
        assert again == m and hash(again) == hash(m) and again.to_dict() == data


def test_relabeling_permutes_circuits(square_matroid):
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    moved = oracles.relabeled(square_matroid, perm)
    assert circuit_set(moved) == {(frozenset({1, 2}), frozenset({3, 4}))}


def assert_same_scan(cfg, tol=1e-12):
    """The circuits read off the minors are the loop scan's, in the
    Circuit.sort_key order, and their dependences agree to tol."""
    got, want = oracles.dependences_by_circuit(cfg), oracles.circuit_scan(cfg)
    assert list(got) == sorted(want, key=rf.Circuit.sort_key)
    for c, x in want.items():
        assert np.abs(got[c] - x).max() <= tol
        assert not np.signbit(got[c][got[c] == 0]).any()  # +0.0 off the support
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


@pytest.mark.parametrize("eps", NEAR_COLLINEAR_EPS)
def test_batched_scan_matches_loop_near_collinear(eps):
    # where the rank rule zeroes the triple's basis, the triple is a circuit
    # and takes its first span's Cramer vector, which differs from the
    # triple's own kernel vector by about eps
    assert_same_scan(near_collinear(eps), tol=1e-9)


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


@pytest.mark.parametrize(
    "lengths",
    [[], [0], [0, 0, 0], [3], [2, 0, 1, 0, 4], [0, 5, 0]],
    ids=["no-lists", "one-empty", "all-empty", "one-list", "empty-in-the-middle", "empty-at-the-ends"],
)
def test_ragged_sized_indexing_fan_and_take_match_loops(lengths):
    rng = np.random.default_rng([61, len(lengths), sum(lengths)])
    values = rng.integers(-50, 50, sum(lengths))
    r = rf.core.Ragged.sized(lengths, values)
    lists = oracles.sized_lists(lengths, values.tolist())
    assert r.tolist() == lists and len(r) == len(lists) and r.lengths.tolist() == lengths
    assert r.offsets.dtype == np.intp and r.offsets[0] == 0 and r.offsets[-1] == len(values)
    for i in range(-len(lists), len(lists)):
        assert r[i].tolist() == lists[i]
    for i in (len(lists), -len(lists) - 1):
        with pytest.raises(IndexError):
            r[i]
    row_sets = [np.zeros(0, np.intp)]  # no rows
    if lists:  # every list, some in repeats and any order, and every list backwards
        row_sets += [np.arange(len(lists)), rng.integers(0, len(lists), 7), np.arange(len(lists))[::-1]]
    for rows in row_sets:
        owner, position = r.fan(rows)
        assert (owner.tolist(), position.tolist()) == oracles.fan_pairs(lists, rows.tolist())
        assert r.take(rows).tolist() == [lists[x] for x in rows.tolist()]


@pytest.mark.parametrize(
    "fields, records",
    [
        ({}, 0),
        ({"dim": np.zeros(0, np.intp)}, 0),
        ({"pos": rf.core.Ragged.sized([], np.zeros(0, np.intp)), "sign": np.zeros(0, np.int8)}, 0),
        ({"dim": np.array([2, 3, 2]), "vertices": rf.core.Ragged.sized([3, 0, 4], np.arange(7))}, 3),
        ({"pos": rf.core.Ragged.sized([1, 2], np.arange(3)), "neg": rf.core.Ragged.sized([2, 0], np.arange(2))}, 2),
        ({"a": rf.core.Ragged.sized([0, 0, 0], np.zeros(0, np.intp))}, 3),
    ],
    ids=["no-fields", "empty-column", "empty-fields", "column-and-ragged", "two-raggeds", "empty-lists"],
)
def test_record_table_length_is_its_number_of_records(fields, records):
    table = rf.core.RecordTable(fields)
    assert len(table) == records == len(table.tolist())


@pytest.mark.parametrize("k, pairs", [(1, 0), (5, 0), (6, 40), (30, 200)])
def test_ragged_grouped_matches_the_loop_on_unsorted_pairs(k, pairs):
    # random pairs in no order, repeats included; with no pairs every list is empty
    rng = np.random.default_rng([62, k, pairs])
    lower, upper = rng.integers(0, k, pairs), rng.integers(0, k, pairs)
    r = rf.core.Ragged.grouped(lower, upper, k)
    assert r.tolist() == oracles.grouped_lists(lower.tolist(), upper.tolist(), k)
    assert len(r) == k and r.offsets.dtype == np.intp

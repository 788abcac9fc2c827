import functools
import json
import operator
from collections import Counter

import numpy as np
import pytest

import oracles
import radonflow as rf
from conftest import (
    DIRECT_SUM,
    HEXAGON,
    NEAR_COLLINEAR_EPS,
    ascending_pairs,
    near_collinear,
    sample_degenerate_points,
    sample_spanning_points,
    widened,
)
from oracles import cycle_pairs
from radonflow.cli import _sample_spanning_points, main
from radonflow.core import RecordTable, _plain
from radonflow.flow import _Field


def test_square_complex_is_a_zero_sphere(square_config):
    rc = rf.geometric_radon_complex(square_config)
    assert len(rc.graph.vertices) == 2
    assert len(rc.graph.edges) == 0
    assert rc.euler_characteristic() == 2
    report = rf.validate_sphere(rc)
    assert report.ok and report.sphere_dim == 0


def test_pentagon_complex_is_a_circle(pentagon_complex):
    rc = pentagon_complex
    g = rc.graph
    assert len(g.vertices) == 10
    assert len(g.edges) == 10
    assert rc.euler_characteristic() == 0
    assert rf.validate_sphere(rc).ok
    # all ten edges close into a single polygon on the full support
    (cyc,) = g.cycles.tolist()
    assert cyc["support"] == [1, 2, 3, 4, 5]
    assert len(cyc["vertex_seq"]) == 10 and len(cyc["edge_ids"]) == 10


def test_hexagon_complex_is_a_two_sphere(hexagon_complex):
    rc = hexagon_complex
    assert len(rc.graph.vertices) == 30
    assert len(rc.graph.edges) == 60
    assert rc.facets.fields["dim"].tolist() == [2] * 32
    assert len(rc.facets) == 32
    assert rc.euler_characteristic() == 2
    assert rf.validate_sphere(rc).ok


def test_line_complex_is_a_circle(line_config):
    rc = rf.geometric_radon_complex(line_config)
    assert rc.euler_characteristic() == 0
    assert rf.validate_sphere(rc).ok


def test_positions_sit_on_their_faces(hexagon_complex):
    g = hexagon_complex.graph
    amb = oracles.AmbientSpace(hexagon_complex.matroid.n)
    for k, v in enumerate(oracles.vertex_objects(g)):
        assert amb.face_of(hexagon_complex.positions[k]) == (v.pos, v.neg)
    # the package's one face check accepts the same positions
    rf.EmbeddedSphere(g, hexagon_complex.positions[: len(g.signs) // 2])


def test_cycles_partition_edges_and_live_in_two_planes(hexagon_complex):
    rc = hexagon_complex
    g = rc.graph
    seen = sorted(g.cycles.fields["edge_ids"].values.tolist())
    assert seen == list(range(len(g.edges)))
    for seq in g.cycles.fields["vertex_seq"].tolist():
        pts = rc.positions[seq]
        sv = np.linalg.svd(pts, compute_uv=False)
        assert sv[2] < 1e-10 * sv[0]  # flat cycle in the geometric embedding


def test_combinatorial_graph_matches_geometric(
    square_config, pentagon_config, hexagon_config, line_config
):
    for cfg in (square_config, pentagon_config, hexagon_config, line_config):
        rc = rf.geometric_radon_complex(cfg)
        m = rf.circuits_of_points(cfg)
        g2 = rf.combinatorial_circuit_graph(m)
        assert rf.graphs_equal(rc.graph, g2)


def test_combinatorial_graph_matches_on_random_configs():
    rng = np.random.default_rng(77)
    for n, d in ((5, 2), (6, 2), (7, 3)):
        for _ in range(10):
            pts = sample_spanning_points(n, d, rng).astype(float)
            cfg = rf.PointConfiguration(pts, d)
            rc = rf.geometric_radon_complex(cfg)
            assert rf.graphs_equal(rc.graph, rf.combinatorial_circuit_graph(rf.circuits_of_points(cfg)))


def test_matroid_of_complex_roundtrip(pentagon_config):
    rc = rf.geometric_radon_complex(pentagon_config)
    assert rc.matroid == rf.circuits_of_points(pentagon_config)


def test_opposite_neighbors_are_cycle_mates(hexagon_complex):
    g = hexagon_complex.graph
    for i, pairs in enumerate(cycle_pairs(g)):
        assert pairs  # every vertex lies on at least one cycle
        nbrs = {b for e in g.edges if i in e for b in e if b != i}
        for a, b in pairs:
            assert a in nbrs and b in nbrs
            assert a != b


def test_graphs_equal_detects_differences(pentagon_complex):
    g = pentagon_complex.graph
    fewer = rf.CircuitGraph(g.matroid, g.edges[:-1])
    assert not rf.graphs_equal(g, fewer)


def test_validate_sphere_reports_failures(square_config):
    # the square's complex over its matroid widened to five elements, a zero
    # column added: the sphere it should be is a circle, not a pair of points
    rc = rf.geometric_radon_complex(square_config)
    wide = rf.OrientedMatroid(rf.GroundSet(5, 2), np.pad(rc.matroid.signs, ((0, 0), (0, 1))))
    report = rf.validate_sphere(rf.RadonComplex(rf.CircuitGraph(wide, rc.graph.edges), rc.positions))
    assert (report.n, report.d, report.sphere_dim) == (5, 2, 1)
    assert "euler characteristic 2 != expected 0" in report.failures


# The pentagon's ten vertices joined in index order: vertex k + 5 is the
# antipode of vertex k, so this ring is a valid hand-built 1-sphere, and each
# test below breaks exactly one of validate_sphere's checks.
RING = [(k, (k + 1) % 10) for k in range(10)]


def _hand_built(rc, edges=RING):
    """rc's complex with its graph's edges replaced, by default by the ring."""
    return rf.RadonComplex(graph=rf.CircuitGraph(rc.matroid, edges), positions=rc.positions)


def test_hand_built_ring_is_a_sphere(pentagon_complex):
    assert rf.validate_sphere(_hand_built(pentagon_complex)).ok


# (0, 1) -> (0, 2) and its antipode (5, 6) -> (5, 7): still ten antipodal
# edges on a connected graph, but vertices 1 and 6 have degree 1
ODD = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (6, 7), (7, 8), (8, 9), (9, 0)]


def test_validate_sphere_flags_odd_degree(pentagon_complex):
    # vertex 1 is the circuit {1,3}|{2,5}, signed +
    report = rf.validate_sphere(_hand_built(pentagon_complex, ODD))
    assert report.failures == ["vertex +{1,3}|{2,5} has odd degree 1"]


def test_open_cycles_raise_when_the_cycles_are_read(pentagon_complex):
    # building the graph and checking it do not walk its cycles; the first
    # read does, and raises the reference walk's error
    rc = _hand_built(pentagon_complex, ODD)
    assert len(rf.validate_sphere(rc).failures) == 1
    g = rc.graph
    with pytest.raises(ValueError, match="do not form closed cycles") as raised:
        g.cycles
    assert str(raised.value) == _graph_or_error(lambda: oracles.ReferenceGraph(g.matroid, g.edges))


def test_open_cycle_error_names_the_least_bad_vertex_of_the_first_bad_tag(pentagon_complex, hexagon_complex):
    # tags are taken in support-mask order, the hexagon's six cycles in the
    # order of its intact graph's; the message is the reference walk's
    g = hexagon_complex.graph
    edges, cycles = g.edges.tolist(), g.cycles.tolist()
    dropped = {cycles[1]["edge_ids"][4], cycles[3]["edge_ids"][0]}
    chords = [[seq[3], seq[6]] for seq in (cycles[2]["vertex_seq"], cycles[4]["vertex_seq"])]
    opened = "edges tagged {} do not form closed cycles (vertex {} has degree {} there)".format
    cases = [
        # one tag, vertex 2 (degree 3) first in edge order, vertex 1 (degree 1) least
        (pentagon_complex.matroid, ODD, opened([1, 2, 3, 4, 5], 1, 1)),
        # an edge dropped from the second and the fourth cycles: two tags fail
        (g.matroid, [e for k, e in enumerate(edges) if k not in dropped], opened([1, 2, 3, 4, 6], 11, 1)),
        # a chord across the third and the fifth cycles: degree 3 at its ends
        (g.matroid, edges + chords, opened([1, 2, 3, 5, 6], 8, 3)),
    ]
    for m, case, message in cases:
        with pytest.raises(ValueError) as raised:
            rf.CircuitGraph(m, case).cycles
        assert str(raised.value) == message == _graph_or_error(lambda: oracles.ReferenceGraph(m, case))


def test_validate_sphere_flags_non_antipodal_edges(pentagon_complex):
    # the ring with vertices 1 and 2 swapped: (0, 2) is an edge, (5, 7) is not
    order = [0, 2, 1, 3, 4, 5, 6, 7, 8, 9]
    edges = [(order[k], order[(k + 1) % 10]) for k in range(10)]
    report = rf.validate_sphere(_hand_built(pentagon_complex, edges))
    assert report.failures == ["edge set is not closed under the antipodal map"]


def test_validate_sphere_flags_disconnected_skeleton(pentagon_complex):
    # the representatives and their antipodes as two separate 5-cycles
    edges = [(k, (k + 1) % 5) for k in range(5)] + [(5 + k, 5 + (k + 1) % 5) for k in range(5)]
    report = rf.validate_sphere(_hand_built(pentagon_complex, edges))
    assert report.failures == ["1-skeleton is not connected"]


@pytest.mark.parametrize("end", [-1, 10])
def test_circuit_graph_refuses_an_edge_end_outside_its_vertices(pentagon_complex, end):
    # the pentagon's graph has ten vertices; the antipodal map (i + 5) mod 10
    # would wrap the end silently, and validate_sphere, graphs_equal and
    # the cycles would index past the rows
    edges = RING[:3] + [(0, end)] + RING[3:]
    with pytest.raises(ValueError, match=rf"^edge 3 \[0, {end}\] has an end outside range\(10\)$"):
        rf.CircuitGraph(pentagon_complex.matroid, edges)


@pytest.mark.parametrize(
    "edge, fault, listed",
    [
        pytest.param((4, 4), "is a loop", 1, id="edge0-is a loop"),
        pytest.param((2, 1), "repeats an earlier edge", 1, id="edge1-repeats an earlier edge"),
        pytest.param((2, 1), "repeats an earlier edge", 2, id="thrice-repeats an earlier edge"),
    ],
)
def test_circuit_graph_refuses_a_loop_or_a_repeated_edge(pentagon_complex, edge, fault, listed):
    # RING's edge 1 is (1, 2), so (2, 1) as edge 3 repeats it; listed
    # twice more, (1, 2) is there three times, and edge 3 is named first
    edges = RING[:3] + [edge] * listed + RING[3:]
    with pytest.raises(ValueError, match=rf"^edge 3 \[{edge[0]}, {edge[1]}\] {fault}$"):
        rf.CircuitGraph(pentagon_complex.matroid, edges)


def test_antipodal_symmetry(hexagon_complex):
    g = hexagon_complex.graph
    vertices = oracles.vertex_objects(g)
    reps = len(g.vertices) // 2
    for i, v in enumerate(vertices):
        assert vertices[(i + reps) % len(vertices)] == v.antipode()
    assert np.allclose(
        hexagon_complex.positions[reps:], -hexagon_complex.positions[:reps]
    )


@pytest.mark.parametrize(
    "eps, count",
    [(5e-10, 4), (8e-10, 5), (1e-9, 5), (2e-9, 5), (3e-9, 5), (5e-9, 5)],
)
def test_near_collinear_triple_gets_one_answer(tmp_path, eps, count):
    # points 1, 2, 3 are collinear up to eps; below the rank tolerance the
    # triple is one circuit, above it every 4-subset is a circuit
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, eps], [0.0, 1.0], [1.0, 2.0]]
    cfg = rf.PointConfiguration(np.asarray(pts), 2)
    m = rf.circuits_of_points(cfg)
    rc = rf.geometric_radon_complex(cfg)
    assert len(m.circuits) == count
    assert rc.matroid == m
    assert rf.validate_sphere(rc).ok
    assert rf.graphs_equal(rc.graph, rf.combinatorial_circuit_graph(m))

    path = tmp_path / "points.json"
    path.write_text(json.dumps({"d": 2, "points": pts}))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "sphere_report.json").read_text())
    assert report["ok"] and report["combinatorial_graph_matches"] is True


def _damaged(m):
    """m with its first circuit dropped, one reversed copy and one shrunk copy:
    every axiom then has violations."""
    cs = list(m.sorted_circuits)
    big, e = cs[-1], max(cs[-1].support)
    shrunk = rf.Circuit.make(big.pos - {e}, big.neg - {e})
    reversal = rf.Circuit(cs[1].neg, cs[1].pos)
    return rf.OrientedMatroid.from_circuits(m.ground, frozenset(cs[1:] + [reversal, shrunk]))


LADDER = [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]


@pytest.mark.parametrize("n, d", LADDER)
def test_elimination_target_is_witnessed_iff_its_negation_is(n, d):
    # check_circuit_axioms tests each pair of rows X, X' through e once: the
    # target (X' | -X) \ e is the negation of (X | -X') \ e, and a circuit
    # conforms to one iff its negation conforms to the other
    rng = np.random.default_rng([43, n, d])
    draws = [sample_spanning_points(n, d, rng), sample_degenerate_points(n, d, rng, "triple")]
    for pts in draws:
        m = rf.circuits_of_points(rf.PointConfiguration(pts.astype(float), d))
        for matroid in (m, _damaged(m)):
            signs = matroid.signs
            both = np.vstack([signs, -signs])
            rows = rf.core._pack(both)
            missed = 0
            for e in range(n):
                x = rows[both[:, e] > 0]
                i, j = np.nonzero((x[:, None] != x).any(axis=2))
                clear = rf.core._pack(np.eye(n, dtype=np.int8)[e : e + 1])
                clear = ~(clear | rf.core._negated(clear))[0]
                targets = (x[i] | rf.core._negated(x[j])) & clear
                mirrored = (x[j] | rf.core._negated(x[i])) & clear
                assert np.array_equal(mirrored, rf.core._negated(targets))
                witnessed = rf.core._conformity(rows, targets).any(axis=1)
                assert np.array_equal(witnessed, rf.core._conformity(rows, mirrored).any(axis=1))
                missed += np.count_nonzero(~witnessed)
            assert (missed > 0) == (matroid is not m)


def _modular_pairs(m):
    """core._modular_pairs of m's rows, as a set of pairs (a, b)."""
    return set(zip(*(part.tolist() for part in rf.core._modular_pairs(m.signs))))


# hand-built sign rows on 4 elements, with their number of modular pairs:
# one support on three rows with different signs, which counts once
# towards the height of a union; a support nested in two others, whose
# union has height 3; a direct sum, whose disjoint pair is modular; one
# circuit, for which the kernel yields one empty block; and rows all on
# one support, which give no pair
HAND_BUILT = {
    "one-support-three-signs": ([[1, 1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0], [0, 1, 1, 0], [1, 0, -1, 0]], 7),
    "nested-in-two": ([[1, -1, 0, 0], [1, 1, -1, 0], [1, -1, 0, 1]], 2),
    "direct-sum": ([[1, -1, 0, 0], [0, 0, 1, -1]], 1),
    "one-circuit": ([[1, -1, 1, 0]], 0),
    "one-support": ([[1, 1, -1, 0], [1, -1, 1, 0], [1, -1, -1, 0]], 0),
}


@pytest.mark.parametrize(
    "n, d, rows, pairs",
    [pytest.param(n, d, None, None, id=f"{n}-{d}") for n, d in LADDER]
    + [pytest.param(4, 2, rows, pairs, id=name) for name, (rows, pairs) in HAND_BUILT.items()],
)
def test_height_two_rule_matches_the_lattice_of_unions_on_the_ladder(n, d, rows, pairs):
    # the modular pairs against the lattice of unions, on the rungs drawn
    # uniform, with a coincident pair and with a collinear triple, and on
    # their damaged copies, whose supports nest and repeat: a nested pair
    # is listed when the larger support has height 2, an equal pair never;
    # then on the hand-built rows
    if rows is None:
        rng = np.random.default_rng([47, n, d])
        draws = [sample_spanning_points(n, d, rng)] + [
            sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
        ]
        ms = [rf.circuits_of_points(rf.PointConfiguration(pts.astype(float), d)) for pts in draws]
        matroids = [matroid for m in ms for matroid in (m, _damaged(m))]
    else:
        matroids = [rf.OrientedMatroid(rf.GroundSet(n, d), np.array(rows, np.int8))]
    for matroid in matroids:
        want = oracles.modular_pairs(matroid)
        assert _modular_pairs(matroid) == want
        assert (len(want) == pairs) if rows is not None else want
        assert len(rf.core._modular_pairs(matroid.signs)[0]) == len(want)  # each pair once


def test_modular_pairs_are_computed_once_per_matroid(hexagon_config, tmp_path, monkeypatch):
    # analyze reads the list in the closure, the axiom check and the circuit
    # graph, at_barycenters in the last two: each computes it once.  The
    # counter replaces the function in every module that could bind it.
    calls, compute = [], rf.core._modular_pairs

    def counted(signs):
        calls.append(len(signs))
        return compute(signs)

    for module in (rf.core, rf.complexes):
        monkeypatch.setattr(module, "_modular_pairs", counted, raising=False)
    cfg = tmp_path / "hexagon.json"
    cfg.write_text(json.dumps(hexagon_config.to_dict()))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    m = rf.circuits_of_points(hexagon_config)
    rf.EmbeddedSphere.at_barycenters(m)
    assert len(calls) == 2
    assert rf.check_circuit_axioms(m).ok and len(calls) == 2
    (a, b), (want_a, want_b) = m.modular_pairs, compute(m.signs)
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
    assert not a.flags.writeable and not b.flags.writeable


def test_modular_elimination_on_census_elements_with_a_circuit_dropped():
    # every (5,2) element with one circuit dropped: the height-2 rule
    # against the lattice, and the axiom report, found by modular
    # elimination or by the full listing after a modular failure, against
    # the loop oracle; dropping a circuit breaks elimination in some
    census = rf.enumerate_acyclic_oms(5, 2)
    broken = 0
    for m in census:
        for k in range(len(m.signs)):
            dropped = rf.OrientedMatroid(m.ground, np.delete(m.signs, k, axis=0))
            assert _modular_pairs(dropped) == oracles.modular_pairs(dropped)
            report = rf.check_circuit_axioms(dropped)
            assert report == oracles.check_circuit_axioms(dropped)
            broken += bool(report.weak_elimination)
    assert broken


def _assert_cycles_partition_edges(g):
    """Each edge id lies on exactly one cycle, joins two cycle neighbours
    there, and composes to the cycle's support."""
    cycles, vertices = g.cycles.tolist(), oracles.vertex_objects(g)
    assert sorted(eid for cyc in cycles for eid in cyc["edge_ids"]) == list(range(len(g.edges)))
    for cyc in cycles:
        seq = cyc["vertex_seq"]
        for k, eid in enumerate(cyc["edge_ids"]):
            a, b = g.edges[eid]
            assert {a, b} == {seq[k], seq[(k + 1) % len(seq)]}
            assert sorted(vertices[a].support | vertices[b].support) == cyc["support"]


@pytest.mark.parametrize("n, d", LADDER)
def test_cycle_walk_partitions_the_edges_on_the_ladder(n, d):
    # the geometric and the combinatorial graph of each rung, drawn uniform,
    # with a coincident pair and with a collinear triple
    rng = np.random.default_rng([45, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        rc = rf.geometric_radon_complex(rf.PointConfiguration(pts.astype(float), d))
        for g in (rc.graph, rf.combinatorial_circuit_graph(rc.matroid)):
            _assert_cycles_partition_edges(g)
            assert ascending_pairs(g.edges, len(g.vertices))


# element 5 is a coloop: four collinear points make one cycle of 8 edges
COLOOP = [[0, 0], [1, 0], [2, 0], [3, 0], [0, 5]]


def test_cycle_walk_partitions_the_coloop_edges():
    rc = rf.geometric_radon_complex(rf.PointConfiguration(np.asarray(COLOOP, float), 2))
    for g in (rc.graph, rf.combinatorial_circuit_graph(rc.matroid)):
        _assert_cycles_partition_edges(g)
        assert g.cycles.fields["edge_ids"].lengths.tolist() == [8]


# five points in R^3: one circuit, its two orientations, no edge (a 0-sphere)
FIVE3 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


def test_one_circuit_graph_has_an_empty_edge_array():
    rc = rf.geometric_radon_complex(rf.PointConfiguration(np.asarray(FIVE3, float), 3))
    assert len(rc.matroid.circuits) == 1 and rf.validate_sphere(rc).ok
    for g in (rc.graph, rf.combinatorial_circuit_graph(rc.matroid)):
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.intp
        assert _plain(g.payload())["edges"] == [] and g.cycles.tolist() == []


def _spied_walks(monkeypatch):
    """The edge counts of the graphs whose cycles are walked from now on."""
    walks, walk = [], rf.complexes._partition_edges_into_cycles

    def spy(rows, first, second):
        walks.append(len(first))
        return walk(rows, first, second)

    monkeypatch.setattr(rf.complexes, "_partition_edges_into_cycles", spy)
    return walks


def test_analyze_walks_the_cycles_once_and_flow_once_per_rep(monkeypatch, tmp_path):
    # analyze writes the geometric graph's cycles and compares the
    # combinatorial graph by vertices and edges only; each flow rep walks
    # the cycles of its own sphere's graph
    walks = _spied_walks(monkeypatch)
    hexagon = [[0, 0], [4, 1], [6, 4], [5, 7], [1, 6], [-1, 3]]
    rng = np.random.default_rng([46, 10, 4])
    ten = sample_degenerate_points(10, 4, rng, "triple").tolist()
    for points, d in ((hexagon, 2), (COLOOP, 2), (ten, 4)):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"d": d, "points": points}))
        del walks[:]
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        edges = json.loads((tmp_path / "out" / "radon_complex.json").read_text())["edges"]
        assert walks == [len(edges)]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"d": 2, "points": hexagon, "repetitions": 3}))
    del walks[:]
    assert main(["flow", "--config", str(path), "--seed", "11", "--out", str(tmp_path / "flow")]) == 0
    assert walks == [60, 60, 60]


def _counted_constructions(monkeypatch, cls):
    """A list whose length is the number of cls objects made from now on."""
    built, init = [], cls.__post_init__

    def counted(self):
        built.append(None)
        init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_analyze_and_flow_build_no_circuit_objects(monkeypatch, tmp_path):
    # on the README hexagon every layer reads the matroid's and the graph's
    # sign rows, and the vertex and facet tables hold arrays: no Circuit is made
    built = _counted_constructions(monkeypatch, rf.Circuit)
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps({"d": 2, "points": [[0, 0], [4, 1], [6, 4], [5, 7], [1, 6], [-1, 3]]}))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "analyze")]) == 0
    assert main(["flow", "--config", str(path), "--seed", "11", "--out", str(tmp_path / "flow")]) == 0
    rc = rf.geometric_radon_complex(rf.PointConfiguration.from_dict(json.loads(path.read_text())))
    assert (len(rc.graph.vertices), len(rc.facets)) == (30, 32)
    assert len(built) == 0
    # the count sees the objects the matroid's lazy circuit view makes
    assert len(rc.matroid.circuits) == 15
    assert len(built) == 15


# perfbench/tracing.py counts a traced op's vertices, edges, cells and
# circuits as len(rc.graph.vertices), len(rc.graph.edges), len(rc.facets)
# and len(m.circuits): each must stay the number of rows it stands for
@pytest.mark.parametrize(
    "config",
    [rf.PointConfiguration(np.asarray(HEXAGON), 2), _sample_spanning_points(9, 4, np.random.default_rng([1, 0]))],
    ids=["hexagon", "ladder-draw-9-4"],
)
def test_the_lengths_the_benchmark_tracer_reads(config):
    rc = rf.geometric_radon_complex(config)
    g, m = rc.graph, rc.matroid
    assert len(g.vertices) == len(g.signs) == 2 * len(m.signs)
    assert len(g.edges) == g.edges.shape[0] and g.edges.shape[1:] == (2,)
    assert len(rc.facets) == len(rc.facets.fields["dim"]) == len(rc.facets.fields["vertices"]) > 0
    assert len(m.circuits) == len(m.signs)


def test_analyze_writes_the_vertex_and_facet_tables_it_holds(monkeypatch, tmp_path, hexagon_config):
    # radon_complex.json's vertices and facets are written from the very
    # tables rc.graph.vertices and rc.facets, not from copies
    made, written = [], {}
    build = rf.cli.geometric_radon_complex
    monkeypatch.setattr(rf.cli, "geometric_radon_complex", lambda config: made.append(build(config)) or made[-1])
    monkeypatch.setattr(rf.cli, "_write_json", lambda path, payload: written.update({path.name: payload}))
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(hexagon_config.to_dict()))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    (rc,) = made
    assert written["radon_complex.json"]["vertices"] is rc.graph.vertices
    assert written["radon_complex.json"]["facets"] is rc.facets


def test_geometric_radon_complex_builds_one_circuit_graph(monkeypatch, hexagon_config):
    # the closure reads the circuit graph's edges off the matroid, not off a
    # graph of its own: the complex's graph is the only one built
    built = _counted_constructions(monkeypatch, rf.CircuitGraph)
    rf.geometric_radon_complex(hexagon_config)
    assert len(built) == 1


def test_vertex_sign_is_that_of_its_smallest_element():
    # a vertex is written and viewed as its circuit, smallest element
    # positive, with the vertex's sign there: a row stored with its smallest
    # element negative reads as sign -1, whatever its place in the graph
    m = rf.OrientedMatroid(rf.GroundSet(4, 1), np.array([[-1, 1, 0, 1]], np.int8))
    g = rf.CircuitGraph(m, [])
    circuit = {"pos": [1], "neg": [2, 4]}
    assert _plain(g.payload())["vertices"] == [{**circuit, "sign": -1}, {**circuit, "sign": 1}]
    assert g.payload()["vertices"] is g.vertices
    assert [g.vertex_text(i) for i in range(2)] == ["-{1}|{2,4}", "+{1}|{2,4}"]
    c = rf.Circuit.make({1}, {2, 4})
    vertices = oracles.vertex_objects(g)
    assert vertices == (oracles.SignedCircuitVertex(c, -1), oracles.SignedCircuitVertex(c, 1))
    assert vertices[0].pos == {2, 4} and vertices[0].neg == {1}


def _assert_row_built_graphs_equal_object_built(cfg):
    """Both graphs of cfg, built from sign rows, equal ReferenceGraphs of the
    same edges built from vertex objects (the package's earlier
    _ordered_vertices of the sorted circuits): the same written dict, the
    same cycles, vertex sequences included, the same vertex objects and
    the same sign rows."""
    rc = rf.geometric_radon_complex(cfg)
    for g in (rc.graph, rf.combinatorial_circuit_graph(rc.matroid)):
        ref = oracles.ReferenceGraph(rc.matroid, g.edges)
        assert _plain(g.payload()) == _plain(ref.payload())
        assert g.cycles.tolist() == ref.cycles.tolist()
        assert oracles.vertex_objects(g) == ref.vertices
        assert np.array_equal(g.signs, ref.signs)


@pytest.mark.parametrize("n, d", LADDER)
def test_row_built_graphs_equal_object_built_on_the_ladder(n, d):
    # each rung drawn uniform, with a coincident pair and with a collinear triple
    rng = np.random.default_rng([47, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        _assert_row_built_graphs_equal_object_built(rf.PointConfiguration(pts.astype(float), d))


def test_row_built_graphs_equal_object_built_on_the_direct_sum_and_the_coloop():
    for points in (DIRECT_SUM, COLOOP):
        _assert_row_built_graphs_equal_object_built(rf.PointConfiguration(np.asarray(points, float), 2))


def _assert_sphere_from_points_is_the_complexs(cfg):
    """EmbeddedSphere.from_points(cfg) holds the sign rows, the edge array
    and the positions of geometric_radon_complex(cfg), and the flow's field
    reads the rows the per-vertex cycle_pairs give, in their order."""
    rc, s = rf.geometric_radon_complex(cfg), rf.EmbeddedSphere.from_points(cfg)
    assert np.array_equal(s.graph.signs, rc.graph.signs) and s.matroid == rc.matroid
    assert s.graph.edges.dtype == rc.graph.edges.dtype
    assert np.array_equal(s.graph.edges, rc.graph.edges)
    assert np.array_equal(s.positions_all(), rc.positions)
    field = _Field(s)
    rows = [(v, a, b) for v, pairs in enumerate(cycle_pairs(s.graph)[: s.n_reps]) for a, b in pairs]
    assert [tuple(r) for r in zip(field.v_idx, field.a_idx, field.b_idx)] == rows


@pytest.mark.parametrize("n, d", LADDER)
def test_sphere_from_points_is_the_complexs_on_the_ladder(n, d):
    # each rung drawn uniform, with a coincident pair and with a collinear triple
    rng = np.random.default_rng([48, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        _assert_sphere_from_points_is_the_complexs(rf.PointConfiguration(pts.astype(float), d))


def test_sphere_from_points_is_the_complexs_on_the_fixtures(pentagon_config, hexagon_config):
    for cfg in (pentagon_config, hexagon_config, rf.PointConfiguration(np.asarray(DIRECT_SUM, float), 2)):
        _assert_sphere_from_points_is_the_complexs(cfg)


def test_field_rows_on_the_one_circuit_graph_and_a_graph_of_many_cycles(hexagon_config):
    # the one-circuit graph has no cycle, so the field has no row; the
    # hexagon's 2-sphere has six cycles, several through each vertex
    for points, d, cycles in ((FIVE3, 3, 0), (hexagon_config.points, 2, 6)):
        s = rf.EmbeddedSphere.from_points(rf.PointConfiguration(np.asarray(points, float), d))
        assert len(s.graph.cycles.fields["vertex_seq"]) == cycles
        field = _Field(s)
        rows = [(v, a, b) for v, pairs in enumerate(cycle_pairs(s.graph)[: s.n_reps]) for a, b in pairs]
        assert list(zip(field.v_idx.tolist(), field.a_idx.tolist(), field.b_idx.tolist())) == rows
        assert len(rows) == len(s.graph.edges) // 2  # each edge on one cycle, half at representatives


def test_combinatorial_graph_walks_its_cycles_on_first_read(monkeypatch, hexagon_config):
    walks = _spied_walks(monkeypatch)
    m = rf.circuits_of_points(hexagon_config)
    rc = rf.geometric_radon_complex(hexagon_config)

    def field(g):  # the flow's field reads the cycles too
        return _Field(rf.EmbeddedSphere(g, rc.positions[: len(m.signs)]))

    reads = (lambda g: g.cycles, field, lambda g: _plain(g.payload()))
    for read in reads:
        g = rf.combinatorial_circuit_graph(m)
        assert rf.graphs_equal(g, rc.graph) and rf.validate_sphere(rc).ok
        assert walks == []
        read(g)
        assert walks == [60]
        for again in reads:  # the walk is kept: no second one
            again(g)
        assert walks == [60]
        del walks[:]


def _graph_or_error(build):
    try:
        return _plain(build().payload())
    except ValueError as exc:  # the edges of a malformed matroid need not close
        return str(exc)


@pytest.mark.parametrize(
    "n, d", [(5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3)]
)
def test_conformance_kernel_matches_loop_references(n, d):
    rng = np.random.default_rng([41, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        cfg = rf.PointConfiguration(pts.astype(float), d)
        rc, ref = rf.geometric_radon_complex(cfg), oracles.radon_complex(cfg)
        assert _plain(rc.graph.payload()) == _plain(ref.graph.payload())
        assert oracles.facet_cells(rc) == ref.facets
        assert np.array_equal(rc.positions, ref.positions)
        m = rc.matroid
        got, want = rf.combinatorial_circuit_graph(m), oracles.circuit_graph(m)
        assert _plain(got.payload()) == _plain(want.payload())
        assert rf.check_circuit_axioms(m) == oracles.check_circuit_axioms(m)
        bad = _damaged(m)
        report = rf.check_circuit_axioms(bad)
        assert report.support_minimality and report.canonicalization
        assert report.weak_elimination
        assert report == oracles.check_circuit_axioms(bad)
        # off the domain the two rules part: the modular one is the package's
        assert _graph_or_error(
            lambda: rf.CircuitGraph(bad, rf.complexes._circuit_edges(bad))
        ) == _graph_or_error(lambda: oracles.modular_graph(bad))
        with pytest.raises(ValueError, match="circuit axioms fail"):
            rf.combinatorial_circuit_graph(bad)


def test_adjacency_rule_off_its_domain_reads_the_lattice_of_unions():
    # X = {1}|{2} and Y = {3}|{4} nest inside Z = {1,3}|{2,4}: the set fails
    # minimality, so it lies outside the adjacency rule's domain and
    # combinatorial_circuit_graph refuses it.  The rule still reads the
    # lattice: {1,2,3,4} has height 2, so the three are pairwise modular and
    # every conformal signed pair is an edge, Z conforming to X o Y or not
    x, y = rf.Circuit.make({1}, {2}), rf.Circuit.make({3}, {4})
    z = rf.Circuit.make({1, 3}, {2, 4})
    m = rf.OrientedMatroid.from_circuits(rf.GroundSet(4, 2), frozenset({x, y, z}))
    assert _modular_pairs(m) == oracles.modular_pairs(m) == {(0, 1), (0, 2), (1, 2)}
    edges = rf.CircuitGraph(m, rf.complexes._circuit_edges(m)).edges.tolist()
    assert edges == oracles.modular_graph(m).edges.tolist() and len(edges) == 8
    with pytest.raises(ValueError, match="circuit axioms fail"):
        rf.combinatorial_circuit_graph(m)


@pytest.mark.parametrize("n, d", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 4)])
def test_modular_rule_matches_the_count_rule_on_census_elements(n, d):
    # every element of the shape: the edges of the modular pairs are those
    # of the count rule, and the modular rule's own loop version
    for m in rf.enumerate_acyclic_oms(n, d):
        g = rf.CircuitGraph(m, rf.complexes._circuit_edges(m))
        assert rf.graphs_equal(g, oracles.circuit_graph(m))
        assert g.edges.tolist() == oracles.modular_graph(m).edges.tolist()


def test_graph_comparison_sees_an_edge_the_rule_drops(monkeypatch, hexagon_config):
    # analyze's graphs_equal compares two independent graphs: the closure's
    # first step composes every conformal pair, so the 1-cells read off
    # point minors keep an edge the rule drops, and the graphs differ
    m = rf.circuits_of_points(hexagon_config)

    def compared():
        geometric = rf.geometric_radon_complex(hexagon_config).graph
        return rf.graphs_equal(geometric, rf.CircuitGraph(m, rf.complexes._circuit_edges(m)))

    assert compared()
    rule = rf.complexes._circuit_edges
    monkeypatch.setattr(rf.complexes, "_circuit_edges", lambda m: rule(m)[1:])
    assert not compared()


def test_circuit_graph_on_ground_sets_wider_than_64(pentagon_config):
    m = rf.circuits_of_points(pentagon_config)
    shift = 65  # elements 66..70 of 70, past two 32-element words
    wide = widened(m, 70, shift)
    g, g_wide = rf.combinatorial_circuit_graph(m), rf.combinatorial_circuit_graph(wide)
    assert [(v.pos, v.neg) for v in oracles.vertex_objects(g_wide)] == [
        ({e + shift for e in v.pos}, {e + shift for e in v.neg}) for v in oracles.vertex_objects(g)
    ]
    assert np.array_equal(g_wide.edges, g.edges) and len(g.edges) == 10
    wide_cycles, cycles = g_wide.cycles.fields, g.cycles.fields
    assert wide_cycles["support"].tolist() == [[e + shift for e in c] for c in cycles["support"].tolist()]
    assert wide_cycles["edge_ids"].tolist() == cycles["edge_ids"].tolist()
    assert _plain(g_wide.payload()) == _plain(oracles.circuit_graph(wide).payload())


@pytest.mark.parametrize("shift", [0, 29, 61, 65])
def test_cycle_order_matches_int_mask_reference_across_words(hexagon_config, shift):
    # the hexagon's 2-sphere has one cycle per 5-subset; shifts 29 and 61
    # spread their supports over two 32-element words of a sign row
    wide = widened(rf.circuits_of_points(hexagon_config), 72, shift)
    g = rf.combinatorial_circuit_graph(wide)
    assert len(g.cycles.fields["support"]) == 6
    assert _plain(g.payload()) == _plain(oracles.circuit_graph(wide).payload())


@pytest.mark.parametrize("block_words", [1, 40, 200])
def test_kernel_callers_split_across_blocks(monkeypatch, pentagon_config, block_words):
    # every caller of the conformance kernel, and the join that finds the
    # poset's covers, gives the default's answer when its inputs are cut
    # into many small blocks
    rng = np.random.default_rng([84, 8, 2])
    configs = [
        rf.PointConfiguration(sample_degenerate_points(8, 2, rng, kind).astype(float), 2)
        for kind in ("pair", "triple")
    ] + [rf.PointConfiguration(sample_spanning_points(8, 2, rng).astype(float), 2)]
    matroids = [rf.circuits_of_points(cfg) for cfg in configs]
    wide = widened(rf.circuits_of_points(pentagon_config), 70, 65)  # three-word sign rows
    chain = frozenset(rf.Circuit.make({i, i + 2}, {i + 1}) for i in range(1, 69))
    broken = [_damaged(m) for m in matroids + [wide]]
    broken.append(rf.OrientedMatroid.from_circuits(rf.GroundSet(70, 1), chain))  # past the cap
    # the star {1}|{k}: every pair of its 20 circuits fails to eliminate 1,
    # 380 failures, all at one element; in blocks of one X row, the
    # mirrored failure (X', -X) turns up in X's block, before its own
    star = frozenset(rf.Circuit.make({1}, {k}) for k in range(2, 22))
    broken.append(rf.OrientedMatroid.from_circuits(rf.GroundSet(21, 1), star))
    census = rf.enumerate_acyclic_oms(5, 1)

    def answers():
        rcs = [rf.geometric_radon_complex(cfg) for cfg in configs]
        poset = rf.MatroidPoset.from_elements(census)
        return (
            [rf.check_circuit_axioms(m) for m in broken],
            [
                _graph_or_error(lambda: rf.CircuitGraph(m, rf.complexes._circuit_edges(m)))
                for m in matroids + [wide] + broken
            ],
            [(_plain(rc.graph.payload()), rc.facets.tolist(), rc.positions.tolist()) for rc in rcs],
            poset.pairs.tolist(),
            poset.hasse_pairs().tolist(),
        )

    want = answers()
    assert want[0][-1].elimination_truncated and want[0][-2].elimination_truncated
    assert want[0][0].weak_elimination
    assert want[0] == [oracles.check_circuit_axioms(m) for m in broken]
    assert max(len(g["vertices"]) for g, _, _ in want[2]) > 128  # bitsets of three words
    monkeypatch.setattr(rf.core, "_BLOCK_WORDS", block_words)
    assert answers() == want
    # the join cuts its chains at 8 * _BLOCK_WORDS: count the blocks it takes
    poset, blocks = rf.MatroidPoset.from_elements(census), []
    find = rf.macphersonian._find
    monkeypatch.setattr(rf.macphersonian, "_find", lambda keys, queries: blocks.append(len(queries)) or find(keys, queries))
    assert poset.hasse_pairs().tolist() == want[4] and len(blocks) > 1


@pytest.mark.parametrize("n, d", [(9, 4), (10, 4), (10, 5)])
def test_geometric_complex_matches_the_oracle_at_the_top_rungs(n, d):
    # the analyze ladder's top rungs, drawn uniform, with a coincident pair
    # and with a collinear triple
    rng = np.random.default_rng([41, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        cfg = rf.PointConfiguration(pts.astype(float), d)
        rc, ref = rf.geometric_radon_complex(cfg), oracles.radon_complex(cfg)
        assert _plain(rc.graph.payload()) == _plain(ref.graph.payload())
        assert oracles.facet_cells(rc) == ref.facets
        assert np.array_equal(rc.positions, ref.positions)
        assert rc.euler_characteristic() == ref.euler_characteristic() == 1 + (-1) ** (n - d - 2)


def _vertex_rows(m):
    """The kernel rows of m's circuit graph: m's sign rows, then their negations."""
    return rf.core._pack(np.concatenate([m.signs, -m.signs]))


def assert_dims_by_bases(cfg):
    """The cell dimensions read off the bases equal the per-support SVD
    rule on every support the closure realizes."""
    m = rf.circuits_of_points(cfg)
    closure = rf.complexes._composition_closure(_vertex_rows(m), rf.complexes._circuit_edges(m))
    supports, _ = rf.core._supports(closure, cfg.n)
    want = oracles.support_dims(cfg.lifted_matrix(), supports)
    assert np.array_equal(rf.complexes._dependence_dims(cfg, supports), want)


@pytest.mark.parametrize("n, d", [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)])
def test_cell_dimensions_by_bases_on_the_ladder(n, d):
    rng = np.random.default_rng([44, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        assert_dims_by_bases(rf.PointConfiguration(pts.astype(float), d))


def test_cell_dimensions_by_bases_near_collinear_and_direct_sum():
    for eps in NEAR_COLLINEAR_EPS:
        assert_dims_by_bases(near_collinear(eps))
    assert_dims_by_bases(rf.PointConfiguration(np.asarray(DIRECT_SUM, float), 2))


def _eight_two():
    rng = np.random.default_rng([42, 8, 2])
    return rf.PointConfiguration(sample_spanning_points(8, 2, rng).astype(float), 2)


def test_facet_listing_matches_the_oracle(hexagon_config):
    for cfg in (hexagon_config, _eight_two()):
        rc, ref = rf.geometric_radon_complex(cfg), oracles.radon_complex(cfg)
        assert oracles.facet_cells(rc) == ref.facets
        assert rc.euler_characteristic() == ref.euler_characteristic() == 2
        # the arrays behind rc.facets: dims, then ascending vertex lists
        assert rc.facets.fields["dim"].tolist() == [cell.dim for cell in ref.facets]
        assert rc.facets.fields["vertices"].tolist() == [sorted(cell.vertices) for cell in ref.facets]


def _relabeled(g, rng):
    """g with its edges listed in another order and each edge's ends
    swapped at random."""
    edges = [(int(j), int(i)) if rng.random() < 0.5 else (int(i), int(j)) for i, j in g.edges]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    return rf.CircuitGraph(g.matroid, edges)


def test_graphs_equal_ignores_edge_labels(hexagon_complex):
    rng = np.random.default_rng(43)
    rc8 = rf.geometric_radon_complex(_eight_two())
    for g in (hexagon_complex.graph, rc8.graph):
        other, again = _relabeled(g, rng), _relabeled(g, rng)
        # a graph stores its edges as [i, j], i < j, rows ascending
        assert np.array_equal(other.edges, g.edges) and np.array_equal(again.edges, g.edges)
        assert rf.graphs_equal(g, other) and rf.graphs_equal(other, g)
        assert rf.graphs_equal(other, again)


def test_graphs_equal_sees_one_flipped_vertex_or_one_moved_edge(hexagon_complex):
    g = hexagon_complex.graph
    reps = len(g.vertices) // 2
    # vertex 3 flipped, its circuit reoriented: another matroid
    signs = g.matroid.signs.copy()
    signs[3] *= -1
    flipped = rf.OrientedMatroid(g.matroid.ground, signs)
    assert not rf.graphs_equal(g, rf.CircuitGraph(flipped, g.edges))
    # vertex 3 and its antipode trade places in the edges: the edges at
    # vertex 3 now meet its antipode
    swap = np.arange(2 * reps)
    swap[[3, 3 + reps]] = swap[[3 + reps, 3]]
    assert not rf.graphs_equal(g, rf.CircuitGraph(g.matroid, swap[g.edges]))
    # one edge moved to a pair of vertices that is not an edge
    edges = g.edges.tolist()
    i, j = edges[0]
    k = next(k for k in range(len(g.vertices)) if k not in (i, j)
             and [min(i, k), max(i, k)] not in edges)
    moved = [[min(i, k), max(i, k)]] + edges[1:]
    assert not rf.graphs_equal(g, rf.CircuitGraph(g.matroid, moved))
    assert rf.graphs_equal(g, rf.CircuitGraph(g.matroid, g.edges))


def _closure_equals_oracle(m):
    """The closure of m's vertex rows equals the all-pairs one; the
    closure's rows, for further checks."""
    rows = _vertex_rows(m)
    closure = rf.complexes._composition_closure(rows, rf.complexes._circuit_edges(m))
    assert np.array_equal(closure, oracles.composition_closure(rows))
    return closure


@pytest.mark.parametrize(
    "n, d", [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]
)
def test_closure_matches_the_all_pairs_oracle_on_the_ladder(n, d):
    # the analyze ladder's rungs, drawn uniform, with a coincident pair and
    # with a collinear triple: a cell the neighbour rule missed is missing here
    rng = np.random.default_rng([43, n, d])
    draws = [sample_spanning_points(n, d, rng)] + [
        sample_degenerate_points(n, d, rng, kind) for kind in ("pair", "triple")
    ]
    for pts in draws:
        m = rf.circuits_of_points(rf.PointConfiguration(pts.astype(float), d))
        assert len(_closure_equals_oracle(m)) > 2 * len(m.signs)


@pytest.mark.parametrize(
    "points, d, circuits, realized",
    [
        # n = d + 2: one circuit, two antipodal vertices, no edge to grow along
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3, 1, 2),
        # element 5 is a coloop: four collinear points make one cycle of 8 edges
        ([[0, 0], [1, 0], [2, 0], [3, 0], [0, 5]], 2, 4, 16),
        # three coincident points: three 2-element circuits, a hexagon
        ([[0, 0], [0, 0], [0, 0], [4, 1], [1, 6]], 2, 3, 12),
    ],
)
def test_closure_matches_the_oracle_on_small_degenerate_shapes(points, d, circuits, realized):
    m = rf.circuits_of_points(rf.PointConfiguration(np.asarray(points, float), d))
    assert len(m.circuits) == circuits
    assert len(_closure_equals_oracle(m)) == realized


@pytest.mark.parametrize("n, d, step", [(4, 2, 1), (5, 3, 1), (6, 4, 1), (5, 2, 7)])
def test_closure_matches_the_oracle_on_census_elements(n, d, step):
    # every element at (4,2), (5,3) and (6,4), and every 7th of the 842 at (5,2)
    elements = rf.enumerate_acyclic_oms(n, d)[::step]
    for m in elements:
        _closure_equals_oracle(m)
    assert len(elements) == {(4, 2): 25, (5, 3): 90, (6, 4): 301, (5, 2): 121}[n, d]


# the ladder's draws on default_rng([1, 0]), as the CLI samples points
CELL_COUNT_DRAWS = [(7, 2), (8, 3), (9, 4), (10, 4)]
PAIR83 = [[0, 0, 0], [4, 0, 0], [0, 5, 0], [0, 0, 6], [3, 3, 3], [-2, 1, 4], [1, -3, 2], [4, 0, 0]]


def _drawn(n, d):
    return _sample_spanning_points(n, d, np.random.default_rng([1, 0]))


def _cells_by_support(rc):
    """rc's cells as {(support mask, dimension): count}: vertices, edges and
    facets, each cell's support the union of its vertices'."""
    support = [oracles.mask_of(v.support) for v in oracles.vertex_objects(rc.graph)]
    cells = Counter((mask, 0) for mask in support)
    cells.update((support[i] | support[j], 1) for i, j in rc.graph.edges.tolist())
    for facet in rc.facets.tolist():
        cells[functools.reduce(operator.or_, (support[v] for v in facet["vertices"])), facet["dim"]] += 1
    return dict(cells)


@pytest.mark.parametrize(
    "config",
    [
        rf.PointConfiguration(np.asarray(HEXAGON), 2),
        rf.PointConfiguration(np.asarray(DIRECT_SUM, float), 2),
        rf.PointConfiguration(np.asarray(COLOOP, float), 2),
        rf.PointConfiguration(np.asarray(PAIR83, float), 3),
    ]
    + [_drawn(n, d) for n, d in CELL_COUNT_DRAWS],
    ids=["hexagon", "direct sum", "coloop", "pair83"] + [f"({n},{d})" for n, d in CELL_COUNT_DRAWS],
)
def test_cells_per_support_are_the_rank_functions_count(config):
    assert _cells_by_support(rf.geometric_radon_complex(config)) == oracles.cells_per_support(config)


def test_cells_per_support_see_cells_that_keep_the_euler_characteristic():
    # two 2-cells and two 3-cells of the (8,3) draw dropped: chi, the
    # degrees, the antipodal edges and the 1-skeleton are unchanged, so
    # validate_sphere passes the complex; the count per support does not
    config = _drawn(8, 3)
    rc = rf.geometric_radon_complex(config)
    dims, vertices = rc.facets.fields["dim"], rc.facets.fields["vertices"]
    dropped = np.concatenate([np.flatnonzero(dims == 2)[:2], np.flatnonzero(dims == 3)[:2]])
    keep = np.setdiff1d(np.arange(len(dims)), dropped)
    mutant = rf.RadonComplex(rc.graph, rc.positions, RecordTable({"dim": dims[keep], "vertices": vertices.take(keep)}))
    assert (len(dims), len(keep)) == (480, 476)
    assert mutant.euler_characteristic() == rc.euler_characteristic() and rf.validate_sphere(mutant).ok
    assert _cells_by_support(mutant) != oracles.cells_per_support(config)

"""Radon complexes and circuit graphs.

For a configuration of n points spanning R^d, the affine dependences form
the kernel of the lifted (d+1) x n matrix, a subspace V of dimension
n - d - 1 inside the zero-sum hyperplane.  Intersecting V with the ambient
polytope { x in R^n : sum_i |x_i| = 2, sum_i x_i = 0 }, whose faces are
labeled by sign patterns, yields a polyhedral (n-d-2)-sphere, the Radon
complex: its cells correspond to the sign vectors realized by vectors of V,
its vertices to the minimal-support (elementary) ones, which are exactly
the signed circuits of the configuration.

The same 1-skeleton can be built from the circuit list alone: two signed
circuits X, Y are adjacent iff they conform (no element receives opposite
signs), X != +-Y, and no third circuit conforms to the composition X o Y.
Edges group into closed cycles by the support of that composition, one
cycle per two-dimensional coordinate subspace of V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS_MEM,
    Circuit,
    GroundSet,
    OrientedMatroid,
    PointConfiguration,
    SignedCircuitVertex,
    check_circuit_axioms,
    circuit_dependences,
    _conforming,
    _negated,
    _pack,
    _pairs,
    _rank,
    _signs,
    _supports,
    _unique_rows,
)


class GammaMembershipError(ValueError):
    """Point violates a defining equation of the ambient polytope."""


class DegeneratePointError(ValueError):
    """Vector is too close to zero to be normalized onto the polytope."""


def project_to_gamma(x: np.ndarray) -> np.ndarray:
    """Radially rescale a zero-sum vector onto the polytope: x -> 2x / sum|x_i|.

    Raises DegeneratePointError when the 1-norm is below EPS_MEM and
    GammaMembershipError when the coordinate sum is not zero.
    """
    x = np.asarray(x, dtype=float)
    total = float(np.abs(x).sum())
    if total < EPS_MEM:
        raise DegeneratePointError("cannot normalize a near-zero vector")
    if abs(float(x.sum())) > EPS_MEM * max(1.0, total):
        raise GammaMembershipError("coordinate sum must vanish before rescaling")
    return 2.0 * x / total


@dataclass(frozen=True)
class Cycle:
    """A closed cycle of the circuit graph, tagged with its support set.

    vertex_seq lists the vertex indices in cyclic order (first not repeated);
    edge_ids[i] joins vertex_seq[i] to vertex_seq[(i+1) % len].
    """

    support: frozenset[int]
    vertex_seq: tuple[int, ...]
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """A filled cell of dimension >= 2, given by the vertices on its closure."""

    dim: int
    vertices: frozenset[int]


@dataclass
class CircuitGraph:
    """Vertices (signed circuits), edges, and the cycle partition of the edges."""

    vertices: tuple[SignedCircuitVertex, ...]
    edges: tuple[tuple[int, int], ...]
    cycles: tuple[Cycle, ...]
    _adjacency: list[list[int]] = field(init=False, repr=False)
    cycle_pairs: list[list[tuple[int, int]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._adjacency = [[] for _ in self.vertices]
        for i, j in self.edges:
            self._adjacency[i].append(j)
            self._adjacency[j].append(i)
        # per vertex, its two neighbors on each cycle through it, in cycle order
        self.cycle_pairs = [[] for _ in self.vertices]
        for cyc in self.cycles:
            seq = cyc.vertex_seq
            size = len(seq)
            for k, v in enumerate(seq):
                self.cycle_pairs[v].append((seq[k - 1], seq[(k + 1) % size]))

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "pos": sorted(v.circuit.pos),
                    "neg": sorted(v.circuit.neg),
                    "sign": v.orientation,
                }
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
            "cycles": [
                {"support": sorted(c.support), "edge_ids": list(c.edge_ids)}
                for c in self.cycles
            ],
        }


@dataclass
class RadonComplex:
    """A circuit graph plus its filled higher cells and natural coordinates.

    positions holds one row per graph vertex, antipodal rows negated.
    """

    graph: CircuitGraph
    facets: tuple[Cell, ...]
    n: int
    d: int
    positions: np.ndarray

    def euler_characteristic(self) -> int:
        chi = len(self.graph.vertices) - len(self.graph.edges)
        for cell in self.facets:
            chi += (-1) ** cell.dim
        return chi


def _ordered_vertices(circuits: list[Circuit]) -> tuple[SignedCircuitVertex, ...]:
    """Positive orientations first, antipodes mirrored after; index i <-> i + R."""
    reps = [SignedCircuitVertex(c, 1) for c in circuits]
    return tuple(reps + [v.antipode() for v in reps])


def _partition_edges_into_cycles(
    edges: list[tuple[int, int]], vertices: tuple[SignedCircuitVertex, ...]
) -> tuple[Cycle, ...]:
    """Group edges by the support of the composed sign vector and walk cycles.

    Tags are taken in order of their elements sorted from the largest down.
    Within one support tag every incident vertex must have exactly two
    incident edges; each connected component is then a closed cycle, walked
    from its smallest vertex towards its smaller (neighbor, edge) first.
    """
    supports = [v.support for v in vertices]
    groups: dict[frozenset[int], list[int]] = {}
    for eid, (i, j) in enumerate(edges):
        groups.setdefault(supports[i] | supports[j], []).append(eid)
    cycles = []
    for tag in sorted(groups, key=lambda t: sorted(t, reverse=True)):
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in groups[tag]:
            i, j = edges[eid]
            adj.setdefault(i, []).append((j, eid))
            adj.setdefault(j, []).append((i, eid))
        bad = [v for v, nb in adj.items() if len(nb) != 2]
        if bad:
            raise ValueError(
                f"edges tagged {sorted(tag)} do not form closed cycles "
                f"(vertex {bad[0]} has degree {len(adj[bad[0]])} there)"
            )
        walked: set[int] = set()
        for start in sorted(adj):
            if start in walked:
                continue
            seq, eids = [start], []
            w, eid = min(adj[start])
            while True:
                eids.append(eid)
                if w == start:
                    break
                seq.append(w)
                w, eid = next(t for t in adj[w] if t[1] != eid)
            walked.update(seq)
            cycles.append(
                Cycle(support=tag, vertex_seq=tuple(seq), edge_ids=tuple(eids))
            )
    return tuple(cycles)


def _composition_closure(rows: np.ndarray) -> np.ndarray:
    """The distinct sign-vector rows closed under conformal composition.

    Frontier by frontier: every conformal (frontier row, row) pair is
    composed, each kernel block's compositions are deduplicated as they come
    (so memory stays bounded), one np.unique over packed keys merges them
    with everything seen, and the rows new in that frontier form the next.
    """
    seen, _ = _unique_rows(rows)
    frontier = seen
    while len(frontier):
        composed = [
            _unique_rows(frontier[start + f] | rows[c])[0]
            for start, block in _conforming(rows, ~_negated(frontier))
            for f, c in [_pairs(block)]
        ]
        grown, which = _unique_rows(np.concatenate([seen] + composed))
        fresh = np.ones(len(grown), bool)
        fresh[which[: len(seen)]] = False
        seen, frontier = grown, grown[fresh]
    return seen


def _support_dims(lifted: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Dimension of the dependences supported on each row of a bool matrix."""
    sizes = supports.sum(axis=1)
    dims = np.zeros(len(supports), int)
    for size in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == size)
        idx = np.nonzero(supports[at])[1].reshape(len(at), size)
        s = np.linalg.svd(lifted[:, idx].transpose(1, 0, 2), compute_uv=False)
        dims[at] = size - _rank(s)
    return dims


def geometric_radon_complex(config: PointConfiguration) -> RadonComplex:
    """Build the Radon complex of a spanning point configuration.

    Vertices are the circuits of circuit_dependences, where the rank rule
    (core._rank) alone decides which supports are circuits; each is placed
    on the polytope by radially normalizing its dependence vector.  A sign
    vector is realized iff the circuits conforming to it cover its support,
    and the cell it labels has dimension dim(V restricted to the support)
    minus one, by the same rule (one stacked SVD per support size).

    The realized sign vectors are the closure of the signed circuits under
    conformal composition, built frontier by frontier: each frontier is
    composed with every circuit conformal to it, and one np.unique over
    packed sign-row keys drops what was seen before.  One conformance-kernel
    pass then lists the circuits conforming to each realized vector: two
    for an edge, the closure of a facet otherwise.
    """
    dependences = circuit_dependences(config)
    n, d = config.n, config.d
    circuits = sorted(dependences, key=Circuit.sort_key)
    vertices = _ordered_vertices(circuits)
    placed = [project_to_gamma(dependences[c]) for c in circuits]
    positions = np.array(placed + [-x for x in placed])

    rows = _pack(_signs(vertices, n))
    realized = _composition_closure(rows)
    supports, which = _supports(realized, n)
    cell_dims = _support_dims(config.lifted_matrix(), supports)[which] - 1
    cells, cell_dims = realized[cell_dims > 0], cell_dims[cell_dims > 0].tolist()

    edge_set: set[tuple[int, ...]] = set()
    facet_keys: list[tuple[int, tuple[int, ...]]] = []
    for start, block in _conforming(rows, cells):
        cell_of, vertex = _pairs(block)
        bounds = np.searchsorted(cell_of, np.arange(len(block) + 1)).tolist()
        vertex = vertex.tolist()
        for k, cell_dim in enumerate(cell_dims[start : start + len(block)]):
            conforming = tuple(vertex[bounds[k] : bounds[k + 1]])
            if cell_dim > 1:
                facet_keys.append((cell_dim, conforming))
            elif len(conforming) != 2:
                raise ValueError(
                    "a one-dimensional cell must close over exactly two circuits"
                )
            else:
                edge_set.add(conforming)

    edges = sorted(edge_set)
    cycles = _partition_edges_into_cycles(edges, vertices)
    graph = CircuitGraph(vertices=vertices, edges=tuple(edges), cycles=cycles)
    facets = tuple(Cell(dim=k, vertices=frozenset(vs)) for k, vs in sorted(facet_keys))
    return RadonComplex(graph=graph, facets=facets, n=n, d=d, positions=positions)


def matroid_of_complex(rc: RadonComplex) -> OrientedMatroid:
    reps = rc.graph.vertices[: len(rc.graph.vertices) // 2]
    return OrientedMatroid(
        GroundSet(rc.n, rc.d), frozenset(v.circuit for v in reps)
    )


def combinatorial_circuit_graph(m: OrientedMatroid) -> CircuitGraph:
    """Build the circuit graph from the circuit list alone, once
    check_circuit_axioms finds no violation (else ValueError)."""
    report = check_circuit_axioms(m)
    if not report.ok:
        raise ValueError(f"circuit axioms fail: {report.summary()}")
    return _circuit_graph(m)


def _circuit_graph(m: OrientedMatroid) -> CircuitGraph:
    """The circuit graph of any circuit set, axioms unchecked.

    Adjacency rule: X and Y are joined iff they conform, X != +-Y, and
    exactly two signed circuits (X and Y themselves) conform to the
    composition X o Y.  All pairs are tested at once with the conformance
    kernel; edges keep the (i, j) order of the vertex pairs.  Edges are then
    partitioned into cycles by the support of the composition.
    """
    circuits = m.sorted_circuits()
    vertices = _ordered_vertices(circuits)
    rows = _pack(_signs(vertices, m.n))
    first, second = np.concatenate(
        [
            np.stack(_pairs(block)) + [[start], [0]]
            for start, block in _conforming(rows, ~_negated(rows))
        ],
        axis=1,
    )
    upper = first < second
    first, second = first[upper], second[upper]
    composed, which = _unique_rows(rows[first] | rows[second])
    count = np.concatenate(
        [np.bincount(_pairs(b)[0], minlength=len(b)) for _, b in _conforming(rows, composed)]
    )
    lone = count[which] == 2
    edges = list(zip(first[lone].tolist(), second[lone].tolist()))
    cycles = _partition_edges_into_cycles(edges, vertices)
    return CircuitGraph(vertices=vertices, edges=tuple(edges), cycles=cycles)


def graphs_equal(g1: CircuitGraph, g2: CircuitGraph) -> bool:
    """Labeled comparison: same signed-circuit vertices and same edges."""
    if set(g1.vertices) != set(g2.vertices):
        return False
    def edge_labels(g):
        return {frozenset((g.vertices[i], g.vertices[j])) for i, j in g.edges}
    return edge_labels(g1) == edge_labels(g2)


@dataclass
class SphereReport:
    """Structural checks of a Radon complex against the expected sphere."""

    n: int
    d: int
    sphere_dim: int
    euler_characteristic: int
    expected_euler: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "sphere_dim": self.sphere_dim,
            "euler_characteristic": self.euler_characteristic,
            "expected_euler": self.expected_euler,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def validate_sphere(c: RadonComplex, n: int, d: int) -> SphereReport:
    """Check Euler characteristic, parity, antipodality, and connectivity.

    The complex of an n-point configuration in R^d is an (n-d-2)-sphere, so
    its Euler characteristic must be 1 + (-1)^(n-d-2), every vertex degree
    must be even, the vertex and edge sets must be antipodally symmetric,
    and the 1-skeleton must be connected once the sphere dimension is >= 1.
    """
    failures: list[str] = []
    g = c.graph
    sphere_dim = n - d - 2
    expected = 1 + (-1) ** sphere_dim
    chi = c.euler_characteristic()
    if chi != expected:
        failures.append(f"euler characteristic {chi} != expected {expected}")

    for i in range(len(g.vertices)):
        if g.degree(i) % 2 != 0:
            failures.append(f"vertex {g.vertices[i]!r} has odd degree {g.degree(i)}")
            break

    vset = set(g.vertices)
    if any(v.antipode() not in vset for v in g.vertices):
        failures.append("vertex set is not closed under the antipodal map")
    else:
        edge_labels = {frozenset((g.vertices[i], g.vertices[j])) for i, j in g.edges}
        for i, j in g.edges:
            mirrored = frozenset(
                (g.vertices[i].antipode(), g.vertices[j].antipode())
            )
            if mirrored not in edge_labels:
                failures.append("edge set is not closed under the antipodal map")
                break

    if sphere_dim >= 1 and g.vertices:
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nb in g._adjacency[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(g.vertices):
            failures.append("1-skeleton is not connected")

    covered: dict[int, int] = {}
    for cyc in g.cycles:
        for eid in cyc.edge_ids:
            covered[eid] = covered.get(eid, 0) + 1
    if covered != {eid: 1 for eid in range(len(g.edges))}:
        failures.append("cycles do not partition the edge set")

    return SphereReport(
        n=n,
        d=d,
        sphere_dim=sphere_dim,
        euler_characteristic=chi,
        expected_euler=expected,
        failures=failures,
    )

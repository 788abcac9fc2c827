"""Radon complexes and circuit graphs.

For a configuration of n points spanning R^d, the affine dependences form
the kernel of the lifted (d+1) x n matrix, a subspace V of dimension
n - d - 1 inside the zero-sum hyperplane.  Intersecting V with the ambient
polytope { x in R^n : sum_i |x_i| = 2, sum_i x_i = 0 }, whose faces are
labeled by sign patterns, yields a polyhedral (n-d-2)-sphere, the Radon
complex: its cells correspond to the sign vectors realized by vectors of V,
its vertices to the minimal-support (elementary) ones, which are exactly
the signed circuits of the configuration.

The same 1-skeleton can be built from the circuit list alone: signed
circuits X != +-Y are adjacent iff they conform (no element receives
opposite signs) and form a modular pair, their union of supports U having
height 2 in the lattice of unions of supports (OrientedMatroid.modular_pairs,
one list per matroid, which the axiom check reads too).  A circuit W
conforming to X o Y is a dependence supported on U.  If those form a plane
(height 2), W = aX + bY with a, b >= 0, so W is X or Y, as minimality
forbids the support U: X o Y labels an edge.  Otherwise it
labels a face of dimension >= 2, with three vertices or more (Bjorner, Las
Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 3.2, treat modular
pairs beyond realizable sets).  Edges group into closed cycles by the
support of X o Y, one cycle per two-dimensional coordinate subspace of V.
A CircuitGraph's vertices are its matroid's rows, then their negations,
so the antipodal map is index arithmetic.  The cycles derive from the
vertices and edges, so a CircuitGraph walks them on first read.  The
vertices, the cycles and the facets are core.RecordTables, the tables the
CLI writes, and each list of int lists in them is a core.Ragged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    EPS_MEM,
    Circuit,
    OrientedMatroid,
    PointConfiguration,
    Ragged,
    RecordTable,
    check_circuit_axioms,
    circuit_dependences,
    _circuit_table,
    _conforming,
    _distinct,
    _find,
    _keys,
    _negated,
    _pack,
    _pairs,
    _supports,
    _unique_rows,
)


class GammaMembershipError(ValueError):
    """Point violates a defining equation of the ambient polytope."""


class DegeneratePointError(ValueError):
    """Vector is too close to zero to be normalized onto the polytope."""


def project_to_gamma(x: np.ndarray) -> np.ndarray:
    """Radially rescale a zero-sum vector onto the polytope: x -> 2x / sum|x_i|.
    A stack of vectors is rescaled row by row, each row checked alone.

    Raises DegeneratePointError when a 1-norm is below EPS_MEM and
    GammaMembershipError when a coordinate sum is not zero.
    """
    x = np.asarray(x, dtype=float)
    total = np.abs(x).sum(axis=-1, keepdims=True)
    if (total < EPS_MEM).any():
        raise DegeneratePointError("cannot normalize a near-zero vector")
    if (np.abs(x.sum(axis=-1, keepdims=True)) > EPS_MEM * np.maximum(1.0, total)).any():
        raise GammaMembershipError("coordinate sum must vanish before rescaling")
    return 2.0 * x / total


def _vertex_signs(matroid: OrientedMatroid) -> np.ndarray:
    """The sign vectors of a matroid's circuit graph vertices: its rows,
    then their negations, so vertex i + V/2 is vertex i's antipode."""
    return np.concatenate([matroid.signs, -matroid.signs])


@dataclass(eq=False)
class CircuitGraph:
    """A matroid's signed circuits as vertices, and edges; the rest is derived.

    signs is the vertices' (V, n) int8 array of sign vectors, +1/-1/0
    (column e-1 for element e): the matroid's rows, then their negations,
    so vertex i + V/2 is vertex i's antipode by construction.  The checks
    and comparisons read rows, the kernel's packing of signs; vertices,
    the RecordTable that payload writes (each vertex's circuit and its
    sign), is built on first read, and vertex_text(i) prints vertex i in
    messages.  edges is the (E, 2) intp array of the edges, each [i, j]
    with i < j, rows ascending (_canonical), from pairs of vertices in
    range(V) in any order; an end outside, a loop or a repeat (no first
    copy of its row) raises ValueError, naming the first such edge as
    given.  == is identity: graphs_equal compares graphs.  cycles, the
    edges' partition into closed cycles (_partition_edges_into_cycles), is
    a RecordTable of three Ragged fields, one list of each per cycle: its
    support, ascending, its vertex_seq, the vertices in cyclic order (the
    first not repeated), and its edge_ids, edge i joining vertex i of the
    sequence to vertex i + 1, cyclically.  It is walked on first read,
    which raises the ValueError for edges that do not close.
    """

    matroid: OrientedMatroid
    edges: np.ndarray
    signs: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.signs = _vertex_signs(self.matroid)
        self.rows = _pack(self.signs)
        edges = np.asarray(self.edges, np.intp).reshape(-1, 2)
        outside = np.flatnonzero(((edges < 0) | (edges >= len(self.signs))).any(axis=1))
        if len(outside):
            k = outside[0]
            raise ValueError(f"edge {k} {edges[k].tolist()} has an end outside range({len(self.signs)})")
        self.edges, first = _canonical(edges, len(self.signs))
        repeat = np.bincount(first, minlength=len(edges)) == 0  # no first copy of its row
        bad = np.flatnonzero((edges[:, 0] == edges[:, 1]) | repeat)
        if len(bad):
            k = bad[0]
            what = "is a loop" if edges[k, 0] == edges[k, 1] else "repeats an earlier edge"
            raise ValueError(f"edge {k} {edges[k].tolist()} {what}")

    @cached_property
    def cycles(self) -> RecordTable:
        """The cycle partition of the edges, walked on first read."""
        return _partition_edges_into_cycles(self.rows, *self.edges.T)

    @cached_property
    def vertices(self) -> RecordTable:
        """Each vertex's circuit as "pos" and "neg", its smallest element
        positive (the rule of Circuit.make), and the vertex's "sign" there."""
        lead = self.signs[np.arange(len(self.signs)), (self.signs != 0).argmax(axis=1)]
        return RecordTable({**_circuit_table(self.signs * lead[:, None]).fields, "sign": lead})

    def vertex_text(self, i: int) -> str:
        """Vertex i as messages print it: its sign, then its circuit, as
        in -{1}|{2,4}."""
        fields = self.vertices.fields
        circuit = Circuit(fields["pos"][i].tolist(), fields["neg"][i].tolist())
        return f"{'+' if fields['sign'][i] > 0 else '-'}{circuit!r}"

    def payload(self) -> dict:
        """The graph as the CLI writes it: its matroid's n and d, the
        vertices and the cycles as RecordTables, the edges as their array."""
        cycles = {key: self.cycles.fields[key] for key in ("support", "edge_ids")}
        n, d = self.matroid.n, self.matroid.d
        return {"n": n, "d": d, "vertices": self.vertices, "edges": self.edges, "cycles": RecordTable(cycles)}


@dataclass(eq=False)
class RadonComplex:
    """A circuit graph plus its filled higher cells and natural coordinates.

    matroid, the graph's, holds the circuits, and n and d.  positions holds
    one row per graph vertex, antipodal rows negated.  facets, the cells of
    dimension >= 2, is the RecordTable the CLI writes, one record {"dim",
    "vertices"} per facet, its vertices ascending, ordered by dimension,
    then by vertex tuple; it is empty by default.
    """

    graph: CircuitGraph
    positions: np.ndarray
    facets: RecordTable = field(
        default_factory=lambda: RecordTable({"dim": np.zeros(0, np.intp), "vertices": Ragged.sized([], np.zeros(0, np.intp))})
    )

    @property
    def matroid(self) -> OrientedMatroid:
        return self.graph.matroid

    def euler_characteristic(self) -> int:
        dims = self.facets.fields["dim"]
        odd = int(np.count_nonzero(dims & 1))
        return len(self.graph.signs) - len(self.graph.edges) + len(dims) - 2 * odd

    def payload(self) -> dict:
        """The complex as the CLI writes it: the graph's payload, the
        facets and the positions."""
        return {**self.graph.payload(), "facets": self.facets, "positions": self.positions}


def _canonical(edges: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edges over range(count) as rows [min, max], ascending,
    and the index in edges of each one's first copy: one _distinct call on
    the keys min * count + max."""
    low, high = np.sort(edges, axis=1).T
    keys, first, _ = _distinct(low * count + high)
    return np.stack(np.divmod(keys, count), axis=1), first


def _partition_edges_into_cycles(rows: np.ndarray, first: np.ndarray, second: np.ndarray) -> RecordTable:
    """Group edges by the support of the composed sign vector and walk cycles.

    Edge k joins first[k] and second[k], the columns of an (E, 2) edge
    array (CircuitGraph.edges); its tag is the support of
    rows[first[k]] | rows[second[k]].  Tags are taken in order of their
    elements sorted from the largest down, which is the order of their
    support bitmasks read as integers (core._supports): one stable argsort
    of the edges' tags groups the edges by tag in edge order, and each
    cycle's support is its tag's support read as a circuit part
    (core._circuit_table).  Within one tag
    every incident vertex must have exactly two incident edges; each
    connected component is then a closed cycle, walked from its smallest
    vertex towards its smaller (neighbor, edge) first.

    Each edge end is a slot (tag, vertex, neighbor, edge), sorted so that
    the two slots of a (tag, vertex) are adjacent, the smaller neighbor
    first (a neighbor names the edge).  Arriving at a vertex by one edge, a
    walk leaves by the other slot of that vertex, so a walk costs one list
    lookup per edge; the slots it leaves by, in walk order, give every
    cycle's vertices and edges by one gather each (CircuitGraph.cycles).

    Raises ValueError when some vertex has other than two edges of one tag,
    naming the least such vertex of the first such tag and its degree there,
    read off the sorted slot keys (tag, vertex) whose pairing the check
    tests; CircuitGraph.cycles calls this on first read.
    """
    supports, tag_of = _supports(rows[first] | rows[second], 32 * rows.shape[1])
    order = np.argsort(tag_of, kind="stable")
    tag_of = tag_of[order]
    supports = _circuit_table(supports.view(np.int8)).fields["pos"]

    # slot i < E is the first end of the i-th edge in tag order, slot i + E
    # its second end; sorted by (tag, vertex), then each pair of slots
    # turned so that the smaller neighbor comes first
    ends = len(order)
    vertex = np.concatenate([first[order], second[order]])
    other = np.concatenate([second[order], first[order]])
    key = np.concatenate([tag_of, tag_of]) * len(rows) + vertex
    slots = np.argsort(key, kind="stable")
    key = key[slots]
    if not ((key[0::2] == key[1::2]).all() and (key[2::2] != key[1:-1:2]).all()):
        # some key is not held by exactly two slots: the least such names
        # the first failing tag and its least vertex of another degree
        start = np.flatnonzero(np.diff(key, prepend=-1))
        degree = np.diff(start, append=len(key))
        k = np.flatnonzero(degree != 2)[0]
        tag, v = divmod(key[start[k]].tolist(), len(rows))
        raise ValueError(
            f"edges tagged {supports[tag].tolist()} do not form closed cycles (vertex {v} has degree {degree[k]} there)"
        )
    pairs = slots.reshape(-1, 2)
    turn = other[pairs[:, 0]] > other[pairs[:, 1]]
    pairs[turn] = pairs[turn, ::-1]

    # leaving by slot k, a walk arrives at the far end of k's edge and
    # leaves again by the other slot there: after[k]
    place = np.empty_like(slots)
    place[slots] = np.arange(len(slots))
    after = (place[(slots + ends) % len(slots)] ^ 1).tolist()
    walked = bytearray(len(slots) // 2)
    exits, lengths = [], []  # the slot each step leaves by, in walk order, and each cycle's length
    for start in range(len(walked)):
        if walked[start]:
            continue
        slot, size = 2 * start, len(exits)
        while True:
            walked[slot >> 1] = 1
            exits.append(slot)
            slot = after[slot]
            if slot >> 1 == start:
                break
        lengths.append(len(exits) - size)
    exits = slots[np.array(exits, np.intp)]
    vertex_seq = Ragged.sized(lengths, vertex[exits])
    lead = exits[vertex_seq.offsets[:-1]] % ends  # each cycle's first edge, in tag order
    edge_ids = Ragged(vertex_seq.offsets, order[exits % ends])
    return RecordTable({"support": supports.take(tag_of[lead]), "vertex_seq": vertex_seq, "edge_ids": edge_ids})


def _circuit_edges(m: OrientedMatroid) -> np.ndarray:
    """The circuit graph's edges, unsorted (CircuitGraph sorts them, and the
    closure's neighbour lists do not need it), on the vertex rows
    [m.signs; -m.signs]: the signed pairs that conform of each
    modular pair of circuits (m.modular_pairs; see the module docstring).
    The sign product of a pair's int8 rows says which of them conform."""
    signs, k, (a, b) = m.signs, len(m.signs), m.modular_pairs
    product = signs[a] * signs[b]
    same, opposite = (product >= 0).all(axis=1), (product <= 0).all(axis=1)
    first = np.concatenate([a[same], a[opposite], b[opposite], a[same] + k])
    second = np.concatenate([b[same], b[opposite] + k, a[opposite] + k, b[same] + k])
    return np.stack([first, second], axis=1)


def _composition_closure(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The distinct sign-vector rows closed under conformal composition.

    The rows are the signed circuits of a configuration, and the closure is
    the face poset of the polytope P = V n {sum |x_i| <= 2}, V the space of
    dependences: a conformal composition is the sign vector of a sum, so it
    is realized, and a realized sign vector labels the face of P whose
    vertices are the circuits conforming to it; it is their composition.

    Step 1 composes every conformal pair of circuits, so the 1-cells that
    geometric_radon_complex reads off point minors do not depend on edges,
    the (E, 2) row pairs of the circuit graph (_circuit_edges) that
    graphs_equal checks them against.  Every new row then tracks one of its
    vertices: a row of step 1 the endpoint of lower degree of the first
    pair composing to it, any later row the vertex its first parent tracks
    (X conforms to X o Y, so a vertex of a row is one of its children's).
    A row is composed only with the neighbours v of its tracked vertex that
    are conformal to it and hold an element outside its support; the pairs
    left out would compose to the row itself.

    This reaches every face.  Take a face G, any vertex u of G and a face F
    that covers G.  The vertex figure F/u is a polytope whose vertices are
    the edges of F at u, and G/u is one of its facets, so F/u has a vertex
    off G/u: an edge uv of F with v not in G.  Then G o v labels a face that
    lies between G and F and is not G, so it is F; and v, a vertex of F, is
    conformal to G and holds an element outside G's support, because it is
    not a vertex of G (Ziegler, Lectures on Polytopes, GTM 152, 1995,
    section 2.1).  By induction on dimension from the faces of step 1, every
    face of dimension >= 2 is G o v for a face G the closure reached and a
    neighbour v of the vertex G tracks.

    Each frontier's compositions are made distinct by one sort of their
    packed keys (core._distinct), whose first occurrences name the parents;
    those a binary search misses in the ascending keys seen are inserted
    and form the next.
    """
    pairs = [np.stack(_pairs(b)) + [[start], [0]] for start, b in _conforming(rows, ~_negated(rows))]
    first, second = np.concatenate(pairs, axis=1)
    first, second = first[first < second], second[first < second]
    composed, head, _ = _unique_rows(rows[first] | rows[second])
    ends, others = np.concatenate([edges, edges[:, ::-1]]).T
    neighbours = Ragged.grouped(others, ends, len(rows))
    degree = neighbours.lengths

    def merged(seen, composed, tracks):
        # seen (rows ascending by key) with the composed rows it lacks put
        # in place; those rows, and the vertex each tracks: its first copy's
        keys, head, _ = _distinct(_keys(composed))
        at, found = _find(_keys(seen), keys)
        new = head[~found]
        return np.insert(seen, at[~found], composed[new], axis=0), composed[new], tracks[new]

    lower = np.where(degree[second] < degree[first], second, first)
    seen, frontier, track = merged(_unique_rows(rows)[0], composed, lower[head])
    while len(frontier):
        # every (frontier row, neighbour of its tracked vertex) pair
        row, listed = neighbours.fan(track)
        x, y = frontier[row], rows[neighbours.values[listed]]
        useful = ~(x & _negated(y)).any(axis=1) & (y & ~x).any(axis=1)
        seen, frontier, track = merged(seen, x[useful] | y[useful], track[row[useful]])
    return seen


def _dependence_dims(config: PointConfiguration, supports: np.ndarray) -> np.ndarray:
    """Dimension of the dependences supported on each row S of a bool
    matrix: |S| - rank(S), where rank(S) = max |S n B| over the bases B
    that pass the rank rule.  One 0/1 matrix product gives every |S n B|,
    through BLAS in float32, which is exact: an entry counts at most n
    terms."""
    bases, minors = config._minors
    bases = bases[minors != 0]
    incidence = np.zeros((len(bases), config.n), np.float32)
    incidence[np.arange(len(bases))[:, None], bases] = 1
    meets = supports.astype(np.float32) @ incidence.T
    return supports.sum(axis=1) - meets.max(axis=1).astype(np.intp)


def geometric_radon_complex(config: PointConfiguration) -> RadonComplex:
    """Build the Radon complex of a spanning point configuration.

    Vertices are the circuits of circuit_dependences, read off the lifted
    maximal minors that pass the rank rule (core._rank); each is placed on
    the polytope by radially normalizing its dependence vector.  A sign
    vector is realized iff the circuits conforming to it cover its support,
    and the cell it labels has dimension dim(V restricted to the support)
    minus one, read off the same bases (_dependence_dims).

    The realized sign vectors label the faces of the polytope V n {sum |x_i|
    <= 2}: the closure of the signed circuits under conformal composition,
    grown along the circuit graph's edges (_composition_closure).  One
    conformance-kernel pass then lists the (cell, circuit) pairs of every
    realized vector of dimension >= 1, each cell's closure as a Ragged
    list, ascending.  The 1-cells are the edges: each must list exactly
    two circuits.  The rest are the facets, put in (dimension, vertex
    tuple) order by one argsort of key rows: big-endian words dim, v1 + 1,
    v2 + 1, ..., padded with 0 (the vertex -1, so that a prefix sorts
    first, as tuples do), whose bytes compare as those tuples do; their
    closures, taken in that order, are the facets' vertex lists
    (RadonComplex.facets).
    """
    matroid, dependences = circuit_dependences(config)
    placed = project_to_gamma(dependences)
    positions = np.concatenate([placed, -placed])

    rows = _pack(_vertex_signs(matroid))
    realized = _composition_closure(rows, _circuit_edges(matroid))
    supports, which = _supports(realized, config.n)
    cell_dims = _dependence_dims(config, supports)[which] - 1
    cells, cell_dims = realized[cell_dims > 0], cell_dims[cell_dims > 0]

    listing = [
        (cell + start, v)
        for start, block in _conforming(rows, cells)
        for cell, v in [_pairs(block)]
    ]
    cell_of, vertex = (np.concatenate(part) for part in zip(*listing))
    closure = Ragged.sized(np.bincount(cell_of, minlength=len(cells)), vertex)
    sizes, offsets = closure.lengths, closure.offsets

    edge = cell_dims == 1
    if (sizes[edge] != 2).any():
        raise ValueError("a one-dimensional cell must close over exactly two circuits")
    # distinct 1-cells close over distinct pairs, as each is its pair's composition
    at = offsets[:-1][edge]
    graph = CircuitGraph(matroid, np.stack([vertex[at], vertex[at + 1]], axis=1))

    keys = np.zeros((len(cells), 1 + sizes.max(initial=0)), ">u4")
    keys[:, 0] = cell_dims
    keys[cell_of, 1 + np.arange(len(vertex)) - offsets[cell_of]] = vertex + 1
    facet = np.flatnonzero(~edge)
    keys = keys[facet]
    facet = facet[np.argsort(keys.view(np.dtype((np.void, keys.strides[0])))[:, 0], kind="stable")]
    return RadonComplex(graph, positions, RecordTable({"dim": cell_dims[facet], "vertices": closure.take(facet)}))


def combinatorial_circuit_graph(m: OrientedMatroid) -> CircuitGraph:
    """Build the circuit graph from the circuit list alone, once
    check_circuit_axioms finds no violation (else ValueError): a
    CircuitGraph on the edges of the adjacency rule (_circuit_edges).  Its
    cycles are walked on first read, which raises ValueError if they do
    not close."""
    report = check_circuit_axioms(m)
    if not report.ok:
        raise ValueError(f"circuit axioms fail: {report.summary()}")
    return CircuitGraph(m, _circuit_edges(m))


def graphs_equal(g1: CircuitGraph, g2: CircuitGraph) -> bool:
    """Same matroid and same edges.

    Equal matroids hold equal sign rows in one order (OrientedMatroid
    sorts them), so their graphs have the same vertices at the same
    indices, and every CircuitGraph stores its edges in one order: the
    edge arrays must be equal.
    """
    return g1.matroid == g2.matroid and np.array_equal(g1.edges, g2.edges)


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
        return {**asdict(self), "ok": self.ok}


def validate_sphere(c: RadonComplex) -> SphereReport:
    """Check Euler characteristic, parity, antipodality, and connectivity.

    The complex of n points in R^d, n and d read off c.matroid, is an
    (n-d-2)-sphere, so its Euler characteristic must be 1 + (-1)^(n-d-2),
    every vertex degree must be even, the edge set must be antipodally
    symmetric, and the 1-skeleton must be connected once the sphere
    dimension is >= 1.  The vertex set is symmetric by construction
    (CircuitGraph).  These are necessary conditions, not a proof that c is
    a sphere.

    Every check reads the graph's arrays: degrees are a bincount of the
    edge ends, the antipodal map sends vertex i to (i + V/2) mod V, so the
    edge check sorts the mapped edges as the graph's and compares arrays,
    and connectivity grows a frontier mask along the edges.  No check reads
    the cycles.
    """
    failures: list[str] = []
    g, n, d = c.graph, c.matroid.n, c.matroid.d
    count = len(g.signs)
    sphere_dim = n - d - 2
    expected = 1 + (-1) ** sphere_dim
    chi = c.euler_characteristic()
    if chi != expected:
        failures.append(f"euler characteristic {chi} != expected {expected}")

    degree = np.bincount(g.edges.ravel(), minlength=count)
    odd = np.flatnonzero(degree % 2)
    if len(odd):
        i = int(odd[0])
        failures.append(f"vertex {g.vertex_text(i)} has odd degree {degree[i]}")

    mirrored, _ = _canonical((g.edges + count // 2) % count, count)
    if not np.array_equal(mirrored, g.edges):
        failures.append("edge set is not closed under the antipodal map")

    if sphere_dim >= 1 and count:
        tail, head = np.concatenate([g.edges, g.edges[:, ::-1]]).T
        seen = np.zeros(count, bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            reached = np.zeros(count, bool)
            reached[head[frontier[tail]]] = True
            frontier = reached & ~seen
            seen |= frontier
        if not seen.all():
            failures.append("1-skeleton is not connected")

    return SphereReport(n, d, sphere_dim, chi, expected, failures)

"""Desk-scale MacPhersonian posets and their GF(2) homology.

The poset collects the acyclic oriented matroids of n labeled points
spanning R^d, ordered by weak maps (circuit nesting).  They are enumerated
exactly, as the chirotopes of rank d + 1 on n elements, and each element's
circuits are read off its chirotope; no point is sampled.  From the
chirotopes to poset.json the census stays one table of arrays
(MatroidTable): its distinct circuits as sign rows and each element as a
list of circuit ids (a core.Ragged, the package's one form of a list of
int lists), the rows of its OrientedMatroid, which poset.json holds as it
is.  Basis exchange and the weak-map order come from the
conformance kernel of core, with no per-pair calls.  The order is held as
its strict pairs, sorted, never as a k x k matrix; its covers come from
one join of the pairs with themselves, and the grades and maximal
elements from the covers alone.

The homology asked for is that of the order complex, the simplicial
complex of chains, over GF(2).  The census reads it off the covers as
cellular homology instead (cellular_homology, which gives the three checks
that make this exact and refuses a poset that fails one), and counts the
chains of each length without building one (chain_counts).  The homology
command reads a poset.json by the same route, so it accepts only a poset
that passes those checks.  The order complex itself (order_complex) is the
route the tests compare the census with.  Simplices are cells too, so one
sparse column driver (cellular_betti) also reduces the homology command's
simplicial complexes (gf2_betti); no dense matrix is built.

For n = 4, d = 2 the poset has 25 elements (7 uniform, 12 with a collinear
triple, 6 with a coincident pair) matching the cells of the antipodal
quotient of the zero-sum cross-polytope slice: face vector (6, 12, 7),
Euler characteristic 1, Betti (1, 1, 1), a projective plane.
cell_structure_m42 reads that cell structure off the census poset itself
(its grades, its covers and its uniform elements' circuits), so the
m42_cells.json report checks the census's order.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    GroundSet,
    OrientedMatroid,
    Ragged,
    _check_width,
    _colex,
    _circuit_table,
    _conforming,
    _conformity,
    _distinct,
    _distinct_circuits,
    _gather_circuits,
    _json_int,
    _negated,
    _ordered_rows,
    _pack,
    _pairs,
    _read_circuits,
    _require,
    _signs,
    _supports,
    circuits_of_points,  # unused here; perfbench/tracing.py rebinds this name
    weak_map_leq,  # the order from_elements computes; perfbench/tracing.py counts its calls here
)

MAX_ENUMERATION_N = 6
# chains i < c < j per block of the join that finds the covers (hasse_pairs)
_JOIN_BLOCK = 1 << 20


class UnsupportedRangeError(ValueError):
    """Requested parameters outside the supported enumeration range."""


def _matroid_supports(subsets: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Which rows of supports, bool rows over the rows of subsets, obey
    basis exchange: for bases B1, B2 and x in B1 - B2, some y in B2 - B1
    makes B1 - x + y a basis.  Swap (B1, B2, x) is the sign row + on B1 and
    B2 and - on each B1 - x + y, and support S breaks it iff it conforms to
    + on S and - off it: one _conformity call tests every swap on every
    support.  At B1 - B2 = {x} the one offer is B2, so that swap never breaks."""
    member = (subsets[:, :, None] == np.arange(subsets.max() + 1)).any(axis=1)
    only = member[:, None] & ~member  # only[a, b]: the elements of B_a - B_b
    i, j, x = np.nonzero(only & (only.sum(axis=2, keepdims=True) > 1))
    # B_k = B_i - x + y for a y in B_j - B_i iff B_i - B_k = {x} and B_k - B_i lies in B_j
    lose_x = (only[i].sum(axis=2) == 1) & only[i, :, x]
    gain_in_j = ~(only[:, i] & ~member[j]).any(axis=2).T
    rows = -(lose_x & gain_in_j).astype(np.int8)
    rows[np.arange(len(i)), i] = rows[np.arange(len(i)), j] = 1
    return ~_conformity(_pack(rows), _pack(supports * np.int8(2) - np.int8(1))).any(axis=1)


def _mixed(t: np.ndarray) -> np.ndarray:
    """Which rows of t, (rows, checks, terms), have each check's terms,
    signed +, -, +, ... in turn, all zero or of both signs.  Overwrites t."""
    t[:, :, 1::2] *= -1
    return ((t > 0).any(axis=2) == (t < 0).any(axis=2)).all(axis=1)


def _chirotopes(n: int, r: int, spans: Iterable[tuple[int, ...]] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Every rank-r chirotope on range(n), one of each +/- pair, with no
    positive circuit in any of the (r+1)-subsets spans.

    Returns the r-subsets in colex order (core._colex) and an int8 matrix
    with one row per chirotope, column i holding its sign on subset i.  The
    frontier of partial sign maps grows by {+, 0, -} one subset at a time,
    and each check (_mixed) drops rows as soon as its last subset is
    assigned, which colex order makes early: every subset of the first k
    elements comes before any subset holding another element.  For an
    (r-2)-set s and a < b < c < d outside it, the 3-term Grassmann-Pluecker
    relation's terms chi(sab)chi(scd), -chi(sac)chi(sbd) and chi(sad)chi(sbc)
    (the sorting signs are common to the three) are checked, and so is the
    circuit (-1)^i chi(S - x_i) of each span S = (x_0 < ... < x_r), at its
    colex-last face S - x_0.  The rows left whose first nonzero entry is +
    and whose support obeys basis exchange (_matroid_supports) are the
    chirotopes (Bjorner, Las Vergnas, Sturmfels, White & Ziegler, Oriented
    Matroids, Thm 3.6.2).
    """
    subsets = _colex(n, r)
    index = {s: i for i, s in enumerate(map(tuple, subsets.tolist()))}
    due: list[list[list[int]]] = [[] for _ in subsets]
    for union in itertools.combinations(range(n), r + 2):
        for s in itertools.combinations(union, r - 2):
            a, b, c, d = sorted(set(union) - set(s))
            pairs = ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c))
            terms = [index[tuple(sorted(s + pair))] for pair in pairs]
            due[max(terms)].append(terms)
    closing: list[list[list[int]]] = [[] for _ in subsets]
    for span in spans:
        closing[index[span[1:]]].append([index[span[:i] + span[i + 1:]] for i in range(r + 1)])
    frontier = np.zeros((1, 0), np.int8)
    for relations, circuits in zip(due, closing):
        signs = np.tile(np.array([1, 0, -1], np.int8), len(frontier))
        frontier = np.column_stack([np.repeat(frontier, 3, axis=0), signs])
        if relations:
            rel = np.array(relations)
            frontier = frontier[_mixed(frontier[:, rel[:, 0::2]] * frontier[:, rel[:, 1::2]])]
        if circuits:
            frontier = frontier[_mixed(frontier[:, circuits])]
    lead = frontier[np.arange(len(frontier)), np.argmax(frontier != 0, axis=1)]
    frontier = frontier[lead > 0]  # this drops the zero map too
    support, which = _supports(_pack(frontier), len(subsets))
    return subsets, frontier[_matroid_supports(subsets, support)[which]]


@dataclass(eq=False)
class MatroidTable(Sequence):
    """Oriented matroids on one ground set, held as arrays.

    signs holds the distinct circuits as +1/-1/0 int8 rows (column e-1 for
    element e) in Circuit.sort_key order, and element i is the list
    elements[i] of circuit ids, ascending (a Ragged), so that its matroid is
    OrientedMatroid(ground, signs[elements[i]]).  Indexing builds that
    matroid; a slice is a list of them.  ground is None only in a table of
    no elements.
    """

    ground: GroundSet | None
    signs: np.ndarray
    elements: Ragged

    @classmethod
    def of(cls, elements) -> "MatroidTable":
        """elements itself if it is a table, else the table of a sequence of
        OrientedMatroids sharing one ground set: their rows stacked, kept
        once each and ordered by core._ordered_rows."""
        if isinstance(elements, MatroidTable):
            return elements
        ground = elements[0].ground if len(elements) else None
        if any(m.ground != ground for m in elements):
            raise ValueError("matroids must share the same ground set")
        rows = [m.signs for m in elements] or [np.zeros((0, 1), np.int8)]
        signs, ids = _ordered_rows(np.concatenate(rows))
        return cls(ground, signs, Ragged.sized([len(m.signs) for m in elements], ids))

    @classmethod
    def from_dict(cls, data: dict) -> "MatroidTable":
        """The table of a poset.json, each circuit once under 'circuits' and
        each element as its ascending ids into them under 'elements'.  The
        circuits are read by core._read_circuits, whose checks name a bad
        part, elements, n and d must be given (core._require), n and d lie in
        the census range (census_range_fault), and the ids are remapped to
        core._ordered_rows' row order."""
        _require(data, "elements")
        elements = data["elements"]
        if not isinstance(elements, list) or not elements:
            raise ValueError("'elements' must be a nonempty list of circuit id lists")
        if "circuits" not in data:
            raise ValueError("a poset lists each circuit once under 'circuits' and each element as its ascending "
                             "circuit ids (schema_version 2), not each element's circuits in full")
        _require(data, "n", "d")
        fault = census_range_fault(*(_json_int(data[key], f"'{key}'") for key in ("n", "d")))
        if fault:
            raise ValueError(f"a poset file needs {fault}, as the census does")
        ground, parsed = _read_circuits(data)
        signs, which = _ordered_rows(_signs(parsed, ground.n))
        if len(signs) < len(parsed):
            _, first, copy = _distinct(which)
            twice = np.flatnonzero(first[copy] != np.arange(len(which)))[0]
            raise ValueError(f"circuit {parsed[twice]!r} is listed twice in 'circuits'")
        _check_width(signs, ground.d)
        for i, e in enumerate(elements):
            if type(e) is not list:
                raise ValueError(f"element {i} is {json.dumps(e)}, not a list of circuit ids")
        m, flat = len(signs), list(itertools.chain.from_iterable(elements))
        owner = np.repeat(np.arange(len(elements)), list(map(len, elements)))
        # bools are ints to Python, and True would name circuit 1
        if flat and not (set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < m):
            t = next(t for t, x in enumerate(flat) if type(x) is not int or not 0 <= x < m)
            raise ValueError(f"element {owner[t]} lists {json.dumps(flat[t])}, which names no circuit of 0..{m - 1}")
        given = np.array(flat, np.intp)
        step = np.flatnonzero((np.diff(given) <= 0) & (np.diff(owner) == 0))
        if len(step):
            how = "twice" if given[step[0]] == given[step[0] + 1] else "out of ascending order"
            raise ValueError(f"element {owner[step[0]]} lists circuit id {given[step[0] + 1]} {how}")
        ids = np.sort(owner * m + which[given]) - owner * m
        return cls(ground, signs, Ragged.sized(list(map(len, elements)), ids))

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return OrientedMatroid(self.ground, self.signs[self.elements[i]])

    @property
    def uniform(self) -> np.ndarray:
        """Which elements are uniform: every circuit has d + 2 elements."""
        short = (self.signs != 0).sum(axis=1) != self.ground.d + 2
        owner = np.repeat(np.arange(len(self)), self.elements.lengths)
        return np.bincount(owner[short[self.elements.values]], minlength=len(self)) == 0


def _census_table(ground: GroundSet, spans: np.ndarray, vals: np.ndarray, held: np.ndarray) -> MatroidTable:
    """The table of _distinct_circuits' output, in the census order: by
    circuit count, then by the circuits' sort keys, as lists.

    core._ordered_rows ranks the circuits' sign rows by Circuit.sort_key.
    Each element's ids are its row of held ranked and sorted, with a
    circuit held by several spans kept once (at d = 1 a short circuit lies
    in several spans); ids of equal count compare like their lists of
    keys, so one np.lexsort orders the elements.
    """
    k = len(spans)
    signs = np.zeros((k, ground.n), np.int8)
    signs[np.arange(k)[:, None], spans] = np.sign(vals)
    signs, rank = _ordered_rows(signs)
    ids = np.sort(np.append(rank, k)[held], axis=1)  # held's -1 reads k, past every id
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = k  # a circuit held by several spans counts once
    ids.sort(axis=1)
    count = (ids < k).sum(axis=1)
    order = np.lexsort(np.vstack([ids.T[::-1], count]))
    ids = ids[order]
    return MatroidTable(ground, signs, Ragged.sized(count[order], ids[ids < k]))


def _acyclic_matroids(subsets: np.ndarray, chi: np.ndarray, ground: GroundSet) -> MatroidTable:
    """The oriented matroids of the chirotope rows chi (columns over the
    colex-ordered subsets), which must have no positive circuit, as a table
    in the census order (_census_table): core._gather_circuits reads each
    row's circuits off its (r+1)-subsets and core._distinct_circuits tells
    them apart."""
    spans, vals = _gather_circuits(chi, ground.n, subsets.shape[1])
    return _census_table(ground, *_distinct_circuits(spans, vals, ground.n))


def census_range_fault(n: int, d: int) -> str | None:
    """The rule of the census range that n and d break, naming the field,
    or None: d >= 1 and d + 2 <= n <= MAX_ENUMERATION_N.  The census and
    the homology of a poset file both keep to it."""
    if d < 1:
        return "'d' >= 1"
    if not d + 2 <= n <= MAX_ENUMERATION_N:
        return f"'n' with d + 2 <= n <= {MAX_ENUMERATION_N}"
    return None


def enumerate_acyclic_oms(n: int, d: int) -> MatroidTable:
    """Every acyclic oriented matroid of rank d + 1 on n labeled elements.

    Supported: d >= 1 and d + 2 <= n <= 6; a larger n raises
    UnsupportedRangeError before any enumeration.  Each is read off one
    chirotope of _chirotopes, handed every (d+2)-subset as a span so that
    a sign map leaves its frontier once it holds a positive circuit.  At
    every supported shape the rank is at most 3 or the corank n - d - 1 is
    at most 2, so each is realizable (rank 3 on at most 8 elements: Goodman
    & Pollack, J. Combin. Theory Ser. A 29 (1980); rank 2, and corank <= 2
    by duality: BLSWZ ch. 8) and, being acyclic, is the oriented matroid of
    n points spanning R^d.  They come as one MatroidTable, sorted by
    circuit count, then by the sort keys of their sorted circuits, as lists.
    """
    fault = census_range_fault(n, d)
    if fault:
        raise UnsupportedRangeError(f"the census needs {fault}, got n={n}, d={d}")
    return _acyclic_matroids(*_chirotopes(n, d + 1, itertools.combinations(range(n), d + 2)), GroundSet(n, d))


@dataclass(eq=False)
class MatroidPoset:
    """Matroids with the weak-map order as its strict pairs: pairs is an
    (m, 2) intp array of the pairs (i, j) with element i strictly below
    element j, in ascending row-major order."""

    elements: Sequence[OrientedMatroid]
    pairs: np.ndarray

    @classmethod
    def from_elements(cls, elements: Sequence[OrientedMatroid]) -> "MatroidPoset":
        """The pairs i < j with weak_map_leq(elements[i], elements[j]).

        Over the distinct circuits u, v of all elements (the rows of
        MatroidTable.of(elements)), radon[u, v] says that u or -u conforms
        to v (core._conforming), that is, v is a Radon partition of any
        matroid holding u.  covered[i], the OR of the radon rows of i's
        circuits, holds the Radon partitions of element i, and i lies below
        j iff it holds every circuit of j: the kernel again, on packed bool
        rows, where conforming is being a subset.  Its blocks list the pairs
        (i, j) row by row (core._pairs), and the diagonal is dropped.
        """
        table = MatroidTable.of(elements)
        rows, k = _pack(table.signs), len(table.signs)
        # either[v, u]: signed row u of [rows; -rows] conforms to circuit v
        either = _conformity(np.concatenate([rows, _negated(rows)]), rows)
        radon = np.packbits((either[:, :k] | either[:, k:]).T, axis=1)
        ids, sizes = table.elements.values, table.elements.lengths
        incidence = np.zeros((len(table), k), bool)
        incidence[np.repeat(np.arange(len(table)), sizes), ids] = True
        covered = np.zeros((len(table), radon.shape[1]), np.uint8)
        covered[sizes > 0] = np.bitwise_or.reduceat(radon[ids], table.elements.offsets[:-1][sizes > 0], axis=0)
        blocks = _conforming(np.packbits(incidence, axis=1), covered)
        pairs = np.concatenate([np.stack(_pairs(bits)) + [[a], [0]] for a, bits in blocks], axis=1).T
        return cls(elements=elements, pairs=pairs[pairs[:, 0] != pairs[:, 1]])

    def __post_init__(self) -> None:
        k, (i, j) = len(self), self.pairs.T
        keys = i * k + j
        if ((i < 0) | (i >= k) | (j < 0) | (j >= k)).any() or (np.diff(keys) <= 0).any():
            raise ValueError("the pairs must name elements, each pair once, in ascending row-major order")
        if (i == j).any():
            raise ValueError("the pairs must be strict: a pair joins an element to itself")
        if _find(keys, j * k + i)[1].any():
            raise ValueError("the order is not antisymmetric: two elements lie below each other")

    def __len__(self) -> int:
        return len(self.elements)

    def hasse_pairs(self) -> np.ndarray:
        """The covers, pairs i < j with nothing strictly between: an (m, 2)
        intp array, a subset of self.pairs in their ascending row-major order.

        (i, j) is a cover iff no chain i < c < j ends on it.  Each pair
        (i, c) meets the pairs above c (Ragged.grouped), about _JOIN_BLOCK
        chains at a time, and each chain's end key i * k + j is found among
        the pairs' ascending keys, or else the relation is not transitive.
        """
        k, pairs = len(self), self.pairs
        keys = pairs[:, 0] * k + pairs[:, 1]
        above = Ragged.grouped(pairs[:, 1], pairs[:, 0], k)
        total = np.concatenate([[0], np.cumsum(above.lengths[pairs[:, 1]])])
        cuts = np.searchsorted(total, np.arange(0, total[-1], _JOIN_BLOCK), "right") - 1
        cuts = _distinct(np.append(cuts, len(pairs)))[0]
        cover = np.ones(len(pairs), bool)
        for a, b in zip(cuts.tolist(), cuts[1:].tolist()):
            owner, position = above.fan(pairs[a:b, 1])
            at, found = _find(keys, pairs[a + owner, 0] * k + above.values[position])
            if not found.all():
                t = np.flatnonzero(~found)[0]
                (x, y), z = pairs[a + owner[t]].tolist(), above.values[position[t]]
                raise ValueError(f"the order is not transitive: {x} < {y} < {z}, but not {x} < {z}")
            cover[at] = False
        return pairs[cover]

    def payload(self, hasse: np.ndarray) -> dict:
        """The elements as their table (MatroidTable.of), each circuit once in
        its row order (a RecordTable) and each element as its circuit ids (a
        Ragged), the cover array hasse (self.hasse_pairs()) and the maximal
        elements, the lower end of no cover."""
        table = MatroidTable.of(self.elements)
        return {
            "circuits": _circuit_table(table.signs),
            "elements": table.elements,
            "hasse": hasse,
            "maximal": np.flatnonzero(np.bincount(hasse[:, 0], minlength=len(self)) == 0).tolist(),
        }


@dataclass(eq=False)
class SimplicialComplex:
    """Simplices grouped by dimension: simplices[k] is an int array with one
    row per k-simplex, rows in lexicographic order.  Dropping an entry of a
    row leaves a row one dimension down.  from_maximal_faces lists each
    simplex's vertices ascending; order_complex lists each chain from its
    least element up, whatever the element indices."""

    simplices: list[np.ndarray]

    @classmethod
    def from_maximal_faces(cls, faces) -> "SimplicialComplex":
        """The closure of faces (vertex lists of int labels, kept as given)."""
        closed: set[tuple[int, ...]] = set()
        for f in faces:
            f = tuple(sorted(set(f)))
            for size in range(1, len(f) + 1):
                closed.update(itertools.combinations(f, size))
        top = max(map(len, closed), default=0)
        by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
        for s in closed:
            by_dim[len(s) - 1].append(s)
        return cls(
            simplices=[
                np.array(sorted(lst), dtype=np.int64).reshape(len(lst), k + 1)
                for k, lst in enumerate(by_dim)
            ]
        )

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> list[int]:
        return [len(rows) for rows in self.simplices]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(rows) for k, rows in enumerate(self.simplices))


def order_complex(p: MatroidPoset) -> SimplicialComplex:
    """Chains of the poset as simplices (vertex i = element index i).

    The chains grow one grade at a time from the elements above each
    element (Ragged.grouped by lower end): each chain is repeated once per
    element above its last one, and one gather appends those elements
    (Ragged.fan).  The parents come in lexicographic order and each one's
    extensions ascend, so every grade comes out sorted.
    """
    above = Ragged.grouped(p.pairs[:, 1], p.pairs[:, 0], len(p))
    chains = np.arange(len(p), dtype=np.int64)[:, None]
    grades: list[np.ndarray] = []
    while len(chains):
        grades.append(chains)
        owner, position = above.fan(chains[:, -1])
        chains = np.column_stack([chains[owner], above.values[position]])
    return SimplicialComplex(simplices=grades)


def _boundary_faces(c: SimplicialComplex) -> list[np.ndarray]:
    """For each k >= 1, the boundary of the k-simplices as an int array:
    column j holds the index among the (k-1)-simplices of the face that
    misses entry k - j of the row, so column 0 holds the row's prefix.

    Faces are found by searchsorted on codes that stay below (number of
    simplices) x (number of vertices), whatever the labels: a simplex's code
    is the index of its prefix one dimension down times V plus the rank of
    its last vertex, the empty simplex being the one prefix of a vertex.
    Rows in lexicographic order have ascending codes.
    """
    labels = c.simplices[0][:, 0]
    v = len(labels)
    codes = [np.arange(v)]
    faces = [np.zeros((v, 1), np.int64)]  # a vertex's one face: the empty simplex
    for k in range(1, len(c.simplices)):
        rank = np.searchsorted(labels, c.simplices[k])
        prefix = np.zeros(len(rank), np.int64)
        for j in range(k):
            prefix = np.searchsorted(codes[j], prefix * v + rank[:, j])
        out = np.empty((len(rank), k + 1), np.int64)
        out[:, 0] = prefix
        # the face without entry k - j, j >= 1: the prefix's face without
        # that entry, then the last vertex
        out[:, 1:] = np.searchsorted(codes[k - 1], faces[k - 1][prefix] * v + rank[:, k:])
        faces.append(out)
        codes.append(prefix * v + rank[:, k])
    return faces[1:]


def _gf2_pivots(columns) -> list[int]:
    """Reduce GF(2) columns, each a nonempty ascending list of row indices.

    A column's pivot is its smallest row, which an ascending list holds
    first.  While another reduced column owns that pivot, the column
    becomes a set and takes the other's symmetric difference.  The
    reduction does not depend on the order of the columns for its rank.
    Returns the pivots of the columns that stay nonzero, one per rank; the
    reduced columns are dropped.
    """
    reduced: dict[int, list[int] | tuple[int, ...]] = {}
    for col in columns:
        other = reduced.get(col[0])
        if other is None:
            reduced[col[0]] = col
            continue
        col = set(col)
        while True:
            col.symmetric_difference_update(other)
            if not col:
                break
            low = min(col)
            other = reduced.get(low)
            if other is None:
                reduced[low] = tuple(col)  # a third of the memory of the set
                break
    return list(reduced)


def gf2_betti(c: SimplicialComplex) -> list[int]:
    """Betti numbers over GF(2) by cellular_betti: a k-simplex is a cell of
    dimension k whose lower covers are its boundary faces (_boundary_faces),
    sorted, so its pivot is its prefix; the simplices are numbered one
    dimension after another."""
    if not c.simplices:
        return []
    counts = c.counts()
    offset = np.cumsum([0] + counts)
    grade = np.repeat(np.arange(len(counts)), counts)
    faces = [np.sort(f, axis=1).ravel() + offset[k - 1] for k, f in enumerate(_boundary_faces(c), start=1)]
    lower = Ragged.sized(np.where(grade > 0, grade + 1, 0), np.concatenate([np.zeros(0, np.int64), *faces]))
    return cellular_betti(grade, lower)


def chain_counts(p: MatroidPoset) -> list[int]:
    """The number of chains of each length: order_complex(p).counts(),
    without building a chain.

    ending[x] counts the chains of the current length whose last element is
    x; a chain one longer is one of them followed by an element above its
    last, so each step is one bincount over the strict pairs weighted by
    ending.  The float64 weights are exact while every count stays below
    2**53 (the 60 962 elements of (6,2) have 492 655 682 chains in all).
    """
    below, above = p.pairs.T
    ending = np.ones(len(p))
    counts: list[int] = []
    while ending.any():
        counts.append(int(ending.sum()))
        ending = np.bincount(above, weights=ending[below], minlength=len(p))
    return counts


class NotACWPosetError(ValueError):
    """A poset fails a check that makes its cellular homology exact."""


def _find(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the ascending keys, and whether it is there."""
    at = np.searchsorted(keys, queries)
    return at, keys[np.minimum(at, len(keys) - 1)] == queries


def cellular_betti(grade: np.ndarray, lower: Ragged) -> list[int]:
    """GF(2) cellular Betti numbers of a graded cell poset.

    The cell x has dimension grade[x] and the lower covers lower[x] (a Ragged,
    Ragged.grouped), each of grade one less; its boundary is their sum,
    every incidence being 1 mod 2.  Cells are numbered within their grade
    in the order of their indices, so each column's rows ascend.  Grades are
    reduced from the top down by _gf2_pivots, a grade's columns taken by
    their number of rows, and a cell that is a pivot one grade up is
    cleared: its column is a combination of the others (Chen & Kerber,
    "Persistent homology computation with a twist", 2011; Bauer, Kerber,
    Reininghaus & Wagner, "PHAT", 2017).  The answer is the homology of the
    order complex when cellular_homology's checks hold, and that of a
    simplicial complex for its simplices and their faces (gf2_betti).
    """
    f = np.bincount(grade)
    by_grade = np.argsort(grade, kind="stable")
    offset = np.cumsum(f) - f
    local = np.empty(len(grade), np.intp)
    local[by_grade] = np.arange(len(grade)) - np.repeat(offset, f)
    ranks = [0] * (len(f) + 1)
    pivots: list[int] = []  # of the grade above
    for g in range(len(f) - 1, 0, -1):
        keep = np.ones(f[g], bool)
        keep[pivots] = False
        cells = by_grade[offset[g] : offset[g] + f[g]][keep]
        start, size = lower.offsets[cells], lower.lengths[cells]
        columns: list[list[int]] = []
        for s in _distinct(size)[0].tolist():  # the columns of s rows, as one array
            columns += local[lower.values[start[size == s, None] + np.arange(s)]].tolist()
        pivots = _gf2_pivots(columns)
        ranks[g] = len(pivots)
    return [int(f[g]) - ranks[g] - ranks[g + 1] for g in range(len(f))]


def grades(p: MatroidPoset, hasse: np.ndarray) -> np.ndarray:
    """Each element's grade, the length of the longest chain below it, after
    checking that every cover (i, j), a row of hasse, joins adjacent grades.

    Every pass raises the upper end of every cover to one above its lower
    end, all covers at once, until nothing rises: height + 1 passes, never
    more than len(p), so covers that close a cycle fail the check.
    """
    grade = np.zeros(len(p), np.intp)
    for _ in range(len(p)):
        last = grade.copy()
        np.maximum.at(grade, hasse[:, 1], last[hasse[:, 0]] + 1)
        if np.array_equal(grade, last):
            break
    skips = np.flatnonzero(grade[hasse[:, 1]] != grade[hasse[:, 0]] + 1)
    if len(skips):
        i, j = hasse[skips[0]].tolist()
        raise NotACWPosetError(
            f"graded check: element {j} of grade {grade[j]} covers element {i} of grade {grade[i]}"
        )
    return grade


def _check_diamonds(pairs: np.ndarray, k: int) -> None:
    """Every interval of length 2 has exactly two middles: the covers
    (row-major, as hasse_pairs lists them) joined with themselves, the
    upper covers of each element a Ragged list, count the middles of each."""
    upper = Ragged.grouped(pairs[:, 1], pairs[:, 0], k)
    owner, position = upper.fan(pairs[:, 1])
    ends, _, which = _distinct(pairs[owner, 0] * k + upper.values[position])
    middles = np.bincount(which, minlength=len(ends))
    if (middles != 2).any():
        (a, c), m = divmod(ends[middles != 2][0], k), middles[middles != 2][0]
        raise NotACWPosetError(
            f"diamond check: the interval from element {a} to element {c} has {m} middle(s), not 2"
        )


def _lower_sets(p: MatroidPoset, covers: np.ndarray, grade: np.ndarray, xs: np.ndarray):
    """The cells strictly below each element of xs (ascending), one
    disjoint copy per element: their grades and their lower covers, a
    Ragged (Ragged.grouped).

    The cell (y, t) is the pair (y, xs[t]) of p.pairs, so the cells come in
    row-major order and the cells of each y are a Ragged list.  A cover
    (a, b) yields the covers of (a, t) by (b, t) for every t above b.
    """
    at = np.full(len(p), -1)
    at[xs] = np.arange(len(xs))
    y, x = p.pairs[at[p.pairs[:, 1]] >= 0].T
    t = at[x]
    # the cells of each y, fanned out: a position is a cell
    owner, upper = Ragged.sized(np.bincount(y, minlength=len(p)), y).fan(covers[:, 1])
    lower = np.searchsorted(y * len(xs) + t, covers[owner, 0] * len(xs) + t[upper])
    return grade[y], Ragged.grouped(lower, upper, len(y))


def _check_spheres(p: MatroidPoset, covers: np.ndarray, grade: np.ndarray) -> None:
    """The cells below each element x of grade g >= 1 have the reduced
    Betti numbers of a (g-1)-sphere under cellular_betti.

    At g = 1 that is two lower covers.  The elements of grade >= 2 are
    checked at once, on the disjoint union of their lower sets (_lower_sets):
    once the diamonds hold, the cover sum of x is a nonzero cycle in degree
    g - 1 of the cells below x, so each lower set has Betti numbers at
    least 1 in degrees 0 and g - 1, and the union's sum can be one in each
    of those and zero elsewhere only if every lower set's is.  Otherwise the
    lower sets are run one by one, up the grades, to name the first that fails.
    """
    ones = np.flatnonzero((grade == 1) & (np.bincount(covers[:, 1], minlength=len(p)) != 2))
    if len(ones):
        raise NotACWPosetError(f"sphere check: element {ones[0]} of grade 1 covers other than 2 elements")
    xs = np.flatnonzero(grade >= 2)
    if not len(xs):
        return
    expected = np.bincount(grade[xs] - 1)
    expected[0] = len(xs)
    if cellular_betti(*_lower_sets(p, covers, grade, xs)) == expected.tolist():
        return
    for x in xs[np.argsort(grade[xs], kind="stable")].tolist():
        betti = cellular_betti(*_lower_sets(p, covers, grade, np.array([x])))
        if betti != [1] + [0] * (grade[x] - 2) + [1]:
            raise NotACWPosetError(
                f"sphere check: the cells below element {x} of grade {grade[x]} "
                f"have Betti numbers {betti}, not those of a {grade[x] - 1}-sphere"
            )


def cellular_homology(p: MatroidPoset, hasse: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The grades and the GF(2) Betti numbers of the order complex of p,
    read off the (m, 2) cover array hasse (p.hasse_pairs()) by cellular_betti.

    Three checks run first, and a failure raises NotACWPosetError naming
    the failing element: the poset is graded (grades), every interval of
    length 2 has two middles (_check_diamonds), and the cells below each
    element x of grade g have the GF(2) homology of a (g-1)-sphere
    (_check_spheres).  Then the answer is exact (Bjorner, "Posets, regular
    CW complexes and Bruhat order", Europ. J. Combin. 5 (1984); Wachs,
    "Poset topology: tools and applications", IAS/Park City 2007).  Filter
    the order complex by grade: the part over the elements of grade <= g,
    relative to the part over those of grade < g, is a wedge of cones over
    the order complexes of the lower sets of grade g, so its homology is one
    GF(2) in degree g for each element of grade g once those lower sets are
    homology (g-1)-spheres, and the homology of the order complex is that
    of the cellular chain complex of the filtration.  Its boundary is the
    cover sum by induction on grade.  Below x, the cover sums are the true
    boundaries, so cellular_betti gives the homology of the lower set,
    whose (g-1)-cycles are then one line; by the diamonds, the sum of x's
    lower covers is a nonzero (g-1)-cycle, so it spans that line, and x is
    attached with incidence 1 on every lower cover.
    """
    grade = grades(p, hasse)
    _check_diamonds(hasse, len(p))
    _check_spheres(p, hasse, grade)
    return grade, cellular_betti(grade, Ragged.grouped(hasse[:, 0], hasse[:, 1], len(p)))


@dataclass
class M42Report:
    """The cell structure of the 25-element poset for n=4, d=2."""

    face_vector: tuple[int, int, int]
    euler_characteristic: int
    square_facets: int
    triangle_facets: int
    matroid_facet_bijection: bool

    @property
    def ok(self) -> bool:
        return (
            self.face_vector == (6, 12, 7)
            and self.euler_characteristic == 1
            and self.square_facets == 3
            and self.triangle_facets == 4
            and self.matroid_facet_bijection
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok, "face_vector": list(self.face_vector)}


def cell_structure_m42(poset: MatroidPoset, grade: np.ndarray, hasse: np.ndarray) -> M42Report:
    """Read the cells of the antipodal quotient of the zero-sum cross-polytope
    slice in R^4 off the (4, 2) census poset, its grades (grades) and its
    covers hasse (poset.hasse_pairs(), an (m, 2) array).

    The cells of dimension g are the elements of grade g, and a top cell
    covering 4 elements is a square, one covering 3 a triangle.  The slice's
    facets are the sign patterns on {1, 2, 3, 4} with both signs present,
    one of each +/- pair; the top elements should hold one circuit each, and
    those circuits should be these 7 patterns.
    """
    face_vector = tuple(np.bincount(grade).tolist())
    top = np.flatnonzero(grade == grade.max())
    covers = np.bincount(hasse[:, 1], minlength=len(poset))[top]
    table = MatroidTable.of(poset.elements)
    held = [table.signs[table.elements[j]].tolist() for j in top]
    patterns = {(1, *p) for p in itertools.product((1, -1), repeat=3)} - {(1, 1, 1, 1)}
    return M42Report(
        face_vector=face_vector,
        euler_characteristic=sum((-1) ** g * f for g, f in enumerate(face_vector)),
        square_facets=int((covers == 4).sum()),
        triangle_facets=int((covers == 3).sum()),
        matroid_facet_bijection=len(held) == len(patterns)
        and all(len(c) == 1 for c in held)
        and {tuple(c[0]) for c in held} == patterns,
    )

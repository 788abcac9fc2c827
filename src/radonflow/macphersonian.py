"""Desk-scale MacPhersonian posets and their GF(2) homology.

The poset collects the acyclic oriented matroids of n labeled points
spanning R^d, ordered by weak maps (circuit nesting).  They are enumerated
exactly, as the chirotopes of rank d + 1 on n elements, and each element's
circuits are read off its chirotope; no point is sampled.  The weak-map
matrix comes from the conformance kernel of core: one element-by-circuit
incidence matrix and two exact 0/1 matrix products, with no per-pair calls.
The order complex of the poset is the simplicial complex of chains.  Its
Betti numbers over GF(2) come from the ranks of the boundary maps, found by
sparse column reduction: each column is a frozenset of face indices, a dict
maps each pivot (the column's largest index) to its reduced column, and
columns whose simplex is a pivot one dimension up are cleared without
reduction (Chen & Kerber, "Persistent homology computation
with a twist", 2011; Bauer, Kerber, Reininghaus & Wagner, "PHAT", 2017).
No dense matrix is built.

For n = 4, d = 2 the poset has 25 elements (7 uniform, 12 with a collinear
triple, 6 with a coincident pair) matching the cells of the antipodal
quotient of the zero-sum cross-polytope slice: face vector (6, 12, 7),
Euler characteristic 1, Betti (1, 1, 1), a projective plane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Circuit,
    GroundSet,
    OrientedMatroid,
    _conforming,
    _negated,
    _pack,
    _signs,
    circuits_of_points,  # unused here; perfbench/tracing.py rebinds this name
    weak_map_leq,  # the order from_elements computes; perfbench/tracing.py counts its calls here
)

# The census runs for n <= MAX_ENUMERATION_N except the TOO_LARGE shapes:
# the dense weak-map order of the 60 962 elements of (6,2) alone takes
# 3.7 GB, and the chains of the 17 162 of (6,3) outgrow 3 GB in order_complex.
MAX_ENUMERATION_N = 6
TOO_LARGE = frozenset({(6, 2), (6, 3)})


class UnsupportedRangeError(ValueError):
    """Requested parameters outside the supported enumeration range."""


def _is_matroid(bases: list[frozenset[int]]) -> bool:
    """Basis exchange: for bases B1, B2 and x in B1 - B2, some y in B2 - B1
    makes B1 - x + y a basis."""
    have = set(bases)
    return all(
        any(b1 - {x} | {y} in have for y in b2 - b1)
        for b1 in bases
        for b2 in bases
        for x in b1 - b2
    )


def _chirotopes(n: int, r: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every rank-r chirotope on range(n), one of each +/- pair.

    Returns the r-subsets in colex order and an int8 matrix with one row per
    chirotope, column i holding its sign on subset i.  The frontier of
    partial sign maps grows by {+, 0, -} one subset at a time.  Each 3-term
    Grassmann-Pluecker relation filters it as soon as its six subsets are
    assigned, which colex order makes early: every subset of the first k
    elements comes before any subset holding another element.  For an
    (r-2)-set s and a < b < c < d outside it, the terms
    chi(sab)chi(scd), -chi(sac)chi(sbd) and chi(sad)chi(sbc) are all zero or
    take both signs (the sorting signs are common to the three terms).  The
    rows left whose support obeys basis exchange and whose first nonzero
    entry is + are the chirotopes (Bjorner, Las Vergnas, Sturmfels, White &
    Ziegler, Oriented Matroids, Thm 3.6.2).
    """
    subsets = sorted(itertools.combinations(range(n), r), key=lambda s: s[::-1])
    index = {s: i for i, s in enumerate(subsets)}
    due: list[list[list[int]]] = [[] for _ in subsets]
    for union in itertools.combinations(range(n), r + 2):
        for s in itertools.combinations(union, r - 2):
            a, b, c, d = sorted(set(union) - set(s))
            terms = [
                index[tuple(sorted(s + pair))]
                for pair in ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c))
            ]
            due[max(terms)].append(terms)
    frontier = np.zeros((1, 0), np.int8)
    for relations in due:
        signs = np.tile(np.array([1, 0, -1], np.int8), len(frontier))
        frontier = np.column_stack([np.repeat(frontier, 3, axis=0), signs])
        if relations:
            rel = np.array(relations)
            t = frontier[:, rel[:, 0::2]] * frontier[:, rel[:, 1::2]]
            t[:, :, 1] *= -1
            frontier = frontier[((t > 0).any(axis=2) == (t < 0).any(axis=2)).all(axis=1)]
    lead = frontier[np.arange(len(frontier)), np.argmax(frontier != 0, axis=1)]
    frontier = frontier[lead > 0]  # this drops the zero map too
    _, rep, which = np.unique(
        np.packbits(frontier != 0, axis=1), axis=0, return_index=True, return_inverse=True
    )
    exchange = np.array(
        [_is_matroid([frozenset(subsets[i]) for i in np.flatnonzero(frontier[j])]) for j in rep],
        dtype=bool,
    )
    return subsets, frontier[exchange[which.ravel()]]


def _acyclic_matroids(
    subsets: list[tuple[int, ...]], chi: np.ndarray, ground: GroundSet
) -> list[OrientedMatroid]:
    """The oriented matroids of the chirotope rows chi (columns over subsets)
    that have no positive circuit.

    Each (r+1)-subset S = (x_0 < ... < x_r) with some nonzero chi(S - x_i)
    holds exactly one circuit, with signs C(x_i) = (-1)^i chi(S - x_i), and
    every circuit lies in such an S.  A loop would be a one-element circuit,
    so an acyclic row has none.
    """
    r = len(subsets[0])
    index = {s: i for i, s in enumerate(subsets)}
    spans = list(itertools.combinations(range(ground.n), r + 1))
    signs = chi[:, [[index[s[:i] + s[i + 1 :]] for i in range(r + 1)] for s in spans]]
    signs[:, :, 1::2] *= -1
    positive = (signs > 0).any(axis=2) != (signs < 0).any(axis=2)  # nonzero, of one sign
    signs = signs[~positive.any(axis=1)]
    vectors = np.zeros((len(signs), len(spans), ground.n), np.int8)
    vectors[:, np.arange(len(spans))[:, None], spans] = signs
    rows, which = np.unique(vectors.reshape(-1, ground.n), axis=0, return_inverse=True)
    circuits = [
        Circuit.make(np.flatnonzero(v > 0) + 1, np.flatnonzero(v < 0) + 1) if v.any() else None
        for v in rows
    ]
    return [
        OrientedMatroid(ground, frozenset(circuits[i] for i in held) - {None})
        for held in which.reshape(len(signs), len(spans))
    ]


def enumerate_acyclic_oms(n: int, d: int) -> list[OrientedMatroid]:
    """Every acyclic oriented matroid of rank d + 1 on n labeled elements.

    Supported: d >= 1 and d + 2 <= n <= 5, plus (6,1) and (6,4); (6,2) and
    (6,3) raise UnsupportedRangeError before any enumeration (see
    TOO_LARGE).  Each is read off one chirotope of _chirotopes.  At every
    supported shape the rank is 2 or the corank n - d - 1 is at most 2, so
    each is realizable (BLSWZ ch. 8; dualise for corank <= 2) and, being
    acyclic, is the oriented matroid of n points spanning R^d.  The list is
    sorted deterministically.
    """
    if d < 1 or n < d + 2:
        raise UnsupportedRangeError(f"need d >= 1 and n >= d + 2, got n={n}, d={d}")
    if n > MAX_ENUMERATION_N or (n, d) in TOO_LARGE:
        raise UnsupportedRangeError(
            f"enumeration supports n <= {MAX_ENUMERATION_N} except (n, d) in "
            f"{sorted(TOO_LARGE)}, got n={n}, d={d}"
        )
    out = _acyclic_matroids(*_chirotopes(n, d + 1), GroundSet(n, d))
    out.sort(key=lambda m: (len(m.circuits), sorted(c.sort_key() for c in m.circuits)))
    return out


@dataclass
class MatroidPoset:
    """Matroids with the (reflexive) weak-map order as a boolean matrix."""

    elements: list[OrientedMatroid]
    leq: np.ndarray

    @classmethod
    def from_elements(cls, elements: list[OrientedMatroid]) -> "MatroidPoset":
        """leq[i, j] = weak_map_leq(elements[i], elements[j]), for all pairs at once.

        Over the distinct circuits u, v of all elements, conf[u, v] says
        that u or -u conforms to v (core._conforming), that is, v is a Radon
        partition of any matroid holding u; A is the element-by-circuit
        incidence matrix.  Element i lies below j iff every circuit of j is
        a Radon partition of i:
        leq = ((~((A @ conf) > 0)) @ A.T) == 0.
        The 0/1 matrices multiply as float32 through BLAS, which is exact:
        an entry counts fewer than 2^24 terms.  numpy's integer matmul has
        no BLAS path and is about 20x slower here.
        """
        if any(m.ground != elements[0].ground for m in elements):
            raise ValueError("matroids must share the same ground set")
        column: dict[Circuit, int] = {}
        held = [[column.setdefault(c, len(column)) for c in m.circuits] for m in elements]
        incidence = np.zeros((len(elements), len(column)), np.float32)
        for i, cols in enumerate(held):
            incidence[i, cols] = 1
        rows = _pack(_signs(list(column), elements[0].n if elements else 1))
        # block[v, u]: signed row u of [rows; -rows] conforms to circuit v
        either = np.concatenate(
            [b for _, b in _conforming(np.concatenate([rows, _negated(rows)]), rows)]
        )
        conf = (either[:, : len(column)] | either[:, len(column) :]).T.astype(np.float32)
        uncovered = ((incidence @ conf) == 0).astype(np.float32)
        return cls(elements=elements, leq=(uncovered @ incidence.T) == 0)

    def __post_init__(self) -> None:
        if np.triu(self.leq & self.leq.T, 1).any():
            raise ValueError("the order is not antisymmetric: two elements lie below each other")

    def __len__(self) -> int:
        return len(self.elements)

    def strict(self) -> np.ndarray:
        """leq without its diagonal: strict[i, j] iff i < j."""
        return self.leq & ~np.eye(len(self.elements), dtype=bool)

    def maximal_indices(self) -> list[int]:
        return np.flatnonzero(~self.strict().any(axis=1)).tolist()

    def hasse_pairs(self) -> list[tuple[int, int]]:
        """Cover relations i < j with nothing strictly between, row-major."""
        strict = self.strict()
        counts = strict.astype(np.float32)  # exact 0/1 products, as in from_elements
        return [tuple(p) for p in np.argwhere(strict & ((counts @ counts) == 0)).tolist()]

    def to_dict(self) -> dict:
        return {
            "elements": [m.to_dict() for m in self.elements],
            "hasse": [list(p) for p in self.hasse_pairs()],
            "maximal": self.maximal_indices(),
        }


@dataclass
class SimplicialComplex:
    """Simplices grouped by dimension, each a sorted vertex tuple."""

    simplices: list[list[tuple[int, ...]]]

    @classmethod
    def from_maximal_faces(cls, faces) -> "SimplicialComplex":
        closed: set[tuple[int, ...]] = set()
        for f in faces:
            f = tuple(sorted(set(f)))
            if not f:
                continue
            for size in range(1, len(f) + 1):
                closed.update(itertools.combinations(f, size))
        if not closed:
            return cls(simplices=[])
        top = max(len(s) for s in closed)
        by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
        for s in closed:
            by_dim[len(s) - 1].append(s)
        for lst in by_dim:
            lst.sort()
        return cls(simplices=by_dim)

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> list[int]:
        return [len(lst) for lst in self.simplices]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(lst) for k, lst in enumerate(self.simplices))


def order_complex(p: MatroidPoset) -> SimplicialComplex:
    """Chains of the poset as simplices (vertex i = element index i)."""
    strict_above = [np.flatnonzero(row).tolist() for row in p.strict()]
    chains_by_dim: list[list[tuple[int, ...]]] = []

    def extend(chain: list[int]) -> None:
        dim = len(chain) - 1
        while len(chains_by_dim) <= dim:
            chains_by_dim.append([])
        chains_by_dim[dim].append(tuple(chain))
        for j in strict_above[chain[-1]]:
            chain.append(j)
            extend(chain)
            chain.pop()

    for i in range(len(strict_above)):
        extend([i])
    for lst in chains_by_dim:
        lst.sort()
    return SimplicialComplex(simplices=chains_by_dim)


def _gf2_pivots(columns) -> set[int]:
    """Reduce GF(2) columns, each a frozenset of row indices, left to right.

    A column's pivot is its largest row; while another reduced column owns
    that pivot, the two are added (symmetric difference).  Returns the
    pivots of the columns that stay nonzero, so the rank is their number;
    the reduced columns are dropped.
    """
    reduced: dict[int, frozenset[int]] = {}
    for col in columns:
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return set(reduced)


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) by column reduction."""
    bits = np.array(mat, dtype=np.uint8) & 1
    return len(_gf2_pivots(frozenset(np.nonzero(col)[0].tolist()) for col in bits.T))


def gf2_betti(c: SimplicialComplex) -> list[int]:
    """Betti numbers over GF(2) from boundary ranks, by column reduction.

    Column j of the k-th boundary map is the set of the indices of the faces
    of the j-th k-simplex among the (k-1)-simplices.  Dimensions are
    reduced from the top down, and a k-simplex that is a pivot of the
    (k+1)-st map is cleared: its column is a combination of earlier ones
    and would reduce to zero anyway.
    """
    if not c.simplices:
        return []
    ranks = [0] * (len(c.simplices) + 1)
    pivots: set[int] = set()  # of the map one dimension up
    for k in range(len(c.simplices) - 1, 0, -1):
        index = {s: i for i, s in enumerate(c.simplices[k - 1])}
        columns = (
            frozenset([index[s[:drop] + s[drop + 1 :]] for drop in range(len(s))])
            for j, s in enumerate(c.simplices[k])
            if j not in pivots
        )
        pivots = _gf2_pivots(columns)
        ranks[k] = len(pivots)
    return [
        len(c.simplices[k]) - ranks[k] - ranks[k + 1]
        for k in range(len(c.simplices))
    ]


@dataclass
class M42Report:
    """Cell structure of the 25-element poset for n=4, d=2."""

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
        return {
            "face_vector": list(self.face_vector),
            "euler_characteristic": self.euler_characteristic,
            "square_facets": self.square_facets,
            "triangle_facets": self.triangle_facets,
            "matroid_facet_bijection": self.matroid_facet_bijection,
            "ok": self.ok,
        }


def cell_structure_m42(elements: list[OrientedMatroid]) -> M42Report:
    """Identify the uniform matroids of the (4, 2) census, elements, with
    the facets of the antipodally reduced cross-polytope slice in R^4.

    Faces of the slice are the sign patterns on {1,2,3,4} with both signs
    present; antipodal identification keeps one of each {sigma, -sigma}.
    """
    cells_by_size: dict[int, set[tuple[frozenset[int], frozenset[int]]]] = {2: set(), 3: set(), 4: set()}
    elems = [1, 2, 3, 4]
    for sub_size in (2, 3, 4):
        for sub in itertools.combinations(elems, sub_size):
            for pos_size in range(1, sub_size):
                for pos in itertools.combinations(sub, pos_size):
                    pos_set = frozenset(pos)
                    neg_set = frozenset(sub) - pos_set
                    # antipodal representative: smallest support element positive
                    if min(sub) in neg_set:
                        pos_set, neg_set = neg_set, pos_set
                    cells_by_size[sub_size].add((pos_set, neg_set))
    face_vector = (
        len(cells_by_size[2]),
        len(cells_by_size[3]),
        len(cells_by_size[4]),
    )
    chi = face_vector[0] - face_vector[1] + face_vector[2]
    squares = sum(1 for p, q in cells_by_size[4] if len(p) == 2)
    triangles = sum(1 for p, q in cells_by_size[4] if len(p) in (1, 3))

    uniform = [m for m in elements if m.is_uniform]
    facet_of_matroid = set()
    for m in uniform:
        (c,) = m.circuits
        facet_of_matroid.add((c.pos, c.neg))
    bijection = facet_of_matroid == cells_by_size[4] and len(uniform) == 7
    return M42Report(
        face_vector=face_vector,
        euler_characteristic=chi,
        square_facets=squares,
        triangle_facets=triangles,
        matroid_facet_bijection=bijection,
    )

"""Desk-scale MacPhersonian posets and their GF(2) homology.

The poset collects the acyclic oriented matroids realizable by n labeled
points in R^d, ordered by weak maps (circuit nesting).  Elements are found
by sampling point configurations through randomized degeneration recipes
(coincident pairs, collinear triples, coplanar quadruples) and closing the
result under relabelings; completeness is heuristic, validated by count
stabilization.  The weak-map matrix comes from the conformance kernel of
core: one element-by-circuit incidence matrix and two exact 0/1 matrix
products, with no per-pair calls.  The order complex of the poset is the
simplicial complex of chains.  Its Betti numbers over GF(2) come from the
ranks of the boundary maps, found by sparse column reduction: each column
is a Python-int bitset, a dict maps each pivot (the column's last nonzero
row) to its reduced column, and columns whose simplex is a pivot one
dimension up are cleared without reduction (Chen & Kerber, "Persistent homology computation
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
    OrientedMatroid,
    PointConfiguration,
    RankDeficientError,
    _conforming,
    _negated,
    _pack,
    _signs,
    circuits_of_points,
    weak_map_leq,  # the order from_elements computes; perfbench/tracing.py counts its calls here
)

# The census runs for n <= MAX_ENUMERATION_N except the TOO_LARGE shapes:
# the dense weak-map order of the 55 922 elements of (6,2) alone takes
# 3.1 GB, and the chains of the 15 587 of (6,3) outgrow 3 GB in order_complex.
MAX_ENUMERATION_N = 6
TOO_LARGE = frozenset({(6, 2), (6, 3)})


class UnsupportedRangeError(ValueError):
    """Requested parameters outside the supported enumeration range."""


def _sample_configuration(n: int, d: int, rng: np.random.Generator) -> PointConfiguration:
    """One random configuration, with randomized degeneration operations.

    The points need not span R^d; the circuit scan tests that.
    """
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    n_ops = int(rng.integers(0, 3 if n <= 5 else 4))
    for _ in range(n_ops):
        kind = rng.integers(0, 3 if d >= 3 else 2)
        if kind == 0:  # coincident pair
            i, j = rng.choice(n, size=2, replace=False)
            pts[j] = pts[i]
        elif kind == 1 and d >= 2:  # collinear triple, inside or outside
            i, j, k = rng.choice(n, size=3, replace=False)
            t = float(rng.uniform(-0.8, 1.8))
            pts[k] = pts[i] + t * (pts[j] - pts[i])
        elif kind == 2:  # coplanar quadruple (d >= 3)
            i, j, k, l = rng.choice(n, size=4, replace=False)
            u, v = rng.uniform(-0.8, 1.2, size=2)
            pts[l] = pts[i] + u * (pts[j] - pts[i]) + v * (pts[k] - pts[i])
    return PointConfiguration(pts, d)


def enumerate_acyclic_oms(
    n: int,
    d: int,
    seed: int = 0,
    stable_rounds: int = 400,
    max_rounds: int = 60000,
) -> list[OrientedMatroid]:
    """Sample the realizable acyclic oriented matroids on n points in R^d.

    Supported: d >= 1 and d + 2 <= n <= 5, plus (6,1) and (6,4); (6,2) and
    (6,3) raise UnsupportedRangeError before any sampling (see TOO_LARGE).
    Stops once stable_rounds consecutive samples add nothing new (or at
    max_rounds).  The returned list is closed under relabeling and sorted
    deterministically.
    """
    if d < 1 or n < d + 2:
        raise UnsupportedRangeError(f"need d >= 1 and n >= d + 2, got n={n}, d={d}")
    if n > MAX_ENUMERATION_N or (n, d) in TOO_LARGE:
        raise UnsupportedRangeError(
            f"enumeration supports n <= {MAX_ENUMERATION_N} except (n, d) in "
            f"{sorted(TOO_LARGE)}, got n={n}, d={d}"
        )
    rng = np.random.default_rng([seed, n, d])
    perms = [
        dict(zip(range(1, n + 1), p)) for p in itertools.permutations(range(1, n + 1))
    ]
    found: dict[frozenset, OrientedMatroid] = {}

    def add_with_relabelings(m: OrientedMatroid) -> bool:
        if m.circuit_key() in found:
            return False
        for perm in perms:
            pm = m.relabeled(perm)
            found.setdefault(pm.circuit_key(), pm)
        return True

    quiet = 0
    rounds = 0
    while quiet < stable_rounds and rounds < max_rounds:
        rounds += 1
        try:
            m = circuits_of_points(_sample_configuration(n, d, rng))
        except RankDeficientError:
            continue
        if add_with_relabelings(m):
            quiet = 0
        else:
            quiet += 1
    out = list(found.values())
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


def _gf2_pivots(columns) -> dict[int, int]:
    """Reduce GF(2) columns, given as Python-int bitsets, left to right.

    A column's pivot is its highest set bit; while another reduced column
    owns that pivot, the two are XORed.  Returns pivot -> reduced column for
    the columns that stay nonzero, so the rank is the number of pivots.
    """
    reduced: dict[int, int] = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return reduced


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) by column reduction."""
    bits = np.packbits(np.array(mat, dtype=np.uint8) & 1, axis=0, bitorder="little")
    return len(_gf2_pivots(int.from_bytes(col.tobytes(), "little") for col in bits.T))


def gf2_betti(c: SimplicialComplex) -> list[int]:
    """Betti numbers over GF(2) from boundary ranks, by column reduction.

    Column j of the k-th boundary map is the bitset of the faces of the
    j-th k-simplex (bit i for the i-th (k-1)-simplex).  Dimensions are
    reduced from the top down, and a k-simplex that is a pivot of the
    (k+1)-st map is cleared: its column is a combination of earlier ones
    and would reduce to zero anyway.
    """
    if not c.simplices:
        return []
    ranks = [0] * (len(c.simplices) + 1)
    pivots: dict[int, int] = {}  # of the map one dimension up
    for k in range(len(c.simplices) - 1, 0, -1):
        index = {s: i for i, s in enumerate(c.simplices[k - 1])}
        columns = (
            sum(1 << index[s[:drop] + s[drop + 1 :]] for drop in range(len(s)))
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

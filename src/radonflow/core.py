"""Oriented matroids represented by their signed circuits.

A circuit of a point configuration is an inclusion-minimal affinely
dependent subset, carrying the sign split A|B of its (unique up to scale)
affine dependence: sum_i lam_i p_i = 0 with sum_i lam_i = 0, A the elements
with lam_i > 0 and B those with lam_i < 0.  Equivalently A|B is a minimal
Radon partition: conv(A) and conv(B) intersect, and no proper subset has
that property.  Circuits are stored unsigned-canonically, with the smallest
element of A u B in the positive part.  An OrientedMatroid is its circuits'
int8 sign rows, a circuit graph's vertices those rows and their negations;
a Circuit is built only for a reader that asks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The package's numerical tolerances, in one place.
#
# KERNEL_RTOL     relative singular-value threshold of the rank rule (_rank): a
#                 matrix's rank counts its singular values above this times
#                 max(1, largest).  It runs on the C(n, d+1) lifted bases
#                 only, and the bases it keeps alone decide the circuits, the
#                 dimension of every cell of a Radon complex and spanning.
# EPS_SIGN        a position coordinate of magnitude <= EPS_SIGN reads as zero
#                 (EmbeddedSphere's face check, which the flow's accepted
#                 steps and the perturbation's radius keep), and a neighbor
#                 direction this short makes the curvature undefined.
# EPS_MEM         tolerance of the polytope's two defining equations, and the
#                 smallest 1-norm that can be rescaled onto the polytope.
# EPS_FLAT        relative singular-value threshold of recover_configuration:
#                 flat positions have exactly n - d - 1 singular values above
#                 this times the largest.
# MIN_STEP        a flow step that must shrink below this to decrease the
#                 energy ends the run as stalled.
# TOL_CURV        a flow run converges once its largest vertex curvature is
#                 below this.  It sits far below the reach of KERNEL_RTOL so
#                 that a converged run is recoverable: the dependences that
#                 make the input degenerate must come back as minors the
#                 rank rule zeroes.  At 1e-8 the perturbed direct sum of
#                 the tests (two coincident pairs) converged flat onto
#                 another matroid in 8 of 12 perturbation seeds; at 1e-10
#                 it recovers its own in all 12.
KERNEL_RTOL = 1e-10
EPS_SIGN = 1e-9
EPS_MEM = 1e-8
EPS_FLAT = 1e-6
MIN_STEP = 1e-10
TOL_CURV = 1e-10


class RankDeficientError(ValueError):
    """Point configuration does not affinely span R^d."""


def _rank(s: np.ndarray) -> np.ndarray:
    """The rank rule, on descending singular values along s's last axis."""
    return (s > KERNEL_RTOL * np.maximum(1.0, s[..., :1])).sum(axis=-1)


@dataclass(frozen=True)
class GroundSet:
    """Ground set 1..n of points in dimension d."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension d must be at least 1")
        if self.n < self.d + 2:
            raise ValueError("need n >= d + 2 for any circuit to exist")


@dataclass(frozen=True)
class Circuit:
    """A signed circuit A|B up to global sign reversal.

    pos and neg are disjoint nonempty-union element sets.  Use make() to get
    the canonical representative (smallest element of the support positive);
    the raw constructor keeps whatever it is given so that malformed inputs
    can be represented and then flagged by check_circuit_axioms.
    """

    pos: frozenset[int]
    neg: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", frozenset(int(e) for e in self.pos))
        object.__setattr__(self, "neg", frozenset(int(e) for e in self.neg))
        if self.pos & self.neg:
            raise ValueError("circuit parts must be disjoint")
        if not (self.pos | self.neg):
            raise ValueError("circuit support must be nonempty")
        if any(e < 1 for e in self.pos | self.neg):
            raise ValueError("elements are 1-based positive integers")

    @staticmethod
    def make(pos, neg) -> "Circuit":
        pos, neg = frozenset(pos), frozenset(neg)
        if not (pos | neg):
            raise ValueError("circuit support must be nonempty")
        if min(pos | neg) in neg:
            pos, neg = neg, pos
        return Circuit(pos, neg)

    @cached_property
    def support(self) -> frozenset[int]:
        return self.pos | self.neg

    def sort_key(self):
        return (len(self.support), tuple(sorted(self.support)), tuple(sorted(self.pos)))

    def __repr__(self) -> str:
        p = ",".join(map(str, sorted(self.pos)))
        n = ",".join(map(str, sorted(self.neg)))
        return f"{{{p}}}|{{{n}}}"


@dataclass(frozen=True, eq=False)
class OrientedMatroid:
    """A ground set together with a finite set of circuits, as sign rows.

    signs is a read-only (m, n) int8 array, +1 on a circuit's positive part
    and -1 on its negative part (column e-1 for element e), its distinct
    rows in Circuit.sort_key order (_ordered_rows); == compares the ground
    sets and the arrays.  from_circuits builds one from Circuits.  Only the
    rows' shape, entries and supports are checked: check_circuit_axioms
    reports a row stored with its smallest element negative, or with its
    negation.
    """

    ground: GroundSet
    signs: np.ndarray

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs, np.int8)
        valid = signs.ndim == 2 and signs.shape[1] == self.n and (np.sign(signs) == signs).all()
        if not valid or not signs.any(axis=1).all():
            raise ValueError(f"circuit sign rows must be nonzero rows of {self.n} entries +1, -1 or 0")
        signs = _ordered_rows(signs)[0]
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)
        _check_width(signs, self.d)

    @classmethod
    def from_circuits(cls, ground: GroundSet, circuits) -> "OrientedMatroid":
        """The matroid of hand-built Circuits, in any order, repeats kept once."""
        return cls(ground, _signs(list(circuits), ground.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedMatroid):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self.signs, other.signs)

    def __hash__(self) -> int:
        return hash((self.ground, self.signs.tobytes()))

    def __repr__(self) -> str:
        return f"OrientedMatroid(ground={self.ground!r}, circuits={self.sorted_circuits!r})"

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def d(self) -> int:
        return self.ground.d

    @property
    def acyclic(self) -> bool:
        return bool(((self.signs > 0).any(axis=1) & (self.signs < 0).any(axis=1)).all())

    @property
    def is_uniform(self) -> bool:
        return bool(((self.signs != 0).sum(axis=1) == self.d + 2).all())

    @cached_property
    def sorted_circuits(self) -> tuple[Circuit, ...]:
        """One Circuit per row of signs, in their order."""
        return tuple(Circuit(**parts) for parts in _circuit_table(self.signs).tolist())

    @cached_property
    def circuits(self) -> frozenset[Circuit]:
        return frozenset(self.sorted_circuits)

    @cached_property
    def modular_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """_modular_pairs(signs), computed on first read, both arrays read-only."""
        a, b = _modular_pairs(self.signs)
        a.flags.writeable = b.flags.writeable = False
        return a, b

    def to_dict(self) -> dict:
        return _plain(self.payload())

    def payload(self) -> dict:
        """to_dict's fields, the circuits as a RecordTable (_circuit_table)."""
        return {"n": self.n, "d": self.d, "circuits": _circuit_table(self.signs)}

    @staticmethod
    def from_dict(data: dict) -> "OrientedMatroid":
        """The matroid to_dict writes; a malformed circuit fails Circuit's checks."""
        return OrientedMatroid.from_circuits(*_read_circuits(data))


def _json_int(value, what: str) -> int:
    """value if it is an int (bools are ints to Python, and int() reads 2.9 as
    one), else ValueError naming what."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _require(data: dict, *keys: str) -> None:
    """ValueError naming the first of keys that the JSON object data lacks."""
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r}")


def _read_circuits(data: dict) -> tuple[GroundSet, list[Circuit]]:
    """The ground set and circuits of a matroid or poset JSON object, every
    key named if missing (_require) and every integer checked by _json_int."""
    _require(data, "n", "d", "circuits")
    ground = GroundSet(_json_int(data["n"], "'n'"), _json_int(data["d"], "'d'"))
    if not isinstance(data["circuits"], list):
        raise ValueError("'circuits' must be a list of circuits, each {\"pos\": [...], \"neg\": [...]}")
    for i, c in enumerate(data["circuits"]):
        if not (isinstance(c, dict) and all(isinstance(c.get(key), list) for key in ("pos", "neg"))):
            raise ValueError(f"circuit {i} of 'circuits' needs 'pos' and 'neg', each a list of elements")
        for key in ("pos", "neg"):
            for e in c[key]:
                _json_int(e, f"an element of '{key}' of circuit {i}")
    return ground, [Circuit(c["pos"], c["neg"]) for c in data["circuits"]]


def _check_width(signs: np.ndarray, d: int) -> None:
    """ValueError naming the first row of signs whose support exceeds d + 2."""
    wide = np.flatnonzero((signs != 0).sum(axis=1) > d + 2)
    if len(wide):
        c = Circuit(**_circuit_table(signs[wide[:1]]).tolist()[0])
        raise ValueError(f"circuit {c!r} has support larger than d + 2 = {d + 2}")


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """n labeled points in R^d, stored as an (n, d) array.

    Degenerate positions (coincident points, collinear triples, ...) are
    allowed; the points merely have to be finite.  Operations that need the
    points to affinely span R^d check that themselves.
    """

    points: np.ndarray
    d: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must form an (n, {self.d}) array")
        if pts.shape[0] < self.d + 2:
            raise ValueError("need at least d + 2 points")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def lifted_matrix(self) -> np.ndarray:
        """The (d+1) x n matrix of coordinates with an appended row of ones.

        Affine dependences of the points are exactly the kernel vectors.
        """
        return np.vstack([self.points.T, np.ones(self.n)])

    @cached_property
    def _minors(self) -> tuple[np.ndarray, np.ndarray]:
        """The bases, the (d+1)-subsets of the points in colex order, and
        the determinant of each one's lifted columns, zero where the rank
        rule finds them singular: one stacked det and one stacked SVD."""
        bases = _colex(self.n, self.d + 1)
        columns = self.lifted_matrix()[:, bases].transpose(1, 0, 2)
        minors = np.linalg.det(columns)
        minors[_rank(np.linalg.svd(columns, compute_uv=False)) < self.d + 1] = 0.0
        return bases, minors

    def affinely_spans(self) -> bool:
        """Some basis passes the rank rule."""
        return bool(self._minors[1].any())

    def to_dict(self) -> dict:
        return {"d": self.d, "points": self.points.tolist()}

    @staticmethod
    def from_dict(data: dict) -> "PointConfiguration":
        """The configuration of a JSON object: d and points must be given
        (_require), d an int (_json_int) and every coordinate a float or an int
        within a float's range (bools are ints to Python; numpy reads "1" as 1)."""
        _require(data, "d", "points")
        d, points = _json_int(data["d"], "'d'"), data["points"]
        if not isinstance(points, list) or not all(
            isinstance(row, list) and all(type(x) in (int, float) for x in row)
            for row in points
        ):
            raise ValueError("'points' must be a list of lists of numbers")
        if len(set(map(len, points))) > 1:
            raise ValueError(f"'points' must have rows of one length, not of lengths {sorted(set(map(len, points)))}")
        try:
            return PointConfiguration(np.asarray(points, dtype=float), d)
        except OverflowError:
            raise ValueError("'points' holds an integer too large for a float") from None


def circuit_dependences(config: PointConfiguration) -> tuple[OrientedMatroid, np.ndarray]:
    """Every signed circuit of a spanning configuration, with its dependence.

    The circuits are read off the lifted maximal minors (_gather_circuits,
    _distinct_circuits): by Cramer's rule the alternating minors of a
    (d+2)-subset are the coefficients of its dependence, so the rank rule
    decides circuits on the bases alone.  Returns the oriented matroid of
    the circuits, its sign rows in Circuit.sort_key order (_ordered_rows),
    and their dependences, one length-n vector per row, max-abs
    normalized, zero off the support and positive on the smallest element
    (Bjorner, Las Vergnas, Sturmfels, White & Ziegler, Oriented Matroids,
    ch. 3).
    """
    if not config.affinely_spans():
        raise RankDeficientError("points do not affinely span R^d")
    gathered = _gather_circuits(config._minors[1][None], config.n, config.d + 1)
    spans, values, _ = _distinct_circuits(*gathered, config.n)
    values = values / np.abs(values).max(axis=1, keepdims=True)
    x = np.zeros((len(spans), config.n))
    x[np.arange(len(spans))[:, None], spans] = np.where(values != 0, values, 0.0)
    signs, at = _ordered_rows(np.sign(x).astype(np.int8))
    return OrientedMatroid(GroundSet(config.n, config.d), signs), x[np.argsort(at)]


def circuits_of_points(config: PointConfiguration) -> OrientedMatroid:
    """All signed circuits of a spanning point configuration.

    These are the circuits of circuit_dependences: the rank rule
    (KERNEL_RTOL) decides which bases are singular, and no coefficient is
    rounded to zero.
    """
    return circuit_dependences(config)[0]


def same_chirotope(a: PointConfiguration, b: PointConfiguration) -> bool:
    """Whether two spanning configurations have the same signed circuits.

    Their circuits are equal iff their chirotopes, the signs of the lifted
    maximal minors after the rank rule (PointConfiguration._minors), agree
    up to one global sign (Bjorner, Las Vergnas, Sturmfels, White &
    Ziegler, Oriented Matroids, Thm 3.5.5): one sign per basis, no circuit
    built.
    """
    if (a.n, a.d) != (b.n, b.d):
        return False
    sa, sb = np.sign(a._minors[1]), np.sign(b._minors[1])
    return bool(np.array_equal(sa, sb) or np.array_equal(sa, -sb))


def weak_map_leq(m: OrientedMatroid, m2: OrientedMatroid) -> bool:
    """Weak-map order: m <= m2 iff every circuit A|B of m2 is a Radon
    partition of m, that is, some circuit C of m has C+ <= A, C- <= B or swapped."""
    if m.ground != m2.ground:
        raise ValueError("matroids must share the same ground set")
    return all(
        any((c.pos <= a.pos and c.neg <= a.neg) or (c.pos <= a.neg and c.neg <= a.pos) for c in m.circuits)
        for a in m2.circuits
    )


# Sign vectors.  This module alone knows their encodings: _signs turns
# anything with .pos/.neg element sets into a +1/-1/0 int8 matrix (one row
# per vector, column e-1 for element e), _ordered_rows sorts such rows by
# Circuit.sort_key, _circuit_table lists their parts, _pack turns them into
# the kernel's rows, _distinct_circuits builds the rows of the circuits
# that _gather_circuits reads off basis values, _supports is the one
# reader of kernel rows' supports (other modules import no word layout)
# and _eliminations builds every weak-elimination target.  In a kernel
# row, element e lives in word (e-1) // 32 of ceil(n/32) uint64 words, its
# positive bit at 32 + (e-1) % 32 and its negative bit at (e-1) % 32, so a
# row holds a sign vector of any length.  Z conforms to S (Z+ <= S+ and
# Z- <= S-) iff Z & ~S is zero in every word, X o Y is X | Y for conformal
# X, Y, and -X swaps the halves of each word.
#
# _conforming answers "does z[j] conform to s[i]" for every pair by byte
# tables (the "Four Russians" trick of Arlazarov, Dinic, Kronrod &
# Faradzev, 1970).  Rows are read as bytes; for each byte position where
# some z row has a set bit (and the first), a 256-entry table maps a byte
# value v of s to the bitset of z rows with a bit of that byte outside v,
# built as the OR of two 16-entry nibble tables.  A row of s then costs one
# lookup per such byte (four at n <= 16), OR-ed and negated.  A bitset is
# ceil(len(z)/64) uint64 words, z row j at bit j % 64 of word j // 64;
# _pairs lists the set bits of a block of them as index pairs, _counts
# counts them per row by a byte table, and _conformity unpacks them into a
# bool matrix.  The tables hold either byte order, as z and s are read
# alike; bitsets cross a byte view only as little-endian ('<u8') words.
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_BITS = np.uint64(1) << np.arange(32, dtype=np.uint64)
_HALVES = np.array([0, 4], np.uint8)[:, None, None]  # the two nibbles of a byte
_OUTSIDE = np.arange(15, -1, -1, dtype=np.uint8)[:, None]  # 15 - u: the bits outside u
_LE = np.dtype("<u8")
_SIGN_OF_PART = np.array([1, -1], np.int8)
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, np.uint8)
_BLOCK_WORDS = 1 << 16  # 8-byte words of intermediate per kernel or target block


def _signs(vectors, n: int) -> np.ndarray:
    """+1 on each vector's pos, -1 on its neg, 0 elsewhere; one int8 row each.

    One scatter: the parts are listed pos, neg, pos, neg, ... and part p
    fills row p // 2 with +1 or -1 as p is even or odd.  A vector with an
    element beyond n raises ValueError, naming the first.
    """
    parts = [part for v in vectors for part in (v.pos, v.neg)]
    sizes = list(map(len, parts))
    part = np.repeat(np.arange(len(parts)), sizes)
    elements = np.fromiter(itertools.chain.from_iterable(parts), np.intp, len(part))
    if (elements > n).any():
        v = vectors[part[np.argmax(elements > n)] >> 1]
        raise ValueError(f"circuit {v!r} uses an element beyond n={n}")
    out = np.zeros((len(vectors), n), np.int8)
    out[part >> 1, elements - 1] = _SIGN_OF_PART[part & 1]
    return out


def _ordered_rows(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a +1/-1/0 matrix in Circuit.sort_key order, and
    for each input row the index of its copy.  The key is the support size,
    then the support and the positive part ascending, a prefix first: one
    np.lexsort, the support padded past n and the positive part with -1."""
    n = signs.shape[1]
    column = np.arange(n)
    support = np.sort(np.where(signs != 0, column, n), axis=1)
    pos = np.sort(np.where(signs > 0, column, n), axis=1)
    pos[pos == n] = -1
    order = np.lexsort(np.vstack([pos.T[::-1], support.T[::-1], (signs != 0).sum(axis=1)]))
    rows = signs[order]
    fresh = np.ones(len(rows), bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    which = np.empty(len(rows), np.intp)
    which[order] = np.cumsum(fresh) - 1
    return rows[fresh], which


@dataclass(frozen=True, eq=False)
class Ragged:
    """Lists of ints held as int arrays: list r is values[offsets[r] :
    offsets[r + 1]], offsets[0] is 0 and offsets[-1] is len(values).  The
    package's one form of a list of int lists: circuit parts, facets,
    cycles, census elements and lower covers."""

    offsets: np.ndarray
    values: np.ndarray

    @staticmethod
    def sized(lengths, values) -> "Ragged":
        """The lists of the given lengths that values holds in turn."""
        offsets = np.zeros(len(lengths) + 1, np.intp)
        np.cumsum(lengths, dtype=np.intp, out=offsets[1:])
        return Ragged(offsets, values)

    @staticmethod
    def grouped(lower: np.ndarray, upper: np.ndarray, k: int) -> "Ragged":
        """The pairs (lower, upper) over range(k) grouped by upper: list x
        holds the lower ends of the pairs of x, ascending.

        Every lower end is below k, so the keys upper * k + lower order the
        pairs by upper, then lower, and one stable sort of them groups them.
        Timsort takes keys that already ascend, as the ends (j, i) of
        row-major pairs (i, j) do, in one run."""
        order = np.argsort(upper * k + lower, kind="stable")
        return Ragged.sized(np.bincount(upper, minlength=k), lower[order])

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[i]
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def fan(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, position): position runs over the values of list x for
        each x in rows in turn, and owner holds the index in rows of its x."""
        first, fan = self.offsets[rows], self.offsets[rows + 1] - self.offsets[rows]
        owner = np.repeat(np.arange(len(rows)), fan)
        return owner, np.arange(len(owner)) + (first - (np.cumsum(fan) - fan))[owner]

    def take(self, rows: np.ndarray) -> "Ragged":
        """The lists named by rows, in their order."""
        return Ragged.sized(self.lengths[rows], self.values[self.fan(rows)[1]])

    def tolist(self) -> list[list[int]]:
        values, offsets = self.values.tolist(), self.offsets.tolist()
        return [values[a:b] for a, b in zip(offsets, offsets[1:])]


@dataclass(frozen=True, eq=False)
class RecordTable:
    """A list of records held as int arrays, one per key: record r maps a
    key with a 1-D array to its entry r, and a key with a Ragged to its
    list r.  The CLI writes it without building a record (cli._table_text);
    tolist() builds the list of dicts it stands for."""

    fields: dict

    def __len__(self) -> int:
        """The number of records: the length of any field, 0 with none."""
        return len(next(iter(self.fields.values()), ()))

    def tolist(self) -> list[dict]:
        columns = [value.tolist() for value in self.fields.values()]
        return [dict(zip(self.fields, entries)) for entries in zip(*columns)]


def _plain(payload: dict) -> dict:
    """payload with each RecordTable, Ragged or array in it as its lists."""
    tables = (RecordTable, Ragged, np.ndarray)
    return {key: v.tolist() if isinstance(v, tables) else v for key, v in payload.items()}


def _circuit_table(signs: np.ndarray) -> RecordTable:
    """The records {"pos": [...], "neg": [...]} of the rows of a +1/-1/0
    matrix, each part's elements ascending."""
    parts = {}
    for key, signed in (("pos", signs > 0), ("neg", signs < 0)):
        row, col = np.nonzero(signed)
        parts[key] = Ragged.sized(np.bincount(row, minlength=len(signs)), col + 1)
    return RecordTable(parts)


def _pack(signs: np.ndarray) -> np.ndarray:
    """Kernel rows of a +1/-1/0 matrix."""
    k, n = signs.shape
    words = -(-n // 32)
    grid = np.zeros((k, words, 32), np.int8)
    grid.reshape(k, 32 * words)[:, :n] = signs
    pos = ((grid > 0) * _BITS).sum(axis=2, dtype=np.uint64)
    return pos << _HALF | ((grid < 0) * _BITS).sum(axis=2, dtype=np.uint64)


def _supports(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct supports of kernel rows as an (m, n) bool matrix, in the
    order of their bitmasks read as integers, and for each row the index of
    its support.  The support words, most significant first and each
    big-endian, compare as bytes (_unique_rows) as those integers do."""
    words = (rows >> _HALF | rows) & _LOW
    _, first, which = _unique_rows(words[:, ::-1].astype(">u8"))
    bits = words[first, :, None] & _BITS != 0
    return bits.reshape(len(first), 32 * words.shape[1])[:, :n], which


def _colex(n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n) as rows of ascending elements, in colex
    order: by largest element, then by the next largest, and so on."""
    subsets = np.array(list(itertools.combinations(range(n), r)), np.intp).reshape(-1, r)
    return subsets[np.lexsort(subsets.T)]


def _gather_circuits(values: np.ndarray, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The circuit each span of each row of basis values holds.

    values has one row per oriented matroid of rank r on range(n) and one
    column per r-subset in colex order (_colex): a chirotope's signs, or a
    configuration's lifted maximal minors.  The span S = (x_0 < ... < x_r)
    holds one circuit, with values (-1)^i values(S - x_i), unless all of
    them are zero, and every circuit lies in some span (Bjorner et al.,
    ch. 3).  The column of S - x_i is its colex rank, sum_j C(s_j, j + 1).

    Returns spans, the (r+1)-subsets in colex order, and vals, the (rows,
    spans, r+1) array of those values, each span's signed positive on its
    first nonzero; a span of all zeros holds no circuit.
    """
    spans = _colex(n, r + 1)
    binom = np.zeros((n, r + 1), np.int64)  # binom[e, k] = C(e, k)
    binom[:, 0] = 1
    for k in range(1, r + 1):
        binom[1:, k] = np.cumsum(binom[:-1, k - 1])
    facets = spans[:, np.nonzero(~np.eye(r + 1, dtype=bool))[1].reshape(r + 1, r)]
    vals = values[:, binom[facets, np.arange(1, r + 1)].sum(axis=2)]
    vals[:, :, 1::2] *= -1
    lead = np.take_along_axis(vals, (vals != 0).argmax(axis=2)[:, :, None], axis=2)
    return spans, np.where(lead < 0, -vals, vals)


def _distinct_circuits(spans: np.ndarray, vals: np.ndarray, n: int):
    """The distinct circuits of _gather_circuits' spans and vals.

    Circuits are told apart by their kernel sign rows, built word by word
    from the spans.  Returns two (circuits, r+1) arrays, each distinct
    circuit's first span (rows in order, spans in colex order) and its
    values there; and held, the (rows, spans) array of the circuit each
    span holds, -1 for none.
    """
    word, bit = np.divmod(spans, 32)
    bits = (vals != 0) * (np.uint64(1) << (bit + 32 * (vals > 0)).astype(np.uint64))
    in_word = word[:, :, None] == np.arange(-(-n // 32))
    rows = (bits[..., None] * in_word).sum(axis=2, dtype=np.uint64)
    nonzero = (vals != 0).any(axis=2)
    _, first, which = _unique_rows(rows[nonzero])
    held = np.full(nonzero.shape, -1, np.intp)
    held[nonzero] = which
    return spans[np.nonzero(nonzero)[1][first]], vals[nonzero][first], held


def _negated(rows: np.ndarray) -> np.ndarray:
    return rows << _HALF | rows >> _HALF


def _keys(rows: np.ndarray) -> np.ndarray:
    """One key per row for _distinct: the word itself when a row has one,
    else the row's bytes, which compare as bytes."""
    rows = np.ascontiguousarray(rows)
    return (rows.view(np.dtype((np.void, 8 * rows.shape[1]))) if rows.shape[1] > 1 else rows)[:, 0]


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of 1-D int or void keys, ascending, the index of
    each one's first occurrence, and for each key the index of its value:
    numpy's unique with return_index and return_inverse, and the package's
    one distinct-values routine.  One default argsort puts equal keys in
    runs, in no set order within a run, so a run's first occurrence is its
    least index (np.minimum.reduceat).  unique's stable sort costs about
    twice as much, and numpy 2's unique imports numpy.ma when asked for the
    values alone."""
    order = keys.argsort()
    ordered = keys[order]
    start = np.ones(len(keys), bool)
    start[1:] = ordered[1:] != ordered[:-1]
    runs = np.flatnonzero(start)
    which = np.empty(len(keys), np.intp)
    which[order] = np.cumsum(start) - 1
    return ordered[runs], np.minimum.reduceat(order, runs) if len(runs) else runs, which


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows in the order of their keys (_distinct), the index
    of each one's first occurrence, and for each row the index of its copy."""
    _, first, which = _distinct(_keys(rows))
    return rows[first], first, which


def _conforming(z: np.ndarray, s: np.ndarray):
    """Yield (start, bits): bit j of bits[i] says z[j] conforms to s[start + i].

    The one conformance kernel of the combinatorial layer: the axiom check,
    the circuit graph, the cell closure, the weak-map order and its covers
    reduce to it.  X and Y are conformal iff X conforms to ~(-Y).  z and s
    may be rows of any equal width in bytes, packed bool rows included, on
    which "conforms" reads "is a subset of"; rows of no bytes all conform.
    bits is a block of bitsets over the rows of z (see above), zero past
    len(z).  A block holds at most _BLOCK_WORDS bitset words and at most
    8 * _BLOCK_WORDS (z row, s row) pairs, so that callers which list the
    pairs of a block before taking the next stay bounded.  An empty s still
    yields one (empty) block.
    """
    k = len(z)
    words = -(-k // 64)
    zb = np.ascontiguousarray(z).view(np.uint8)
    sb = np.ascontiguousarray(s).view(np.uint8)
    if not zb.shape[1]:  # rows of no bytes read as one zero byte each
        zb, sb = np.zeros((k, 1), np.uint8), np.zeros((len(s), 1), np.uint8)
    used = zb.any(axis=0)
    used[:1] = True  # at least one table, to hold the rows past len(z)
    used = np.flatnonzero(used)
    # the bitset of z rows with a bit of each nibble of byte used[b]
    # outside u, for every u; rows past len(z) are set in every entry of
    # the first table, so that they never read as conforming
    flags = np.zeros((len(used), 2, 16, 64 * words), bool)
    flags[..., :k] = zb[:, used].T[:, None, None] >> _HALVES & _OUTSIDE
    flags[0, 0, :, k:] = True
    nibble = np.packbits(flags, axis=3, bitorder="little").view(_LE)
    nibble = nibble.astype(np.uint64, copy=False)
    tables = nibble[:, 1, :, None] | nibble[:, 0, None, :]  # [b, v >> 4, v & 15]
    tables = tables.reshape(len(used), 256, words)
    sb = sb[:, used]
    step = max(1, min(_BLOCK_WORDS // max(1, words), 8 * _BLOCK_WORDS // max(1, k)))
    for start in range(0, max(1, len(s)), step):
        block = sb[start : start + step]
        outside = np.zeros((len(block), words), np.uint64)
        looked = np.empty_like(outside)
        for b, table in enumerate(tables):
            outside |= table.take(block[:, b], axis=0, out=looked, mode="clip")
        yield start, np.invert(outside, out=outside)


def _pairs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every set bit j of bits[i], in np.nonzero's row-major order."""
    row, word = np.nonzero(bits)
    octets = bits[row, word].astype(_LE, copy=False).view(np.uint8)
    at, bit = np.divmod(np.flatnonzero(np.unpackbits(octets, bitorder="little").view(bool)), 64)
    return row[at], word[at] * 64 + bit


def _counts(bits: np.ndarray) -> np.ndarray:
    """The number of set bits in each row of a block of bitsets."""
    return _POPCOUNT.take(bits.view(np.uint8)).sum(axis=1, dtype=np.intp)


def _conformity(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The bool matrix of _conforming: out[i, j] says z[j] conforms to s[i]."""
    octets = [bits.astype(_LE, copy=False).view(np.uint8) for _, bits in _conforming(z, s)]
    flags = np.unpackbits(np.concatenate(octets), axis=1, count=len(z), bitorder="little")
    return flags.view(bool)


def _height_two(supports: np.ndarray, unions: np.ndarray, n: int) -> np.ndarray:
    """Whether each of unions, kernel rows of unions of two distinct
    supports, has height 2 in the lattice of unions of supports, the
    distinct supports' kernel rows.

    U has height 2 iff no f in U leaves two supports inside U \\ f: two
    such, Z1 not inside Z2, make a chain 0 < Z2 < Z1 u Z2 < U, and a chain
    0 < A < B < U leaves a support inside A and one inside B but not A
    within U \\ f, for f in U outside B.  The kernel counts the supports
    inside each U \\ f (_counts), _BLOCK_WORDS words of them at a time.
    """
    unit = _pack(np.eye(n, dtype=np.int8))
    word, bit = unit.nonzero()[1], unit.max(axis=1)  # element f is bit[f] of word[f]
    height_two = np.ones(len(unions), bool)
    step = max(1, _BLOCK_WORDS // (n * (unions.shape[1] + 2)))
    for start in range(0, len(unions), step):
        u, f = np.nonzero(unions[start : start + step, word] & bit)
        targets = unions[start + u] & ~unit[f]
        crowded = np.concatenate([_counts(bits) > 1 for _, bits in _conforming(supports, targets)])
        height_two[start + u[crowded]] = False
    return height_two


def _eliminations(signs: np.ndarray, signed: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The weak-elimination tests of the circuit pairs (a[k], b[k]), rows of
    signs, as (x, y, e, failed): one test for each e in both supports, on X
    and Y' the pair's rows of signed (+c_k row 2k, -c_k row 2k + 1) with e
    positive.  failed says that no row of signed conforms to the target
    (X | -Y') \\ e.  The test stands for (X, -Y', e) and for (Y', -X, e),
    whose target is its negation, as the rows come in both signs.  A test
    with X = Y', a circuit stored with its reversal, is skipped."""
    unit = _pack(np.eye(signs.shape[1], dtype=np.int8))
    clear = ~(unit | _negated(unit))  # clear[e] drops element e from a row
    p, e = np.nonzero(signs[a] * signs[b])
    a, b = a[p], b[p]
    x, y = 2 * a + (signs[a, e] < 0), 2 * b + (signs[b, e] < 0)
    tested = (signed[x] != signed[y]).any(axis=1)
    x, y, e = x[tested], y[tested], e[tested]
    targets = (signed[x] | _negated(signed[y])) & clear[e]
    return x, y, e, ~np.concatenate([bits.any(axis=1) for _, bits in _conforming(signed, targets)])


def _modular_pairs(signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b of rows of signs with distinct supports whose union
    has height 2 in the lattice of unions of supports (_height_two).

    The unions of all such pairs, disjoint ones included, are formed at
    most _BLOCK_WORDS words of pairs at a time and merged into the distinct
    ones once those waiting outnumber the merged by 8 * _BLOCK_WORDS.  Two
    distinct supports inside a union U of height 2, Z2 not inside Z1, have
    the union U, or they would make a chain 0 < Z1 < Z1 u Z2 < U, so the
    modular pairs are the pairs of distinct supports inside each U, which
    the kernel lists.
    """
    k, n = signs.shape
    supports = _pack(np.abs(signs))
    words = supports.shape[1]
    step = max(1, _BLOCK_WORDS // max(1, k * (words + 1)))
    unions, waiting = [np.zeros(0, _keys(supports[:0]).dtype)], 0
    for start in range(0, k, step):
        block = supports[start : start + step, None]
        distinct = np.triu((block != supports).any(axis=2), start + 1)
        unions.append(_keys((block | supports)[distinct]))
        waiting += len(unions[-1])
        if waiting > len(unions[0]) + 8 * _BLOCK_WORDS:
            unions, waiting = [_distinct(np.concatenate(unions))[0]], 0
    unions = _distinct(np.concatenate(unions))[0]
    unions = np.ascontiguousarray(unions).view(np.uint64).reshape(len(unions), words)
    unions = unions[_height_two(_unique_rows(supports)[0], unions, n)]
    found = []
    for _, bits in _conforming(supports, unions):
        union, inside = _pairs(bits)  # the supports inside each union, ascending
        later = np.searchsorted(union, union, "right") - np.arange(len(union)) - 1
        first = np.repeat(np.arange(len(union)), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        a, b = inside[first], inside[second]
        distinct = (supports[a] != supports[b]).any(axis=1)
        found.append((a[distinct], b[distinct]))
    return tuple(np.concatenate(part) for part in zip(*found))


# check_circuit_axioms lists at most this many weak-elimination violations
ELIMINATION_CAP = 200


@dataclass
class AxiomReport:
    """Outcome of the circuit-axiom checks, one violation list per axiom.

    weak_elimination stops at ELIMINATION_CAP entries; elimination_truncated
    says that more violations exist beyond them.
    """

    support_minimality: list[str]
    canonicalization: list[str]
    weak_elimination: list[str]
    elimination_truncated: bool = False

    @property
    def ok(self) -> bool:
        return not (
            self.support_minimality or self.canonicalization or self.weak_elimination
        )

    def summary(self) -> str:
        if self.ok:
            return "all circuit axioms hold"
        parts = []
        for name, lst in [
            ("support-minimality", self.support_minimality),
            ("canonicalization", self.canonicalization),
            ("weak-elimination", self.weak_elimination),
        ]:
            if lst:
                cut = lst is self.weak_elimination and self.elimination_truncated
                more = " (list truncated, more exist)" if cut else ""
                parts.append(f"{name}: {len(lst)} violation(s){more}, e.g. {lst[0]}")
        return "; ".join(parts)


def check_circuit_axioms(m: OrientedMatroid) -> AxiomReport:
    """Report-only verification of the signed circuit axioms.

    Checks pairwise support-minimality, the canonical-orientation storage
    convention (with duplicate reversed pairs flagged), and weak elimination:
    for signed circuits X != -Y and any e in X+ n Y- there must be a signed
    circuit Z with Z+ <= (X+ u Y+) \\ e and Z- <= (X- u Y-) \\ e (Bjorner,
    Las Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, ch. 3).

    When the supports are minimal, elimination is first tested on the
    modular pairs alone (m.modular_pairs, the matroid's one list, which the
    circuit graph's edges come from too), which proves it on every pair
    when they pass (Bjorner et al., 3.2.5); the list is then empty.  A
    modular failure, or a minimality violation, runs the listing of every
    failure, which tests every pair of circuits whose supports meet by
    _eliminations, in blocks of circuit pairs.  Violations are listed in
    (X, Y, e) order, X and Y running over the sorted circuits, each
    positive then negative.
    """
    signs, n = m.signs, m.n
    minimality: list[str] = []
    canonical: list[str] = []

    def c(i: int) -> Circuit:  # row i as a Circuit, for a message
        return m.sorted_circuits[i]

    supports = _pack(np.abs(signs))
    inside = _conformity(supports, supports)  # [i, j]: support j <= support i
    sizes = (signs != 0).sum(axis=1)
    for i, j in zip(*np.nonzero(np.triu(inside | inside.T, 1))):
        if sizes[i] == sizes[j]:
            minimality.append(f"{c(i)!r} and {c(j)!r} share their support")
        elif sizes[i] < sizes[j]:
            minimality.append(f"support of {c(i)!r} is strictly inside {c(j)!r}")
        else:
            minimality.append(f"support of {c(j)!r} is strictly inside {c(i)!r}")

    both = np.hstack([signs, -signs]).reshape(-1, n)  # +c_k is row 2k, -c_k row 2k + 1
    signed = _pack(both)
    which = _unique_rows(signed)[2]
    negative = signs[np.arange(len(signs)), (signs != 0).argmax(axis=1)] < 0
    stored = np.zeros(len(signed), bool)  # stored[r]: distinct row r is some +c_k
    stored[which[0::2]] = True
    reversed_ = stored[which[1::2]]
    for i in np.flatnonzero(negative | reversed_):
        if negative[i]:
            canonical.append(f"{c(i)!r} is stored with its smallest element negative")
        if reversed_[i]:
            canonical.append(f"{c(i)!r} is stored together with its reversal")

    if not minimality and not _eliminations(signs, signed, *m.modular_pairs)[3].any():
        return AxiomReport(minimality, canonical, [])

    # the pairs a < b of circuits whose supports meet, a block of a at a
    # time, its targets (up to d + 2 a pair) within _BLOCK_WORDS words; the
    # first ELIMINATION_CAP + 1 failures are kept
    step = max(1, _BLOCK_WORDS // max(1, len(signs) * (m.d + 2) * (supports.shape[1] + 4)))
    failures = np.zeros((3, 0), np.intp)
    for start in range(0, len(signs), step):
        a, b = np.nonzero(np.triu((supports[start : start + step, None] & supports).any(axis=2), start + 1))
        x, y, e, failed = _eliminations(signs, signed, start + a, b)
        x, y, e = x[failed], y[failed], e[failed]
        failures = np.hstack([failures, [x, y ^ 1, e], [y, x ^ 1, e]])
        failures = failures[:, np.lexsort(failures[::-1])[: ELIMINATION_CAP + 1]]
    elimination = [
        f"no circuit eliminates element {e + 1} between "
        f"{'-' if i % 2 else '+'}{c(i // 2)!r} and "
        f"{'-' if j % 2 else '+'}{c(j // 2)!r}"
        for i, j, e in failures.T.tolist()[:ELIMINATION_CAP]
    ]
    return AxiomReport(minimality, canonical, elimination, failures.shape[1] > ELIMINATION_CAP)

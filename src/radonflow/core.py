"""Oriented matroids represented by their signed circuits.

A circuit of a point configuration is an inclusion-minimal affinely
dependent subset, carrying the sign split A|B of its (unique up to scale)
affine dependence: sum_i lam_i p_i = 0 with sum_i lam_i = 0, A the elements
with lam_i > 0 and B those with lam_i < 0.  Equivalently A|B is a minimal
Radon partition: conv(A) and conv(B) intersect, and no proper subset has
that property.  Circuits are stored unsigned-canonically, with the smallest
element of A u B in the positive part; the two orientations of a circuit
are handled by SignedCircuitVertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# The package's numerical tolerances, in one place.
#
# KERNEL_RTOL     relative singular-value threshold of the rank rule (_rank): a
#                 matrix's rank counts its singular values above this times
#                 max(1, largest).  This alone decides which supports are
#                 circuits and the dimension of every cell of a Radon complex.
# EPS_SIGN        a position coordinate of magnitude <= EPS_SIGN reads as zero
#                 (EmbeddedSphere's face check), and a neighbor direction this
#                 short makes the curvature undefined.
# EPS_MEM         tolerance of the polytope's two defining equations, and the
#                 smallest 1-norm that can be rescaled onto the polytope.
# EPS_FLAT        relative singular-value threshold of recover_configuration:
#                 flat positions have exactly n - d - 1 singular values above
#                 this times the largest.
# COLLISION_DIST  two flow positions this close count as a collision.
# MIN_STEP        a flow step that must shrink below this to decrease the
#                 energy ends the run as stalled.
# TOL_CURV        a flow run converges once its largest vertex curvature is
#                 below this.
KERNEL_RTOL = 1e-10
EPS_SIGN = 1e-9
EPS_MEM = 1e-8
EPS_FLAT = 1e-6
COLLISION_DIST = 1e-10
MIN_STEP = 1e-10
TOL_CURV = 1e-8


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

    @property
    def support(self) -> frozenset[int]:
        return self.pos | self.neg

    @property
    def is_canonical(self) -> bool:
        return min(self.support) in self.pos

    def sort_key(self):
        return (len(self.support), tuple(sorted(self.support)), tuple(sorted(self.pos)))

    def __repr__(self) -> str:
        p = ",".join(map(str, sorted(self.pos)))
        n = ",".join(map(str, sorted(self.neg)))
        return f"{{{p}}}|{{{n}}}"


@dataclass(frozen=True)
class SignedCircuitVertex:
    """One orientation of a circuit; the vertices of the circuit graph."""

    circuit: Circuit
    orientation: int

    def __post_init__(self) -> None:
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def pos(self) -> frozenset[int]:
        return self.circuit.pos if self.orientation == 1 else self.circuit.neg

    @property
    def neg(self) -> frozenset[int]:
        return self.circuit.neg if self.orientation == 1 else self.circuit.pos

    @property
    def support(self) -> frozenset[int]:
        return self.circuit.support

    def antipode(self) -> "SignedCircuitVertex":
        return SignedCircuitVertex(self.circuit, -self.orientation)

    def __repr__(self) -> str:
        sgn = "+" if self.orientation == 1 else "-"
        return f"{sgn}{self.circuit!r}"


@dataclass(frozen=True)
class OrientedMatroid:
    """A ground set together with a finite set of circuits.

    The constructor checks only basic well-formedness (element ranges and
    support sizes); structural axioms are verified separately by
    check_circuit_axioms so that defective hand-entered inputs can be
    represented and reported on.
    """

    ground: GroundSet
    circuits: frozenset[Circuit]

    def __post_init__(self) -> None:
        object.__setattr__(self, "circuits", frozenset(self.circuits))
        for c in self.circuits:
            if any(e > self.ground.n for e in c.support):
                raise ValueError(f"circuit {c!r} uses an element beyond n={self.ground.n}")
            if len(c.support) > self.ground.d + 2:
                raise ValueError(
                    f"circuit {c!r} has support larger than d + 2 = {self.ground.d + 2}"
                )

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def d(self) -> int:
        return self.ground.d

    @property
    def acyclic(self) -> bool:
        return all(c.pos and c.neg for c in self.circuits)

    @property
    def is_uniform(self) -> bool:
        return all(len(c.support) == self.d + 2 for c in self.circuits)

    def sorted_circuits(self) -> list[Circuit]:
        return sorted(self.circuits, key=Circuit.sort_key)

    def circuit_key(self) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
        return frozenset(
            (tuple(sorted(c.pos)), tuple(sorted(c.neg))) for c in self.circuits
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "circuits": [
                {"pos": sorted(c.pos), "neg": sorted(c.neg)}
                for c in self.sorted_circuits()
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "OrientedMatroid":
        ground = GroundSet(int(data["n"]), int(data["d"]))
        cs = frozenset(
            Circuit(frozenset(c["pos"]), frozenset(c["neg"])) for c in data["circuits"]
        )
        return OrientedMatroid(ground, cs)


@dataclass(frozen=True)
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

    def affinely_spans(self) -> bool:
        s = np.linalg.svd(self.lifted_matrix(), compute_uv=False)
        return bool(_rank(s) == self.d + 1)

    def to_dict(self) -> dict:
        return {"d": self.d, "points": [list(map(float, row)) for row in self.points]}

    @staticmethod
    def from_dict(data: dict) -> "PointConfiguration":
        pts = np.asarray(data["points"], dtype=float)
        return PointConfiguration(pts, int(data["d"]))


def circuit_dependences(config: PointConfiguration) -> dict[Circuit, np.ndarray]:
    """Every signed circuit of a spanning configuration, with its dependence.

    Supports are scanned by increasing size, skipping supersets of circuits
    already found.  The rank test alone decides: a support is a circuit when
    its lifted columns have rank below its size (KERNEL_RTOL).  Its signs
    are read off the kernel vector, which is returned as a length-n vector,
    max-abs normalized, zero off the support and positive on the smallest
    element (Bjorner, Las Vergnas, Sturmfels, White & Ziegler, Oriented
    Matroids, ch. 3).  The dict lists the circuits in scan order.

    A size level runs in blocks of candidate supports in lexicographic
    order, each small enough that its stacked matrices (lifted columns,
    both sets of singular vectors, length-n dependences) stay within
    _BLOCK_WORDS floats.  A block drops the supersets of earlier circuits
    with one conformance-kernel pass over support rows (no limit on n),
    then takes the SVD of every survivor in one stacked np.linalg.svd call.
    Supports of one size never contain each other, so only circuits of
    smaller levels can rule a candidate out.
    """
    if not config.affinely_spans():
        raise RankDeficientError("points do not affinely span R^d")
    n = config.n
    lifted = config.lifted_matrix()
    found: dict[Circuit, np.ndarray] = {}
    supports = np.zeros((0, -(-n // 32)), np.uint64)  # support rows of the circuits
    for size in range(2, config.d + 3):
        level = itertools.combinations(range(n), size)
        step = max(1, _BLOCK_WORDS // ((config.d + 1 + size) ** 2 + n))
        new_supports = []
        while block := list(itertools.islice(level, step)):
            subs = np.array(block, dtype=np.intp)
            rows = _support_rows(subs, n)
            if len(supports):
                free = ~np.concatenate([b.any(axis=1) for _, b in _conforming(supports, rows)])
                subs, rows = subs[free], rows[free]
                if not len(subs):
                    continue
            _, s, vt = np.linalg.svd(lifted[:, subs].transpose(1, 0, 2))
            dependent = _rank(s) < size
            subs, rows, v = subs[dependent], rows[dependent], vt[dependent, -1]
            v = v / np.abs(v).max(axis=1, keepdims=True)
            at = np.arange(len(subs))[:, None]
            x = np.zeros((len(subs), n))
            x[at, subs] = v
            flip = v[:, 0] < 0
            x[flip] = -x[flip]  # the whole row, so zeros off the support turn -0.0
            for sub, vals, vec in zip(subs.tolist(), x[at, subs].tolist(), x):
                c = Circuit.make(
                    (e + 1 for e, val in zip(sub, vals) if val > 0),
                    (e + 1 for e, val in zip(sub, vals) if val < 0),
                )
                found[c] = vec
            new_supports.append(rows)
        supports = np.concatenate([supports] + new_supports)
    return found


def circuits_of_points(config: PointConfiguration) -> OrientedMatroid:
    """All signed circuits of a spanning point configuration.

    These are the circuits of circuit_dependences: a support is a circuit
    exactly when the rank test (KERNEL_RTOL) finds its lifted columns
    dependent and no smaller circuit lies inside it; no coefficient is
    rounded to zero.
    """
    return OrientedMatroid(
        GroundSet(config.n, config.d), frozenset(circuit_dependences(config))
    )


def is_radon_partition(m: OrientedMatroid, a, b) -> bool:
    """True when some circuit of m nests in (a, b): A <= a, B <= b or swapped."""
    a, b = frozenset(int(e) for e in a), frozenset(int(e) for e in b)
    if a & b:
        raise ValueError("the two blocks must be disjoint")
    if any(e < 1 or e > m.n for e in a | b):
        raise ValueError("block element out of range")
    for c in m.circuits:
        if (c.pos <= a and c.neg <= b) or (c.pos <= b and c.neg <= a):
            return True
    return False


def weak_map_leq(m: OrientedMatroid, m2: OrientedMatroid) -> bool:
    """Weak-map order: m <= m2 iff every circuit of m2 is a Radon partition of m."""
    if m.ground != m2.ground:
        raise ValueError("matroids must share the same ground set")
    return all(is_radon_partition(m, c.pos, c.neg) for c in m2.circuits)


# Sign vectors.  This module alone knows their encodings: _signs turns
# anything with .pos/.neg element sets into a +1/-1/0 int8 matrix (one row
# per vector, column e-1 for element e), _pack turns that matrix into the
# kernel's rows and _supports reads their distinct supports back.  In a
# kernel row, element e lives in word (e-1) // 32 of ceil(n/32) uint64
# words, its positive bit at 32 + (e-1) % 32 and its negative bit at
# (e-1) % 32, so a row holds a sign vector of any length.  Z conforms to S
# (Z+ <= S+ and Z- <= S-) iff Z & ~S is zero in every word, X o Y is X | Y
# for conformal X, Y, and -X swaps the halves of each word.
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_BITS = np.uint64(1) << np.arange(32, dtype=np.uint64)
_BLOCK_WORDS = 1 << 16  # 8-byte words of intermediate per kernel or SVD block


def _signs(vectors, n: int) -> np.ndarray:
    """+1 on each vector's pos, -1 on its neg, 0 elsewhere; one int8 row each."""
    out = np.zeros((len(vectors), n), np.int8)
    for k, v in enumerate(vectors):
        out[k, [e - 1 for e in v.pos]] = 1
        out[k, [e - 1 for e in v.neg]] = -1
    return out


def _pack(signs: np.ndarray) -> np.ndarray:
    """Kernel rows of a +1/-1/0 matrix."""
    k, n = signs.shape
    words = -(-n // 32)
    grid = np.zeros((k, words, 32), np.int8)
    grid.reshape(k, 32 * words)[:, :n] = signs
    pos = ((grid > 0) * _BITS).sum(axis=2, dtype=np.uint64)
    return pos << _HALF | ((grid < 0) * _BITS).sum(axis=2, dtype=np.uint64)


def _supports(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct supports of kernel rows as an (m, n) bool matrix, and for
    each row the index of its support."""
    either, which = _unique_rows((rows >> _HALF | rows) & _LOW)
    bits = either[:, :, None] & _BITS != 0
    return bits.reshape(len(either), 32 * either.shape[1])[:, :n], which


def _support_rows(subs: np.ndarray, n: int) -> np.ndarray:
    """Sign rows with the positive part set to each row of 0-based indices."""
    word, bit = np.divmod(subs, 32)
    rows = np.zeros((len(subs), -(-n // 32)), np.uint64)
    bits = np.uint64(1) << (bit + 32).astype(np.uint64)
    np.bitwise_or.at(rows, (np.arange(len(subs))[:, None], word), bits)
    return rows


def _negated(rows: np.ndarray) -> np.ndarray:
    return rows << _HALF | rows >> _HALF


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, and for each input row the index of its copy.

    One 1-D np.unique over packed keys: the word itself when a row has one,
    else the row's bytes.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, 8 * rows.shape[1]))) if rows.shape[1] > 1 else rows
    _, first, which = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    return rows[first], which


def _conforming(z: np.ndarray, s: np.ndarray):
    """Yield (start, block): block[i, j] says z[j] conforms to s[start + i].

    The one conformance kernel of the combinatorial layer: the axiom check,
    the circuit graph and the cell closure all reduce to it.  X and Y are
    conformal iff X conforms to ~(-Y).  A block holds at most _BLOCK_WORDS
    words of intermediate and callers reduce it before taking the next, so
    memory stays bounded.  An empty s still yields one (empty) block.
    """
    step = max(1, _BLOCK_WORDS // max(1, z.size))
    for start in range(0, max(1, len(s)), step):
        outside = ~s[start : start + step]
        acc = outside[:, None, 0] & z[None, :, 0]
        for w in range(1, z.shape[1]):
            acc |= outside[:, None, w] & z[None, :, w]
        yield start, acc == 0


# check_circuit_axioms stops after this many weak-elimination violations
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
    circuit Z with Z+ <= (X+ u Y+) \\ e and Z- <= (X- u Y-) \\ e.  Every
    (X, Y, e) target is built at once, deduplicated and tested with the
    conformance kernel; violations are listed in (X, Y, e) order, X and Y
    running over the sorted circuits, each positive then negative.
    """
    circuits = m.sorted_circuits()
    n = m.n
    minimality: list[str] = []
    canonical: list[str] = []
    elimination: list[str] = []

    signs = _signs(circuits, n)
    supports = _pack(np.abs(signs))
    # inside[i, j]: support j <= support i
    inside = np.concatenate([b for _, b in _conforming(supports, supports)])
    sizes = [len(c.support) for c in circuits]
    for i, j in zip(*np.nonzero(np.triu(inside | inside.T, 1))):
        c1, c2 = circuits[i], circuits[j]
        if sizes[i] == sizes[j]:
            minimality.append(f"{c1!r} and {c2!r} share their support")
        elif sizes[i] < sizes[j]:
            minimality.append(f"support of {c1!r} is strictly inside {c2!r}")
        else:
            minimality.append(f"support of {c2!r} is strictly inside {c1!r}")

    seen = {(c.pos, c.neg) for c in circuits}
    for c in circuits:
        if not c.is_canonical:
            canonical.append(f"{c!r} is stored with its smallest element negative")
        if (c.neg, c.pos) in seen:
            canonical.append(f"{c!r} is stored together with its reversal")

    # weak elimination over sign rows: +c_k at row 2k, -c_k at row 2k + 1;
    # X rows go in blocks, so the (X, Y) pair arrays stay bounded
    rows = _pack(signs)
    signed = np.empty((2 * len(circuits), rows.shape[1]), np.uint64)
    signed[0::2], signed[1::2] = rows, _negated(rows)
    total, words = signed.shape
    unit = _pack(np.eye(n, dtype=np.int8))
    clear = ~(unit | _negated(unit))
    step = max(1, _BLOCK_WORDS // max(1, signed.size * n))  # targets per X row: <= total * n
    truncated = False
    for start in range(0, total, step):
        x = signed[start : start + step, None]
        conflict = (x >> _HALF) & signed  # X+ n Y-, in the low halves
        conflict[(x == _negated(signed)).all(axis=2)] = 0
        conflict = conflict.reshape(-1, words)
        hits = [
            np.nonzero(conflict[:, e // 32] >> np.uint64(e % 32) & np.uint64(1))[0]
            for e in range(n)
        ]
        pairs = np.concatenate(hits)
        elements = np.repeat(np.arange(n), [len(h) for h in hits])
        targets, which = _unique_rows((x | signed).reshape(-1, words)[pairs] & clear[elements])
        witnessed = np.concatenate([b.any(axis=1) for _, b in _conforming(signed, targets)])
        bad = ~witnessed[which]
        for p, e in sorted(zip(pairs[bad].tolist(), elements[bad].tolist())):
            if len(elimination) == ELIMINATION_CAP:
                truncated = True
                break
            i, j = start + p // total, p % total
            elimination.append(
                f"no circuit eliminates element {e + 1} between "
                f"{'-' if i % 2 else '+'}{circuits[i // 2]!r} and "
                f"{'-' if j % 2 else '+'}{circuits[j // 2]!r}"
            )
        if truncated:
            break
    return AxiomReport(minimality, canonical, elimination, truncated)

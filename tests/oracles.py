"""Reference implementations the tests compare the package against.

exact_circuits is an independent circuit oracle in exact rational
arithmetic: it enumerates every subset of size at most d + 2, solves the
affine dependence over Fraction, and keeps the subsets whose dependence
space is exactly one-dimensional with full support.  It shares no code with
the package; on integer inputs the answers are exact, so comparisons
against circuits_of_points carry no tolerance coupling.

The combinatorial references are the per-pair loop versions of the
circuit-axiom check, the circuit-graph adjacency rule and the Radon
complex's cell closure, which the package runs through one vectorised
conformance kernel; the parity tests require identical outputs.
conformity asks that kernel's question of one pair of sign rows at a time.
composition_closure is the package's earlier closure on kernel rows, which
composed every frontier row with every conformal circuit; the package now
composes it only with the graph neighbours of one of its vertices.
cells_per_support counts the complex's cells of each support from the
matroid's rank function alone (a Tutte polynomial evaluation), which
reads no signs: the package's closure builds the cells from the signs.

circuit_scan is the per-support loop version of core.circuit_dependences:
one SVD per candidate support, by size, skipping supersets of circuits
found; the package reads the circuits off the lifted maximal minors
(core._circuit_rows).  support_dims is the package's earlier cell
dimension rule, one SVD per support; the package reads ranks off its bases.
sampled_census is the census as the package once sampled it: random
degenerate configurations (sample_configuration), each new matroid closed
under all n! relabelings (relabeled), until a run of samples adds nothing.
It is a subset of the exact census, and chirotope gives the signs that the
package reads circuits from, straight from the points.  is_matroid is basis
exchange as a loop over frozensets, one support at a time; the package
tests every swap on every distinct support in one conformance-kernel call.
acyclic_census is the census as enumerate_acyclic_oms once built it:
every chirotope, its circuits gathered, and the rows with a positive
circuit dropped at the end; the package drops such a row from its frontier
as soon as the circuit's last basis is signed.  gather_circuits and
distinct_circuits are the package's earlier circuit reader in two steps,
after which each caller sorted the circuits' rows itself: circuit_rows
sorts them as core._circuit_rows does in its one pass, and census_table
builds the census table from them as macphersonian._census_table did.
census_key is the sort key enumerate_acyclic_oms once sorted its objects
by; the package now orders its table of circuit ids by two np.lexsorts.
weak_map_matrix calls weak_map_leq once per pair of poset elements.
leq_of is a poset's order as the dense reflexive bool matrix the package
once held, read back from its strict pairs; hasse_pairs and
maximal_indices read covers and maximal elements off such a matrix.
order_complex is the recursive chain enumeration, one tuple per chain,
that the package replaced by growing int arrays one grade at a time.
csr is the CSR form of (lower, upper) pairs by one np.lexsort, as the
package once built it; the package now argsorts one int key per pair.
gf2_rank is the rank of a 0/1 matrix by the package's column reduction
(_gf2_pivots), which the package itself only runs on boundary faces.
gf2_rank_dense / gf2_betti_dense eliminate dense uint8 boundary matrices
by row XORs, and gf2_betti_sparse is the package's earlier reduction:
faces looked up in {tuple: index} dicts, frozenset columns pivoting on
their largest row (gf2_pivots), with clearing.  The package reduces int
lists that pivot on their smallest row.  maximal_faces_closure is the
closure the package once built from maximal faces, every subset of every
face in a Python set, and boundary_faces its earlier face lookup by prefix
codes (a simplex's code is its prefix's index times the number of
vertices plus the rank of its last vertex); the package builds each
dimension from the one above as distinct rows and finds faces by their row
keys.  ordered_rows is the package's earlier sort of sign rows by
Circuit.sort_key, one np.lexsort and a run mask; the package now sorts
big-endian row keys by its one distinct-values routine.

The loop references work on Python-int bitmask pairs of their own
(mask_of, set_of, masks), which the package does not use, and group edges
into cycles with partition_edges_into_cycles, a copy of the package's
earlier int-mask version: tags in increasing mask order.  Their graphs are
ReferenceGraphs, whose cycles come from that walk, read on first use as
the package reads its own.  A ReferenceGraph holds SignedCircuitVertex
objects, the vertex list the package once built (_ordered_vertices), and
writes them in payload as the package once did; the package's graphs hold
sign rows and their vertices as a RecordTable.  SignedCircuitVertex and
Cell are the object forms of a vertex and a facet that the package once
kept; vertex_objects and facet_cells read them off a package graph's
vertex table and a complex's facet table.

table_records is json.dumps's default= for the int tables the CLI writes
(cli.RecordTable, cli.Ragged) and 2-D arrays: the list of dicts or of
lists the table stands for, or the array's rows, which the package's
writer never builds.

The rest are a plain per-vertex version of the flow's curvature, the flow
field as the package once evaluated it (field_evaluate: np.linalg.norm for
row norms, three np.add.at scatters for the gradient), the
earlier eta * Delta velocity field with its fixed-step flow (field_flow,
whose states leave faces and so are held unchecked), which the package
replaced by descent on sum vol^2, the support projection
that the velocity applies, the perturbation one face at a time
(perturbed_positions: one SVD per face, where the package takes one per
support size), the all-pairs distance that the flow's collision check and
its margin screen must agree with, and a small model of the ambient polytope
(vertices, face barycenters, a sign reader for its faces) used to test the
package's polytope helpers.  The curvature and velocity references address
a vertex by its index i in the circuit graph: its position is
positions_all()[i] and its cycle neighbors are cycle_pairs(graph)[i], the
per-vertex lists the package once cached on its graphs; the flow's field
reads the same rows straight off graph.cycles.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

import radonflow as rf
from radonflow.cli import Ragged, RecordTable
from radonflow.core import (
    ELIMINATION_CAP,
    KERNEL_RTOL,
    _circuit_rows,
    _colex,
    _conforming,
    _faces,
    _negated,
    _pairs,
    _rank,
    _unique_rows,
    circuit_dependences,
)
from radonflow.macphersonian import _acyclic_matroids, _chirotopes, _gf2_pivots


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (int(e) - 1)
    return m


def set_of(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SignedCircuitVertex:
    """One orientation of a circuit; a vertex of the circuit graph."""

    circuit: rf.Circuit
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
class Cell:
    """A filled cell of dimension >= 2, given by the vertices on its closure."""

    dim: int
    vertices: frozenset[int]


def vertex_objects(graph) -> tuple:
    """A package graph's vertices as SignedCircuitVertex objects, one per
    record of its vertex table."""
    return tuple(SignedCircuitVertex(rf.Circuit(v["pos"], v["neg"]), v["sign"]) for v in graph.vertices.tolist())


def facet_cells(rc) -> tuple:
    """A package complex's facets as Cell objects, one per record of its
    facet table, in its order."""
    return tuple(Cell(f["dim"], frozenset(f["vertices"])) for f in rc.facets.tolist())


def _ordered_vertices(circuits) -> tuple:
    """The package's earlier vertex list: one SignedCircuitVertex per
    circuit, positive orientations first, antipodes mirrored after."""
    reps = [SignedCircuitVertex(c, 1) for c in circuits]
    return tuple(reps + [v.antipode() for v in reps])


def masks(v) -> tuple:
    """(pos, neg) bitmasks of a circuit or a signed circuit vertex."""
    return mask_of(v.pos), mask_of(v.neg)


def ragged_of(lists):
    """The Ragged of int lists, its offsets counted one list at a time."""
    offsets, values = [0], []
    for lst in lists:
        values += lst
        offsets.append(len(values))
    return Ragged(np.array(offsets, np.intp), np.array(values, np.intp))


def partition_edges_into_cycles(edges, vertex_masks):
    """Group edges by the support mask of the composition, in increasing
    mask order, and walk each group's closed cycles: the package's form,
    a RecordTable of the Ragged fields support, vertex_seq and edge_ids."""
    groups = {}
    for eid, (i, j) in enumerate(edges):
        tag = vertex_masks[i][0] | vertex_masks[i][1] | vertex_masks[j][0] | vertex_masks[j][1]
        groups.setdefault(tag, []).append(eid)
    cycles = {"support": [], "vertex_seq": [], "edge_ids": []}
    for tag in sorted(groups):
        adj = {}
        for eid in groups[tag]:
            i, j = edges[eid]
            adj.setdefault(i, []).append((j, eid))
            adj.setdefault(j, []).append((i, eid))
        bad = [v for v, nb in adj.items() if len(nb) != 2]
        if bad:
            v = min(bad)
            raise ValueError(
                f"edges tagged {sorted(set_of(tag))} do not form closed cycles "
                f"(vertex {v} has degree {len(adj[v])} there)"
            )
        walked = set()
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
            for key, lst in (("support", sorted(set_of(tag))), ("vertex_seq", seq), ("edge_ids", eids)):
                cycles[key].append(lst)
    return RecordTable({key: ragged_of(lists) for key, lists in cycles.items()})


class ReferenceGraph(rf.CircuitGraph):
    """An rf.CircuitGraph of vertex objects, built as the package once built
    its graphs: vertices is the objects of _ordered_vertices, from the
    matroid's sorted circuits, payload writes each one's circuit and
    orientation, and its cycles come from partition_edges_into_cycles, not
    the package's walk."""

    def __init__(self, matroid, edges):
        super().__init__(matroid, edges)
        self.vertices = _ordered_vertices(matroid.sorted_circuits)

    @cached_property
    def cycles(self):
        return partition_edges_into_cycles(self.edges.tolist(), [masks(v) for v in self.vertices])

    def payload(self):
        vertices = [
            {"pos": sorted(v.circuit.pos), "neg": sorted(v.circuit.neg), "sign": v.orientation}
            for v in self.vertices
        ]
        return {**super().payload(), "vertices": vertices}


def kernel_basis(rows, ncols):
    """Basis of the kernel of a small rational matrix, via RREF."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(v)
    return basis


def exact_circuits(points, d):
    """Minimal Radon partitions of integer points.

    Returns a set of (pos, neg) frozenset pairs, canonicalized so that the
    smallest support element lies in pos.  A subset is a circuit iff its
    affine dependence space is one-dimensional and the dependence has no
    zero coefficient; a zero coefficient or a higher-dimensional space both
    mean some proper subset is already dependent.
    """
    n = len(points)
    out = set()
    for size in range(2, d + 3):
        for sub in combinations(range(n), size):
            rows = [[points[i][k] for i in sub] for k in range(d)]
            rows.append([1] * size)
            basis = kernel_basis(rows, size)
            if len(basis) != 1:
                continue
            vec = basis[0]
            if any(v == 0 for v in vec):
                continue
            if vec[0] < 0:
                vec = [-v for v in vec]
            pos = frozenset(sub[i] + 1 for i, v in enumerate(vec) if v > 0)
            neg = frozenset(sub[i] + 1 for i, v in enumerate(vec) if v < 0)
            out.add((pos, neg))
    return out


def support_projection(support: Iterable[int], x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto span{ e_i - e_j : i, j in support }.

    Zeroes every coordinate outside the support, then removes the mean over
    the support.  Elements are 1-based.
    """
    x = np.asarray(x, dtype=float)
    idx = sorted(int(i) - 1 for i in support)
    if len(idx) < 2:
        raise ValueError("support must contain at least two elements")
    if idx[0] < 0 or idx[-1] >= x.shape[0]:
        raise ValueError("support element out of range")
    out = np.zeros_like(x)
    vals = x[idx]
    out[idx] = vals - vals.mean()
    return out


@dataclass(frozen=True)
class AmbientSpace:
    """The zero-sum cross-polytope slice in R^n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("ambient dimension n must be at least 3")

    def vertex(self, i: int, j: int) -> np.ndarray:
        """The vertex e_i - e_j (1-based labels, i != j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
            raise ValueError(f"invalid vertex labels ({i}, {j}) for n={self.n}")
        v = np.zeros(self.n)
        v[i - 1] = 1.0
        v[j - 1] = -1.0
        return v

    def barycenter(self, circuit, orientation: int = 1) -> np.ndarray:
        """Face barycenter of a circuit: sum_a e_a/|A| - sum_b e_b/|B|.

        The circuit is any object with pos/neg element sets.  Orientation -1
        gives the antipodal point.
        """
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        pos, neg = set(circuit.pos), set(circuit.neg)
        if not pos or not neg:
            raise ValueError("barycenter needs both circuit parts nonempty")
        if not all(1 <= e <= self.n for e in pos | neg):
            raise ValueError("circuit element out of range")
        x = np.zeros(self.n)
        for e in pos:
            x[e - 1] = 1.0 / len(pos)
        for e in neg:
            x[e - 1] = -1.0 / len(neg)
        return orientation * x

    def face_of(self, x: np.ndarray) -> tuple[frozenset, frozenset]:
        """(pos, neg) element sets of the face holding a point of the
        polytope; coordinates within EPS_SIGN of zero read as zero."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        if abs(x.sum()) > rf.EPS_MEM or abs(np.abs(x).sum() - 2.0) > rf.EPS_MEM:
            raise ValueError(f"not on the polytope: sum={x.sum():.3g}, 1-norm={np.abs(x).sum():.3g}")
        pos, neg = np.flatnonzero(x > rf.EPS_SIGN) + 1, np.flatnonzero(x < -rf.EPS_SIGN) + 1
        return frozenset(pos.tolist()), frozenset(neg.tolist())

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        return rf.project_to_gamma(x)


def cycle_pairs(graph):
    """Per vertex, its two neighbors on each cycle through it, in cycle order."""
    pairs = [[] for _ in range(len(graph.signs))]
    for seq in graph.cycles.fields["vertex_seq"].tolist():
        for v, before, after in zip(seq, seq[-1:] + seq[:-1], seq[1:] + seq[:1]):
            pairs[v].append((before, after))
    return pairs


def _neighbor_directions(s, i):
    """Per cycle through vertex i: the two neighbor positions and the unit
    components of those positions orthogonal to the position of vertex i."""
    full = s.positions_all()
    p = full[i]
    pn = p / np.linalg.norm(p)
    for a, b in cycle_pairs(s.graph)[i]:
        pa, pb = full[a], full[b]
        w = pa - (pa @ pn) * pn
        w2 = pb - (pb @ pn) * pn
        nw, nw2 = np.linalg.norm(w), np.linalg.norm(w2)
        if nw < rf.EPS_SIGN or nw2 < rf.EPS_SIGN:
            raise rf.IntegrationError("degenerate neighbor pair: radial neighbor position")
        yield pa, pb, w / nw, w2 / nw2


def field_evaluate(field, P):
    """eta per (vertex, cycle) incidence of a flow._Field, the energy and
    its gradient projected onto every vertex's face."""

    def dot(x, y):
        return (x * y).sum(axis=1, keepdims=True)

    full = np.vstack([P, -P])
    a, b, v = full[field.a_idx], full[field.b_idx], P[field.v_idx]
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    vn = v / nv
    w = a - dot(a, vn) * vn
    w2 = b - dot(b, vn) * vn
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    nw2 = np.linalg.norm(w2, axis=1, keepdims=True)
    wh = w / nw
    wh2 = w2 / nw2
    c = dot(wh, wh2)
    res = wh2 - c * wh
    eta = np.linalg.norm(res, axis=1)
    energy = float((((nv * nw * nw2)[:, 0] * eta) ** 2).sum())
    na = np.linalg.norm(a, axis=1, keepdims=True)
    ah = a / na
    u = b - dot(b, ah) * ah
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    uh = u / np.maximum(nu, rf.EPS_SIGN)
    gv = (na * nu) ** 2 * (v - dot(v, ah) * ah - dot(v, uh) * uh)
    ga = (nv * nw2) ** 2 * nw * (wh - c * wh2)
    gb = (nv * nw) ** 2 * nw2 * res
    dE = np.zeros_like(full)
    np.add.at(dE, field.v_idx, gv)
    np.add.at(dE, field.a_idx, ga)
    np.add.at(dE, field.b_idx, gb)
    g = 2.0 * (dE[: field.reps] - dE[field.reps :]) * field.mask
    g -= field.mask * (g.sum(axis=1, keepdims=True) / field.mask_size)
    return eta, energy, g


def local_curvature(s, i) -> tuple[float, list[float]]:
    """Total curvature at vertex i and the per-cycle contributions.

    sqrt(det Gram(wh, wh2)) is evaluated as the Schur complement, which
    stays exact when the two directions are nearly (anti)parallel.
    """
    etas = [
        float(np.linalg.norm(wh2 - float(wh @ wh2) * wh))
        for _, _, wh, wh2 in _neighbor_directions(s, i)
    ]
    return sum(etas), etas


def velocity(s, i) -> np.ndarray:
    """The eta * Delta field at vertex i: sum_k eta_k P_supp(v_k + v_k' - 2 v)."""
    p = s.positions_all()[i]
    support = np.flatnonzero(s.graph.signs[i]) + 1
    out = np.zeros_like(p)
    for pa, pb, wh, wh2 in _neighbor_directions(s, i):
        eta = float(np.linalg.norm(wh2 - float(wh @ wh2) * wh))
        out += eta * support_projection(support, pa + pb - 2.0 * p)
    return out


def unchecked(s, P):
    """s with its representatives at P, without EmbeddedSphere's checks:
    the positions of field_flow, and states built to fail recovery, may
    leave a face, which no package sphere does."""
    moved = copy.copy(s)
    moved._pos = P
    return moved


def field_flow(s, h, t_max):
    """Fixed Euler steps of velocity up to t_max, every position radially
    renormalized onto the polytope after each step; returns the final state
    (unchecked)."""
    for _ in range(int(round(t_max / h))):
        P = s.rep_positions() + h * np.stack([velocity(s, i) for i in range(s.n_reps)])
        P = 2.0 * P / np.abs(P).sum(axis=1, keepdims=True)
        s = unchecked(s, P)
    return s


def perturbed_positions(s, delta, rng):
    """EmbeddedSphere.perturbed one representative at a time: one SVD per
    face for its tangent basis, the radius clipped to half the face margin
    and to the margin less EPS_SIGN."""
    new = s.rep_positions()
    for k in range(s.n_reps):
        on = s.signs[k] != 0
        face = s.signs[k, on]
        dim = face.size - 2
        if dim <= 0:
            continue
        cons = np.vstack([face > 0, face < 0]).astype(float)
        _, _, vt = np.linalg.svd(cons)
        basis = vt[2:]
        g = rng.standard_normal(dim)
        g /= max(np.linalg.norm(g), 1e-30)
        margin = float((face * new[k, on]).min())
        radius = min(delta, margin / 2.0, margin - rf.EPS_SIGN) * rng.uniform() ** (1.0 / dim)
        row = new[k].copy()
        row[on] += radius * (g @ basis)
        new[k] = 2.0 * row / np.abs(row).sum()
    return new


def min_pair_distance(P) -> float:
    """Smallest distance between two of the positions P and -P."""
    full = np.vstack([P, -P])
    diff = full[:, None, :] - full[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def _conformal(ap, an, bp, bn):
    return (ap & bn) == 0 and (an & bp) == 0


def _conforms_to(zp, zn, sp, sn):
    return (zp & ~sp) == 0 and (zn & ~sn) == 0


def conformity(z, s):
    """out[i, j] says the +1/-1/0 row z[j] conforms to the row s[i], one
    pair at a time: the bool matrix of core._conforming's answer."""
    def pair(row):
        return mask_of(np.flatnonzero(row > 0) + 1), mask_of(np.flatnonzero(row < 0) + 1)

    zs = [pair(row) for row in z]
    out = np.zeros((len(s), len(z)), bool)
    for i, (sp, sn) in enumerate(map(pair, s)):
        for j, (zp, zn) in enumerate(zs):
            out[i, j] = _conforms_to(zp, zn, sp, sn)
    return out


def check_circuit_axioms(m):
    """Loop version of rf.check_circuit_axioms, with the same violation cap."""
    circuits = m.sorted_circuits
    minimality, canonical, elimination = [], [], []

    for c1, c2 in combinations(circuits, 2):
        if c1.support < c2.support:
            minimality.append(f"support of {c1!r} is strictly inside {c2!r}")
        elif c2.support < c1.support:
            minimality.append(f"support of {c2!r} is strictly inside {c1!r}")
        elif c1.support == c2.support:
            minimality.append(f"{c1!r} and {c2!r} share their support")

    seen = {(c.pos, c.neg) for c in circuits}
    for c in circuits:
        if min(c.support) not in c.pos:
            canonical.append(f"{c!r} is stored with its smallest element negative")
        if (c.neg, c.pos) in seen:
            canonical.append(f"{c!r} is stored together with its reversal")

    signed = []
    for c in circuits:
        pm, nm = masks(c)
        signed.append((pm, nm, c, 1))
        signed.append((nm, pm, c, -1))
    truncated = False
    for xp, xn, cx, ox in signed:
        for yp, yn, cy, oy in signed:
            if xp == yn and xn == yp:
                continue  # X == -Y
            e_mask = xp & yn
            while e_mask:
                bit = e_mask & (-e_mask)
                e_mask ^= bit
                zp_max = (xp | yp) & ~bit
                zn_max = (xn | yn) & ~bit
                if any(_conforms_to(zp, zn, zp_max, zn_max) for zp, zn, _, _ in signed):
                    continue
                if len(elimination) == ELIMINATION_CAP:
                    truncated = True
                    break
                elimination.append(
                    f"no circuit eliminates element {bit.bit_length()} between "
                    f"{'+' if ox == 1 else '-'}{cx!r} and {'+' if oy == 1 else '-'}{cy!r}"
                )
            if truncated:
                break
        if truncated:
            break
    return rf.AxiomReport(minimality, canonical, elimination, truncated)


def modular_pairs(m):
    """The pairs i < j of m's circuits, with distinct supports, whose union
    X u Y has height 2 in the lattice of unions of circuit supports: the
    lattice built whole by closing the supports under union, and each
    member's height the longest chain of members below it, from 0 at the
    empty set."""
    supports = [mask_of(c.support) for c in m.sorted_circuits]
    lattice, frontier = {0}, set(supports)
    while frontier:
        lattice |= frontier
        frontier = {u | s for u in frontier for s in supports} - lattice
    height = {}
    for u in sorted(lattice, key=lambda u: bin(u).count("1")):
        height[u] = max((height[v] + 1 for v in height if v != u and v & ~u == 0), default=0)
    return {
        (i, j)
        for (i, x), (j, y) in combinations(enumerate(supports), 2)
        if x != y and height[x | y] == 2
    }


def modular_graph(m):
    """Loop version of the circuit graph by the modular rule, whose edges
    rf.complexes._circuit_edges lists (axioms unchecked): X and Y are
    joined iff they conform and their circuits are one of modular_pairs."""
    vmasks = [masks(v) for v in _ordered_vertices(m.sorted_circuits)]
    k, modular = len(m.signs), modular_pairs(m)
    edges = [
        (i, j)
        for i, j in combinations(range(2 * k), 2)
        if (min(i % k, j % k), max(i % k, j % k)) in modular and _conformal(*vmasks[i], *vmasks[j])
    ]
    return ReferenceGraph(m, edges)


def circuit_graph(m):
    """Loop version of the circuit graph by the count rule (axioms
    unchecked): X and Y are joined iff they conform, X != +-Y, and no third
    circuit conforms to X o Y.  rf.complexes._circuit_edges reads its edges
    off the modular pairs instead; on circuit sets with the axioms the two
    rules agree."""
    vmasks = [masks(v) for v in _ordered_vertices(m.sorted_circuits)]
    edges = []
    for i, j in combinations(range(len(vmasks)), 2):
        xp, xn = vmasks[i]
        yp, yn = vmasks[j]
        if xp == yn and xn == yp:
            continue  # antipodal pair
        if not _conformal(xp, xn, yp, yn):
            continue
        sp, sn = xp | yp, xn | yn
        if not any(
            k != i and k != j and _conforms_to(zp, zn, sp, sn)
            for k, (zp, zn) in enumerate(vmasks)
        ):
            edges.append((i, j))
    return ReferenceGraph(m, edges)


def dependences_by_circuit(config):
    """core.circuit_dependences as a dict, one Circuit per sign row, in the
    rows' order; each row must be the signs of its dependence."""
    m, x = circuit_dependences(config)
    signs = m.signs
    assert signs.dtype == np.int8 and np.array_equal(signs, np.sign(x))
    return {
        rf.Circuit(frozenset(np.flatnonzero(row > 0) + 1), frozenset(np.flatnonzero(row < 0) + 1)): v
        for row, v in zip(signs, x)
    }


def radon_complex(config):
    """Loop version of rf.geometric_radon_complex: depth-first closure of the
    signed circuits under conformal composition, then one conforming list
    per realized sign vector."""
    dependences = dependences_by_circuit(config)
    n, d = config.n, config.d
    lifted = config.lifted_matrix()

    def dim_of(support_mask):
        idx = [i for i in range(n) if support_mask >> i & 1]
        s = np.linalg.svd(lifted[:, idx], compute_uv=False)
        tol = KERNEL_RTOL * max(1.0, float(s[0]) if s.size else 0.0)
        return len(idx) - int((s > tol).sum())

    circuits = sorted(dependences, key=rf.Circuit.sort_key)
    vertices = _ordered_vertices(circuits)
    vmasks = [masks(v) for v in vertices]
    placed = [rf.project_to_gamma(dependences[c]) for c in circuits]
    positions = np.array(placed + [-x for x in placed])

    realized = dict.fromkeys(vmasks)
    queue = list(vmasks)
    while queue:
        sp, sn = queue.pop()
        for cp, cn in vmasks:
            if not _conformal(sp, sn, cp, cn):
                continue
            t = (sp | cp, sn | cn)
            if t not in realized:
                realized[t] = None
                queue.append(t)

    edge_set = {}
    cells = []
    for sp, sn in realized:
        cell_dim = dim_of(sp | sn) - 1
        if cell_dim == 0:
            continue
        conforming = [i for i, (cp, cn) in enumerate(vmasks) if _conforms_to(cp, cn, sp, sn)]
        if cell_dim == 1:
            if len(conforming) != 2:
                raise ValueError("a one-dimensional cell must close over exactly two circuits")
            edge_set[tuple(sorted(conforming))] = None
        else:
            cells.append(Cell(dim=cell_dim, vertices=frozenset(conforming)))

    edges = sorted(edge_set)
    matroid = rf.OrientedMatroid.from_circuits(rf.GroundSet(n, d), circuits)
    graph = ReferenceGraph(matroid, edges)
    assert graph.vertices == vertices  # the matroid keeps the circuits in sort_key order
    facets = tuple(sorted(cells, key=lambda c: (c.dim, tuple(sorted(c.vertices)))))
    return RadonComplexRef(graph=graph, facets=facets, n=n, d=d, positions=positions)


def cells_per_support(config):
    """The Radon complex's cells counted per support from ranks alone.

    The cells with support S are the sign vectors of the dependences with
    support S, the totally cyclic reorientations of M|S: there are
    T_{M|S}(0, 2) = sum over A in S of (-1)^(r(S) - r(A)) of them (Las
    Vergnas 1980; Zaslavsky 1975), each of dimension |S| - r(S) - 1, where
    r is the rank rule's rank (core._rank) of the lifted columns.  Ranks
    of all 2^n subsets, then 3^n terms; no sign is read.  A dict
    {(support mask, dimension): count}, over the supports with a cell.
    """
    n, lifted = config.n, config.lifted_matrix()
    rank = [0] * (1 << n)
    for mask in range(1, 1 << n):
        cols = [i for i in range(n) if mask >> i & 1]
        rank[mask] = int(_rank(np.linalg.svd(lifted[:, cols], compute_uv=False)))
    cells = {}
    for support in range(1, 1 << n):
        count, subset = 0, support
        while True:  # every subset of support, from support down to 0
            count += (-1) ** (rank[support] - rank[subset])
            if not subset:
                break
            subset = (subset - 1) & support
        if count:
            cells[support, bin(support).count("1") - rank[support] - 1] = count
    return cells


def composition_closure(rows):
    """The all-pairs closure the package ran before it grew cells along the
    1-skeleton: frontier by frontier, every conformal (frontier row, row)
    pair is composed, and the rows new in that frontier form the next.
    Same kernel rows in, same sorted distinct rows out."""
    seen = _unique_rows(rows)[0]
    frontier = seen
    while len(frontier):
        composed = [
            _unique_rows(frontier[start + f] | rows[c])[0]
            for start, block in _conforming(rows, ~_negated(frontier))
            for f, c in [_pairs(block)]
        ]
        grown, _, which = _unique_rows(np.concatenate([seen] + composed))
        fresh = np.ones(len(grown), bool)
        fresh[which[: len(seen)]] = False
        seen, frontier = grown, grown[fresh]
    return seen


@dataclass
class RadonComplexRef:
    """radon_complex's answer: the facets as a sorted tuple of Cell."""

    graph: object
    facets: tuple
    n: int
    d: int
    positions: np.ndarray

    def euler_characteristic(self):
        chi = len(self.graph.vertices) - len(self.graph.edges)
        return chi + sum((-1) ** cell.dim for cell in self.facets)


def circuit_scan(config):
    """Loop version of core.circuit_dependences: supports in lexicographic
    order within each size, one SVD each.  Only circuits of smaller sizes are
    tested for containment, since supports of one size never nest."""
    if not config.affinely_spans():
        raise rf.RankDeficientError("points do not affinely span R^d")
    n = config.n
    lifted = config.lifted_matrix()
    found = {}
    supports = []
    for size in range(2, config.d + 3):
        smaller = list(supports)
        for sub in combinations(range(1, n + 1), size):
            smask = mask_of(sub)
            if any(supp & ~smask == 0 for supp in smaller):
                continue
            idx = [e - 1 for e in sub]
            _, s, vt = np.linalg.svd(lifted[:, idx])
            if int((s > KERNEL_RTOL * max(1.0, float(s[0]))).sum()) == size:
                continue
            x = np.zeros(n)
            x[idx] = vt[-1] / np.abs(vt[-1]).max()
            if x[idx[0]] < 0:
                x = -x
            c = rf.Circuit.make(
                (e for e in sub if x[e - 1] > 0), (e for e in sub if x[e - 1] < 0)
            )
            found[c] = x
            supports.append(smask)
    return found


def support_dims(lifted, supports):
    """Dimension of the dependences supported on each row of a bool matrix:
    the size minus the rank rule's rank of the lifted columns, one stacked
    SVD per support size."""
    sizes = supports.sum(axis=1)
    dims = np.zeros(len(supports), int)
    for size in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == size)
        idx = np.nonzero(supports[at])[1].reshape(len(at), size)
        s = np.linalg.svd(lifted[:, idx].transpose(1, 0, 2), compute_uv=False)
        dims[at] = size - _rank(s)
    return dims


def sample_configuration(n, d, rng):
    """One random configuration, with randomized degeneration operations.

    The points need not span R^d; circuits_of_points tests that.
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
    return rf.PointConfiguration(pts, d)


def relabeled(m, perm):
    """m with element e renamed perm[e], each circuit re-canonicalized."""
    return rf.OrientedMatroid.from_circuits(
        m.ground,
        frozenset(
            rf.Circuit.make({perm[e] for e in c.pos}, {perm[e] for e in c.neg})
            for c in m.circuits
        ),
    )


def sampled_census(n, d, seed, stable_rounds):
    """Sampled acyclic oriented matroids of n points in R^d, closed under
    relabeling, keyed by their circuit sets, and the spanning configurations drawn.

    Stops once stable_rounds samples in a row add nothing new.
    """
    rng = np.random.default_rng([seed, n, d])
    perms = [dict(zip(range(1, n + 1), p)) for p in permutations(range(1, n + 1))]
    found, configs, quiet = {}, [], 0
    while quiet < stable_rounds:
        config = sample_configuration(n, d, rng)
        try:
            m = rf.circuits_of_points(config)
        except rf.RankDeficientError:
            continue
        configs.append(config)
        quiet += 1
        if m.circuits not in found:
            quiet = 0
            for perm in perms:
                pm = relabeled(m, perm)
                found.setdefault(pm.circuits, pm)
    return found, configs


def chirotope(config, subsets):
    """Sign of the determinant of the lifted columns of each subset (0-based),
    zero where the rank rule finds them dependent."""
    lifted = config.lifted_matrix()
    out = []
    for sub in subsets:
        cols = lifted[:, list(sub)]
        s = np.linalg.svd(cols, compute_uv=False)
        full = (s > KERNEL_RTOL * max(1.0, float(s[0]))).all()
        out.append(int(np.sign(np.linalg.det(cols))) if full else 0)
    return np.array(out, np.int8)


def is_matroid(bases):
    """Basis exchange: for bases B1, B2 and x in B1 - B2, some y in B2 - B1
    makes B1 - x + y a basis."""
    have = set(bases)
    return all(
        any(b1 - {x} | {y} in have for y in b2 - b1)
        for b1 in bases
        for b2 in bases
        for x in b1 - b2
    )


def acyclic_census(n, d):
    """The table of the acyclic oriented matroids of rank d + 1 on range(n):
    every chirotope of _chirotopes(n, d + 1), its circuits read by
    core._circuit_rows and the rows that hold a circuit of one sign only
    dropped."""
    subsets, chi = _chirotopes(n, d + 1)
    signs, _, _, held = _circuit_rows(chi, n, d + 1)
    one_signed = np.append(~(signs < 0).any(axis=1), False)  # held's -1 reads False
    return _acyclic_matroids(subsets, chi[~one_signed[held].any(axis=1)], rf.GroundSet(n, d))


def gather_circuits(values, n, r):
    """The circuit each span of each row of basis values holds, as the
    package once read it (core._gather_circuits): spans, the (r+1)-subsets
    in colex order, and vals, the (rows, spans, r+1) array of the values
    (-1)^i values(S - x_i), each span's signed positive on its first
    nonzero; a span of all zeros holds no circuit."""
    spans = _colex(n, r + 1)
    binom = np.zeros((n, r + 1), np.int64)  # binom[e, k] = C(e, k)
    binom[:, 0] = 1
    for k in range(1, r + 1):
        binom[1:, k] = np.cumsum(binom[:-1, k - 1])
    vals = values[:, binom[_faces(spans), np.arange(1, r + 1)].sum(axis=2)]
    vals[:, :, 1::2] *= -1
    lead = np.take_along_axis(vals, (vals != 0).argmax(axis=2)[:, :, None], axis=2)
    return spans, np.where(lead < 0, -vals, vals)


def distinct_circuits(spans, vals, n):
    """The distinct circuits of gather_circuits' spans and vals, told apart
    by kernel rows built word by word, as the package once did
    (core._distinct_circuits): each one's first span and its values there,
    in the order of their kernel rows, and held, the (rows, spans) array of
    the circuit each span holds, -1 for none."""
    word, bit = np.divmod(spans, 32)
    bits = (vals != 0) * (np.uint64(1) << (bit + 32 * (vals > 0)).astype(np.uint64))
    in_word = word[:, :, None] == np.arange(-(-n // 32))
    rows = (bits[..., None] * in_word).sum(axis=2, dtype=np.uint64)
    nonzero = (vals != 0).any(axis=2)
    _, first, which = _unique_rows(rows[nonzero])
    held = np.full(nonzero.shape, -1, np.intp)
    held[nonzero] = which
    return spans[np.nonzero(nonzero)[1][first]], vals[nonzero][first], held


def _span_signs(spans, vals, n):
    """The +1/-1/0 rows of circuits given by their spans and values."""
    signs = np.zeros((len(spans), n), np.int8)
    signs[np.arange(len(spans))[:, None], spans] = np.sign(vals)
    return signs


def circuit_rows(values, n, r):
    """core._circuit_rows by the earlier two-step read: gather_circuits,
    distinct_circuits, then the distinct circuits' rows sorted by
    ordered_rows and held's ids ranked to match."""
    spans, vals, held = distinct_circuits(*gather_circuits(values, n, r), n)
    signs, first, rank = ordered_rows(_span_signs(spans, vals, n))
    return signs, spans[first], vals[first], np.append(rank, -1)[held]


def census_table(ground, spans, vals, held):
    """The census table of distinct_circuits' output as the package once
    built it (macphersonian._census_table): the circuits' rows sorted, each
    element's ids its row of held ranked and sorted, a circuit held by
    several spans once, and the elements by count, then by their ids."""
    k = len(spans)
    signs, _, rank = ordered_rows(_span_signs(spans, vals, ground.n))
    ids = np.sort(np.append(rank, k)[held], axis=1)
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = k
    ids.sort(axis=1)
    count = (ids < k).sum(axis=1)
    order = np.lexsort(np.vstack([ids.T[::-1], count]))
    ids = ids[order]
    return rf.MatroidTable(ground, signs, Ragged.sized(count[order], ids[ids < k]))


def census_key(m):
    """Circuit count, then the sort keys of the circuits, ascending, as a
    list: sorted in Python, not read off the rows' order."""
    return (len(m.circuits), sorted(c.sort_key() for c in m.circuits))


def weak_map_matrix(elements):
    """leq[i, j] = weak_map_leq(elements[i], elements[j]), one call per pair."""
    return np.array(
        [[rf.weak_map_leq(a, b) for b in elements] for a in elements], dtype=bool
    ).reshape(len(elements), len(elements))


def leq_of(poset):
    """The reflexive order of a MatroidPoset as a dense k x k bool matrix."""
    leq = np.eye(len(poset), dtype=bool)
    leq[tuple(poset.pairs.T)] = True
    return leq


def hasse_pairs(leq):
    """Cover relations [i, j], i < j, of a reflexive order matrix, row-major."""
    k = len(leq)
    strict = leq & ~np.eye(k, dtype=bool)
    return [
        [i, j]
        for i in range(k)
        for j in range(k)
        if strict[i, j] and not (strict[i] & strict[:, j]).any()
    ]


def maximal_indices(leq):
    k = len(leq)
    return [i for i in range(k) if not any(leq[i, j] and i != j for j in range(k))]


def gf2_rank(mat):
    """Rank of a 0/1 matrix over GF(2) by column reduction."""
    columns = [np.flatnonzero(col).tolist() for col in np.array(mat, dtype=np.uint8).T & 1]
    return len(_gf2_pivots(col for col in columns if col))


def gf2_rank_dense(mat):
    """Rank of a 0/1 matrix over GF(2) by XOR row elimination."""
    m = np.array(mat, dtype=np.uint8) & 1
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.flatnonzero(m[:, col])
        hits = hits[hits != rank]
        if hits.size:
            m[hits] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def _tuples(c):
    """The simplices of c by dimension as sorted lists of vertex tuples."""
    return [[tuple(row) for row in rows.tolist()] for rows in c.simplices]


def gf2_betti_dense(c):
    """Betti numbers over GF(2) from dense boundary matrices."""
    simplices = _tuples(c)
    if not simplices:
        return []
    index = [{s: i for i, s in enumerate(lst)} for lst in simplices]
    ranks = [0] * (len(simplices) + 1)
    for k in range(1, len(simplices)):
        lower, upper = simplices[k - 1], simplices[k]
        mat = np.zeros((len(lower), len(upper)), dtype=np.uint8)
        for j, s in enumerate(upper):
            for drop in range(len(s)):
                mat[index[k - 1][s[:drop] + s[drop + 1 :]], j] = 1
        ranks[k] = gf2_rank_dense(mat)
    return [
        len(simplices[k]) - ranks[k] - ranks[k + 1] for k in range(len(simplices))
    ]


def order_complex(poset):
    """Chains of the poset by dimension, each a tuple, by recursion."""
    strict = leq_of(poset) & ~np.eye(len(poset), dtype=bool)
    strict_above = [np.flatnonzero(row).tolist() for row in strict]
    chains_by_dim = []

    def extend(chain):
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
    return chains_by_dim


def gf2_pivots(columns):
    """Reduce GF(2) columns, each a frozenset of row indices, left to right.

    A column's pivot is its largest row; while another reduced column owns
    that pivot, the two are added (symmetric difference).  Returns the
    pivots of the columns that stay nonzero.
    """
    reduced = {}
    for col in columns:
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return set(reduced)


def maximal_faces_closure(faces):
    """SimplicialComplex.from_maximal_faces as a Python set closure: every
    nonempty subset of every face, by dimension, rows sorted."""
    closed = set()
    for f in faces:
        f = tuple(sorted(set(f)))
        for size in range(1, len(f) + 1):
            closed.update(combinations(f, size))
    top = max(map(len, closed), default=0)
    by_dim = [[] for _ in range(top)]
    for s in closed:
        by_dim[len(s) - 1].append(s)
    return rf.SimplicialComplex(
        [np.array(sorted(lst), dtype=np.int64).reshape(len(lst), k + 1) for k, lst in enumerate(by_dim)]
    )


def boundary_faces(c):
    """For each k >= 1, the boundary of the k-simplices by prefix codes:
    column j holds the index among the (k-1)-simplices of the face that
    misses entry k - j of the row, so column 0 holds the row's prefix."""
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


def ordered_rows(signs):
    """core._ordered_rows by one stable np.lexsort, the support padded past
    n and the positive part with -1, and a mask of the runs of equal rows,
    whose first entries are the first occurrences."""
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
    return rows[fresh], order[fresh], which


def gf2_betti_sparse(c):
    """Betti numbers over GF(2) by frozenset column reduction with clearing,
    from the top dimension down."""
    simplices = _tuples(c)
    if not simplices:
        return []
    ranks = [0] * (len(simplices) + 1)
    pivots = set()  # of the map one dimension up
    for k in range(len(simplices) - 1, 0, -1):
        index = {s: i for i, s in enumerate(simplices[k - 1])}
        columns = (
            frozenset([index[s[:drop] + s[drop + 1 :]] for drop in range(len(s))])
            for j, s in enumerate(simplices[k])
            if j not in pivots
        )
        pivots = gf2_pivots(columns)
        ranks[k] = len(pivots)
    return [len(simplices[k]) - ranks[k] - ranks[k + 1] for k in range(len(simplices))]


def csr(lower, upper, k):
    """(start, lower sorted by (upper, lower)), start from the counts of upper."""
    start = np.concatenate([[0], np.cumsum(np.bincount(upper, minlength=k))])
    return start, lower[np.lexsort((lower, upper))]


def sized_lists(lengths, values):
    """The lists of Ragged.sized(lengths, values), cut one length at a time."""
    lists, at = [], 0
    for length in lengths:
        lists.append(values[at : at + length])
        at += length
    return lists


def grouped_lists(lower, upper, k):
    """The lists of Ragged.grouped(lower, upper, k): list x gets the lower
    end of each pair (lower, upper) with upper end x, one pair at a time,
    then is sorted."""
    lists = [[] for _ in range(k)]
    for a, b in zip(lower, upper):
        lists[b].append(a)
    return [sorted(lst) for lst in lists]


def fan_pairs(lists, rows):
    """Ragged.fan(rows) of the Ragged of lists, as two lists: for each x in
    rows in turn, one (index in rows, place among all the values) per value
    of lists[x]."""
    starts, at = [], 0
    for lst in lists:
        starts.append(at)
        at += len(lst)
    owner, position = [], []
    for t, x in enumerate(rows):
        for p in range(starts[x], starts[x] + len(lists[x])):
            owner.append(t)
            position.append(p)
    return owner, position


def table_records(value):
    """The list of dicts a cli.RecordTable holds, the lists of a cli.Ragged,
    or the rows of a 2-D array, for json.dumps(default=...), each read one
    record or list at a time."""
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return [[x.item() for x in row] for row in value]
    if isinstance(value, Ragged):
        bounds = value.offsets.tolist()
        return [[x.item() for x in value.values[a:b]] for a, b in zip(bounds, bounds[1:])]
    if not isinstance(value, RecordTable):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    lists = {
        key: table_records(v) if isinstance(v, Ragged) else [x.item() for x in v] for key, v in value.fields.items()
    }
    return [{key: lists[key][r] for key in lists} for r in range(len(next(iter(lists.values()))))]


def element_circuits(poset: dict) -> list[list[dict]]:
    """Each element's circuit dicts in a poset dict's table form: its ids
    looked up in 'circuits', as each element listed them in schema version 1."""
    return [[poset["circuits"][i] for i in ids] for ids in poset["elements"]]


def shuffled_circuits(poset: dict, rng) -> dict:
    """The poset dict with its 'circuits' listed in a random order and each
    element's ids remapped to that order, still ascending."""
    order = rng.permutation(len(poset["circuits"]))
    new_id = np.argsort(order)
    return {
        **poset,
        "circuits": [poset["circuits"][c] for c in order],
        "elements": [sorted(new_id[ids].tolist()) for ids in poset["elements"]],
    }

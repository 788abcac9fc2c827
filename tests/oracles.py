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

circuit_scan is the per-support loop version of core.circuit_dependences
(one SVD per candidate support); the package batches each size level.
sampled_census is the census as the package once sampled it: random
degenerate configurations (sample_configuration), each new matroid closed
under all n! relabelings (relabeled), until a run of samples adds nothing.
It is a subset of the exact census, and chirotope gives the signs that the
package reads circuits from, straight from the points.
weak_map_matrix calls weak_map_leq once per pair of poset elements, and
gf2_rank_dense / gf2_betti_dense eliminate dense uint8 boundary matrices
by row XORs, where the package reduces sparse frozenset columns.

The loop references work on Python-int bitmask pairs of their own
(mask_of, set_of, masks), which the package does not use, and group edges
into cycles with partition_edges_into_cycles, a copy of the package's
earlier int-mask version: tags in increasing mask order.

The rest are a plain per-vertex version of the flow's curvature, the
earlier eta * Delta velocity field with its fixed-step flow (field_flow),
which the package replaced by descent on sum vol^2, the support projection
that the velocity applies, the all-pairs distance that the flow's
collision check must agree with, and a small model of the ambient polytope
(vertices, face barycenters, a sign reader for its faces) used to test the
package's polytope helpers.  The curvature and velocity references address
a vertex by its index i in the circuit graph: its position is
positions_all()[i] and its cycle neighbors are graph.cycle_pairs[i].
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

import radonflow as rf
from radonflow.complexes import _ordered_vertices
from radonflow.core import ELIMINATION_CAP, KERNEL_RTOL, circuit_dependences


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (int(e) - 1)
    return m


def set_of(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def masks(v) -> tuple:
    """(pos, neg) bitmasks of a circuit or a signed circuit vertex."""
    return mask_of(v.pos), mask_of(v.neg)


def partition_edges_into_cycles(edges, vertex_masks):
    """Group edges by the support mask of the composition, in increasing
    mask order, and walk each group's closed cycles."""
    groups = {}
    for eid, (i, j) in enumerate(edges):
        tag = vertex_masks[i][0] | vertex_masks[i][1] | vertex_masks[j][0] | vertex_masks[j][1]
        groups.setdefault(tag, []).append(eid)
    cycles = []
    for tag in sorted(groups):
        adj = {}
        for eid in groups[tag]:
            i, j = edges[eid]
            adj.setdefault(i, []).append((j, eid))
            adj.setdefault(j, []).append((i, eid))
        bad = [v for v, nb in adj.items() if len(nb) != 2]
        if bad:
            raise ValueError(
                f"edges tagged {sorted(set_of(tag))} do not form closed cycles "
                f"(vertex {bad[0]} has degree {len(adj[bad[0]])} there)"
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
            cycles.append(
                rf.Cycle(support=set_of(tag), vertex_seq=tuple(seq), edge_ids=tuple(eids))
            )
    return tuple(cycles)


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


def _neighbor_directions(s, i):
    """Per cycle through vertex i: the two neighbor positions and the unit
    components of those positions orthogonal to the position of vertex i."""
    full = s.positions_all()
    p = full[i]
    pn = p / np.linalg.norm(p)
    for a, b in s.graph.cycle_pairs[i]:
        pa, pb = full[a], full[b]
        w = pa - (pa @ pn) * pn
        w2 = pb - (pb @ pn) * pn
        nw, nw2 = np.linalg.norm(w), np.linalg.norm(w2)
        if nw < rf.EPS_SIGN or nw2 < rf.EPS_SIGN:
            raise rf.IntegrationError("degenerate neighbor pair: radial neighbor position")
        yield pa, pb, w / nw, w2 / nw2


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
    support = s.graph.vertices[i].support
    out = np.zeros_like(p)
    for pa, pb, wh, wh2 in _neighbor_directions(s, i):
        eta = float(np.linalg.norm(wh2 - float(wh @ wh2) * wh))
        out += eta * support_projection(support, pa + pb - 2.0 * p)
    return out


def field_flow(s, h, t_max):
    """Fixed Euler steps of velocity up to t_max, every position radially
    renormalized onto the polytope after each step; returns the final sphere."""
    for _ in range(int(round(t_max / h))):
        P = s.rep_positions() + h * np.stack([velocity(s, i) for i in range(s.n_reps)])
        P = 2.0 * P / np.abs(P).sum(axis=1, keepdims=True)
        s = rf.EmbeddedSphere(s.matroid, s.graph, P, validate=False)
    return s


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


def check_circuit_axioms(m):
    """Loop version of rf.check_circuit_axioms, with the same violation cap."""
    circuits = m.sorted_circuits()
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
        if not c.is_canonical:
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


def circuit_graph(m):
    """Loop version of the circuit graph (axioms unchecked), as
    rf.complexes._circuit_graph builds it."""
    vertices = _ordered_vertices(m.sorted_circuits())
    vmasks = [masks(v) for v in vertices]
    edges = []
    for i, j in combinations(range(len(vertices)), 2):
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
    cycles = partition_edges_into_cycles(edges, vmasks)
    return rf.CircuitGraph(vertices=vertices, edges=tuple(edges), cycles=cycles)


def radon_complex(config):
    """Loop version of rf.geometric_radon_complex: depth-first closure of the
    signed circuits under conformal composition, then one conforming list
    per realized sign vector."""
    dependences = circuit_dependences(config)
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
    facet_cells = []
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
            facet_cells.append(rf.Cell(dim=cell_dim, vertices=frozenset(conforming)))

    edges = sorted(edge_set)
    cycles = partition_edges_into_cycles(edges, vmasks)
    graph = rf.CircuitGraph(vertices=vertices, edges=tuple(edges), cycles=cycles)
    facets = tuple(sorted(facet_cells, key=lambda c: (c.dim, tuple(sorted(c.vertices)))))
    return rf.RadonComplex(graph=graph, facets=facets, n=n, d=d, positions=positions)


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


def sample_configuration(n, d, rng):
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
    return rf.PointConfiguration(pts, d)


def relabeled(m, perm):
    """m with element e renamed perm[e], each circuit re-canonicalized."""
    return rf.OrientedMatroid(
        m.ground,
        frozenset(
            rf.Circuit.make({perm[e] for e in c.pos}, {perm[e] for e in c.neg})
            for c in m.circuits
        ),
    )


def sampled_census(n, d, seed, stable_rounds):
    """Sampled acyclic oriented matroids of n points in R^d, closed under
    relabeling, keyed by circuit_key, and the spanning configurations drawn.

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
        if m.circuit_key() not in found:
            quiet = 0
            for perm in perms:
                pm = relabeled(m, perm)
                found.setdefault(pm.circuit_key(), pm)
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


def weak_map_matrix(elements):
    """leq[i, j] = weak_map_leq(elements[i], elements[j]), one call per pair."""
    return np.array(
        [[rf.weak_map_leq(a, b) for b in elements] for a in elements], dtype=bool
    ).reshape(len(elements), len(elements))


def hasse_pairs(leq):
    """Cover relations i < j of a reflexive order matrix, row-major."""
    k = len(leq)
    strict = leq & ~np.eye(k, dtype=bool)
    return [
        (i, j)
        for i in range(k)
        for j in range(k)
        if strict[i, j] and not (strict[i] & strict[:, j]).any()
    ]


def maximal_indices(leq):
    k = len(leq)
    return [i for i in range(k) if not any(leq[i, j] and i != j for j in range(k))]


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


def gf2_betti_dense(c):
    """Betti numbers over GF(2) from dense boundary matrices."""
    if not c.simplices:
        return []
    index = [{s: i for i, s in enumerate(lst)} for lst in c.simplices]
    ranks = [0] * (len(c.simplices) + 1)
    for k in range(1, len(c.simplices)):
        lower, upper = c.simplices[k - 1], c.simplices[k]
        mat = np.zeros((len(lower), len(upper)), dtype=np.uint8)
        for j, s in enumerate(upper):
            for drop in range(len(s)):
                mat[index[k - 1][s[:drop] + s[drop + 1 :]], j] = 1
        ranks[k] = gf2_rank_dense(mat)
    return [
        len(c.simplices[k]) - ranks[k] - ranks[k + 1] for k in range(len(c.simplices))
    ]

"""Curvature flow that stretches an embedded circuit sphere flat.

Every vertex v of a circuit graph sits on the face of the ambient polytope
labeled by its sign pattern.  For each cycle through v the two cycle
neighbors a, b define a local curvature

    eta = sqrt(det Gram(w_hat, w_hat')),

where w, w' are the components of a and b orthogonal to the position of v;
eta vanishes exactly when the three positions are linearly dependent, i.e.
coplanar with the origin.  eta is the curvature the flow reports.

The flow is projected steepest descent on the energy E = sum vol^2 over all
(vertex, cycle) incidences, vol = |v| |w| |w'| eta being the 3-volume
spanned by v, a and b.  The gradient is projected onto the span of each
vertex's face directions, steps are Barzilai-Borwein trials cut back by
backtracking (see integrate) from a fixed first trial FIRST_STEP, and
after each step positions are radially renormalized onto the polytope.
Zero-energy states are flat embeddings: the positions span a subspace of
dimension n - d - 1 whose orthogonal complement in the zero-sum hyperplane
is (the row space of) a recovered point configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import CircuitGraph, _circuit_edges, combinatorial_circuit_graph, project_to_gamma
from .core import (
    EPS_FLAT,
    EPS_MEM,
    EPS_SIGN,
    MIN_STEP,
    TOL_CURV,
    OrientedMatroid,
    PointConfiguration,
    _distinct,
    circuit_dependences,
)

# backtracking line search: the sufficient-decrease fraction
ARMIJO = 1e-4
# the first trial of a run's first step; Barzilai-Borwein trials follow
FIRST_STEP = 0.01
# integrate's default step budget
MAX_STEPS = 10_000

OUTCOME_CONVERGED = "converged-flat"
OUTCOME_STALLED = "stalled"
OUTCOME_STEP_LIMIT = "step-limit"


class IntegrationError(RuntimeError):
    """Numerical failure while integrating the flow."""


class NotFlatError(ValueError):
    """Positions do not span a subspace of the expected dimension."""


@dataclass
class TraceSample:
    t: float
    curv_max: float
    curv_mean: float
    vel_max: float


@dataclass
class FlowTrace:
    samples: list[TraceSample]
    outcome: str

    def to_csv_text(self) -> str:
        lines = ["t,curv_max,curv_mean,vel_max"]
        for s in self.samples:
            lines.append(f"{s.t!r},{s.curv_max!r},{s.curv_mean!r},{s.vel_max!r}")
        return "\n".join(lines) + "\n"


def _check_delta(delta: float) -> float:
    """delta, if EmbeddedSphere.perturbed takes it: >= 0, inf included."""
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, not {delta!r}")
    return delta


class EmbeddedSphere:
    """A circuit graph with one position per vertex, antipodally paired.

    Positions are stored for the representatives only, the first half of
    the graph's vertices, whose faces are the rows of signs: its matroid's
    sign rows (CircuitGraph).  Vertex k + reps, the antipode of vertex k,
    sits at the negated position.  matroid is the graph's.  Construction
    checks that every position lies on the polytope and inside its own
    face, every face margin above EPS_SIGN, and perturbed and integrate
    build their results through it.
    face_margins is the package's one face check: validation, the flow's
    face tests and the perturbation's radius all read it, with the one
    threshold EPS_SIGN.
    """

    def __init__(self, graph: CircuitGraph, rep_positions: np.ndarray) -> None:
        self.graph = graph
        self.signs = graph.matroid.signs
        pos = np.asarray(rep_positions, dtype=float)
        if pos.shape != self.signs.shape:
            raise ValueError(f"expected positions of shape {self.signs.shape}")
        self._pos = pos.copy()
        self._on = self.signs != 0
        self._validate()

    @property
    def matroid(self) -> OrientedMatroid:
        return self.graph.matroid

    def face_margins(self, P: np.ndarray) -> np.ndarray:
        """signs * P on each representative's support, +inf off it: a row of
        P is strictly inside its face iff its smallest margin is positive,
        and each margin is how far that coordinate may move before it leaves."""
        return np.where(self._on, self.signs * P, np.inf)

    def _validate(self) -> None:
        x = self._pos
        off = (np.abs(x.sum(axis=1)) > EPS_MEM) | (np.abs(np.abs(x).sum(axis=1) - 2.0) > EPS_MEM)
        if off.any():
            k = int(np.flatnonzero(off)[0])
            raise ValueError(f"position of {self.graph.vertex_text(k)} is off the polytope")
        for mask, what in (
            (self.face_margins(x) <= EPS_SIGN, "has left its face"),
            (~self._on & (np.abs(x) > EPS_SIGN), "has support leakage on"),
        ):
            rows, cols = np.nonzero(mask)
            if rows.size:
                raise ValueError(f"{self.graph.vertex_text(rows[0])} {what} element {int(cols[0]) + 1}")

    @property
    def n_reps(self) -> int:
        return self._pos.shape[0]

    def positions_all(self) -> np.ndarray:
        return np.vstack([self._pos, -self._pos])

    def rep_positions(self) -> np.ndarray:
        return self._pos.copy()

    @classmethod
    def from_points(cls, config: PointConfiguration) -> "EmbeddedSphere":
        """The geometric embedding of a spanning configuration: each circuit
        of circuit_dependences at its dependence vector, radially normalized
        onto the polytope, on the circuit graph of the adjacency rule
        (_circuit_edges), axioms unchecked.  These are the signs, edges and
        positions of geometric_radon_complex, without its higher cells."""
        matroid, dependences = circuit_dependences(config)
        return cls(CircuitGraph(matroid, _circuit_edges(matroid)), project_to_gamma(dependences))

    @classmethod
    def at_barycenters(cls, matroid: OrientedMatroid) -> "EmbeddedSphere":
        a, b = matroid.signs > 0, matroid.signs < 0
        pos = a / np.maximum(a.sum(axis=1, keepdims=True), 1) - b / np.maximum(
            b.sum(axis=1, keepdims=True), 1
        )
        return cls(combinatorial_circuit_graph(matroid), pos)

    def perturbed(self, delta: float, rng: np.random.Generator) -> "EmbeddedSphere":
        """Displace every representative inside its face, then renormalize.

        Representative k moves along a uniform random unit direction of its
        face's tangent space (support coordinates, zero sum on each sign
        part) by radius r * u^(1/dim), r = min(delta, margin_k / 2,
        margin_k - EPS_SIGN), u uniform in [0, 1) and margin_k the smallest
        of its face_margins: uniformly in a ball of radius delta, clipped to
        half the distance to the face's boundary and to what keeps the
        margin above EPS_SIGN (the same r whenever margin_k >= 2 EPS_SIGN).
        The tangent basis rows are orthonormal and u^(1/dim) < 1, so no
        coordinate moves by r or more, and every new margin exceeds
        margin_k - r >= EPS_SIGN: the result passes construction's face
        check, whatever delta >= 0 (inf included); a negative or NaN delta
        raises ValueError.  The draws are standard_normal(dim) then
        uniform(), representative by representative; the tangent bases come
        from one SVD per support size, of the stacked constraint matrices
        (the two sign-part indicator rows of each face).
        """
        _check_delta(delta)
        new = self._pos.copy()
        margins = self.face_margins(new).min(axis=1)
        sizes = self._on.sum(axis=1)
        bases = {}  # representative -> its (dim, size) tangent basis
        for size in _distinct(sizes[sizes > 2])[0].tolist():
            ks = np.flatnonzero(sizes == size)
            faces = self.signs[ks][self._on[ks]].reshape(len(ks), 1, size)
            cons = np.concatenate([faces > 0, faces < 0], axis=1).astype(float)
            bases.update(zip(ks.tolist(), np.linalg.svd(cons)[2][:, 2:]))
        for k in sorted(bases):
            basis = bases[k]
            dim = basis.shape[0]
            g = rng.standard_normal(dim)
            g /= max(np.linalg.norm(g), 1e-30)
            radius = min(delta, margins[k] / 2.0, margins[k] - EPS_SIGN) * rng.uniform() ** (1.0 / dim)
            row = new[k].copy()
            row[self._on[k]] += radius * (g @ basis)
            new[k] = 2.0 * row / np.abs(row).sum()
        return EmbeddedSphere(self.graph, new)

    def payload(self) -> dict:
        """The sphere as the CLI writes it: the graph's payload, n and d
        among it, and the positions as their array."""
        return {**self.graph.payload(), "positions": self.positions_all()}


_add = np.add.reduce


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _add(x * y, axis=-1, keepdims=True)


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms as a column, the values np.linalg.norm(x, axis=-1,
    keepdims=True) gives, without its per-call overhead."""
    return np.sqrt(_add(x * x, axis=-1, keepdims=True))


class _Field:
    """Vectorized curvature, energy and energy gradient over all vertices.

    Reductions call np.add.reduce, np.minimum.reduce and np.maximum.reduce,
    the ufuncs behind ndarray.sum, .min and .max, without the methods'
    per-call overhead; every float is the one those methods give.
    """

    def __init__(self, sphere: EmbeddedSphere) -> None:
        # one (vertex, neighbor before, neighbor after) row per cycle through
        # a representative, stably sorted by vertex: each vertex's cycles in
        # the order of graph.cycles.  A cycle's neighbors are its sequence
        # shifted by one place either way, wrapping at its ends.
        self.reps = reps = sphere.n_reps
        seq = sphere.graph.cycles.fields["vertex_seq"]
        at = np.arange(len(seq.values))
        before, after = at - 1, at + 1
        before[seq.offsets[:-1]], after[seq.offsets[1:] - 1] = seq.offsets[1:] - 1, seq.offsets[:-1]
        rows = seq.values[np.stack([at, before, after], axis=1)]
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        self.v_idx, self.a_idx, self.b_idx = rows[rows[:, 0] < reps].T.copy()
        # the rows of [P; -P] that evaluate gathers: a, b, then v
        self.abv_idx = np.stack([self.a_idx, self.b_idx, self.v_idx])
        self.mask = sphere._on.astype(float)
        self.mask_size = _add(self.mask, axis=1, keepdims=True)
        # the flat entries of the (2 reps, n) gradient that the rows of the
        # v, a and b terms add to, in that order: one bincount sums each
        # entry's terms in the order of three row-wise np.add.at calls
        n = self.mask.shape[1]
        ends = np.concatenate([self.v_idx, self.a_idx, self.b_idx])
        self.entries = (ends[:, None] * n + np.arange(n)).ravel()

    def evaluate(self, P: np.ndarray) -> tuple[np.ndarray, float, tuple]:
        """eta per (vertex, cycle) incidence, the energy E = sum vol^2, and
        the terms that stats reads the gradient from."""
        abv = np.concatenate([P, -P])[self.abv_idx]
        ab, v = abv[:2], abv[2]
        nv = _norms(v)
        vn = v / nv
        # w, w2 stacked: a and b off v
        ww = ab - _dot(ab, vn) * vn
        nww = _norms(ww)
        if nww.size and np.minimum.reduce(nww, axis=None) < EPS_SIGN:
            raise IntegrationError("degenerate neighbor pair: radial neighbor position")
        wh, wh2 = ww / nww
        nw, nw2 = nww
        # sqrt(det Gram) in Schur form: the residual norm is exact near zero,
        # where 1 - cos^2 would lose half the available precision
        c = _dot(wh, wh2)
        res = wh2 - c * wh
        eta = _norms(res)[:, 0]
        energy = float(_add((((nv * nw * nw2)[:, 0] * eta) ** 2)))
        return eta, energy, (abv, nv, nw, nw2, wh, wh2, c, res)

    def stats(
        self, evaluated: tuple[np.ndarray, float, tuple]
    ) -> tuple[float, np.ndarray, float, float, float]:
        """Of evaluate's result: the energy, its gradient projected onto
        every vertex's face, max/mean vertex curvature and the largest
        gradient row norm."""
        eta, energy, (abv, nv, nw, nw2, wh, wh2, c, res) = evaluated
        a, b, v = abv
        # d vol^2 / dx = 2 area(other two)^2 (x orthogonal to the other two),
        # each orthogonal part in the same Schur form: nw2 * res is b off
        # span(v, a), nw * (wh - c wh2) is a off span(v, b).  Antipodal
        # neighbors (b = -a, in a direct sum) leave u = 0 and area(a, b) = 0,
        # so the floor on nu only keeps 0/0 out of a zero term.
        na = _norms(a)
        ah = a / na
        u = b - _dot(b, ah) * ah
        nu = _norms(u)
        uh = u / np.maximum(nu, EPS_SIGN)
        # the v, a and b terms, in the order of self.entries
        terms = np.empty_like(abv)
        np.multiply((na * nu) ** 2, v - _dot(v, ah) * ah - _dot(v, uh) * uh, out=terms[0])
        np.multiply((nv * nw2) ** 2 * nw, wh - c * wh2, out=terms[1])
        np.multiply((nv * nw) ** 2 * nw2, res, out=terms[2])
        dE = np.bincount(self.entries, terms.ravel(), minlength=2 * self.mask.size)
        dE = dE.reshape(2 * self.reps, -1)
        # an antipode sits at the negated position of its representative
        g = 2.0 * (dE[: self.reps] - dE[self.reps :]) * self.mask
        g -= self.mask * (_add(g, axis=1, keepdims=True) / self.mask_size)
        if not self.reps:
            return energy, g, 0.0, 0.0, 0.0
        curv = np.bincount(self.v_idx, eta, minlength=self.reps)
        vel_max = float(np.maximum.reduce(_norms(g), axis=None))
        curv_max = float(np.maximum.reduce(curv))
        curv_mean = float(_add(curv) / self.reps)
        return energy, g, curv_max, curv_mean, vel_max


def _renormalized(P: np.ndarray) -> np.ndarray:
    """Every row radially rescaled onto the polytope (1-norm 2)."""
    norms = _add(np.abs(P), axis=1)
    if norms.size and np.minimum.reduce(norms) < EPS_MEM:
        raise IntegrationError("a position collapsed to the origin")
    return 2.0 * P / norms[:, None]


def integrate(s: EmbeddedSphere, *, max_steps: int = MAX_STEPS) -> tuple[EmbeddedSphere, FlowTrace]:
    """Run the flow until it converges, stalls or runs out of steps.

    Projected steepest descent on E = sum vol^2 (module docstring) moves one
    representative per antipodal pair, then renormalizes every position
    radially.  Armijo backtracking accepts a trial step h when every vertex
    stays strictly inside its face and E falls strictly below
    E - ARMIJO * h * |g|^2, g the projected gradient, and halves h otherwise;
    a trial that leaves a face is halved before it is evaluated.  The first
    trial is FIRST_STEP.  After an accepted step with s = P_new - P and
    y = g_new - g over the representatives' rows, the next first trial is
    the short Barzilai-Borwein step max(s.y / y.y, MIN_STEP) if s.y > 0,
    and otherwise the last step doubled.  No trial is capped from above:
    backtracking alone refuses a step that leaves a face or does not lower
    E enough.  The accepted trial's evaluation gives the next gradient.
    The trace's t sums the accepted steps and vel_max is the largest row
    norm of g.

    One test per outcome, before each step: a max vertex curvature below
    TOL_CURV converges, and max_steps accepted steps are a step limit (a
    budget of 0 takes no step).  No trial h >= MIN_STEP passing both tests
    (a zero gradient passes none) is a stall.  Every face test reads
    s.face_margins.

    A trial is accepted only if its smallest margin exceeds EPS_SIGN, the
    complement of construction's face check, so the final state, built as
    an EmbeddedSphere, passes it.  The face test also rules collisions
    out.  The start's off-support coordinates are zeroed, and they stay
    exactly 0: g is masked to the supports and renormalization only
    scales.  Two distinct vertices x, y of P and -P then have distinct
    sign vectors, so in some coordinate e one of them, say x, is nonzero
    and y_e is zero or of opposite sign, and |x - y| >= |x_e - y_e| >=
    |x_e|, at least the smallest margin: every accepted state keeps every
    two vertices more than EPS_SIGN apart.

    Flat means realized.  A converged-flat run ends with every
    representative strictly inside its face, so each circuit is the sign
    vector of a vector of the flat span V: an affine dependence, so a Radon
    partition, of the points recover_configuration reads off V.  Where
    their circuits are exactly the matroid's (the round trip) they realize
    it, so a non-realizable matroid (a non-Pappus one of the tests) never
    ends converged-flat with a round trip.
    """
    field = _Field(s)
    P = s.rep_positions() * s._on
    samples: list[TraceSample] = []
    t = 0.0
    h = FIRST_STEP
    energy, g, curv_max, curv_mean, vel_max = field.stats(field.evaluate(P))
    while True:
        samples.append(TraceSample(t, curv_max, curv_mean, vel_max))
        if curv_max < TOL_CURV:
            outcome = OUTCOME_CONVERGED
            break
        if len(samples) > max_steps:
            outcome = OUTCOME_STEP_LIMIT
            break
        decrease = ARMIJO * float(_add(g * g, axis=None))
        while h >= MIN_STEP:
            P_new = _renormalized(P - h * g)
            margin = np.minimum.reduce(s.face_margins(P_new), axis=None, initial=np.inf)
            if margin > EPS_SIGN:
                trial = field.evaluate(P_new)
                if trial[1] < energy - h * decrease:
                    break
            h *= 0.5
        else:
            outcome = OUTCOME_STALLED
            break
        t += h
        energy, g_new, curv_max, curv_mean, vel_max = field.stats(trial)
        y = g_new - g
        sy = float(_add((P_new - P) * y, axis=None))
        h = max(sy / float(_add(y * y, axis=None)), MIN_STEP) if sy > 0.0 else 2.0 * h
        P, g = P_new, g_new
    return EmbeddedSphere(s.graph, P), FlowTrace(samples=samples, outcome=outcome)


def recover_configuration(s: EmbeddedSphere) -> PointConfiguration:
    """Read a point configuration off a flat embedding.

    The positions must span a subspace V of dimension n - d - 1 (relative
    singular-value threshold EPS_FLAT); the recovered configuration has as
    rows a basis of the orthogonal complement of V inside the zero-sum
    hyperplane, one coordinate column per ground-set element, mapped so
    that the first colex basis b_0 < ... < b_d whose minor passes the rank
    rule sits on the standard simplex: p_{b_0} = 0 and p_{b_k} = e_k.
    The SVD is thin: no (2 reps, 2 reps) U is built, as only sv and vt are read.
    """
    n, d = s.matroid.n, s.matroid.d
    m = n - d - 1
    _, sv, vt = np.linalg.svd(s.positions_all(), full_matrices=False)
    if sv.size < m or sv[0] <= 0.0:
        raise NotFlatError("positions span too small a subspace")
    rel = sv / sv[0]
    if rel[m - 1] <= EPS_FLAT:
        raise NotFlatError(
            f"positions span less than {m} dimensions (sv ratio {rel[m - 1]:.2e})"
        )
    if sv.size > m and rel[m] >= EPS_FLAT:
        raise NotFlatError(
            f"positions are not flat: dimension exceeds {m} (sv ratio {rel[m]:.2e})"
        )
    V = vt[:m]
    stack = np.vstack([V, np.ones((1, n)) / math.sqrt(n)])
    _, _, vt2 = np.linalg.svd(stack)
    W = vt2[m + 1 :]
    if W.shape[0] != d:
        raise NotFlatError("complement of the span has unexpected dimension")
    points = W.T
    bases, minors = PointConfiguration(points, d)._minors
    first, *rest = bases[np.flatnonzero(minors)[0]]
    frame = points[rest] - points[first]
    return PointConfiguration(np.linalg.solve(frame.T, (points - points[first]).T).T, d)


def curvature_decay_stats(trace: FlowTrace) -> tuple[float, float]:
    """Least-squares decay rate and r^2 of log curv_max over the
    post-transient window (samples after curv_max first halves)."""
    pts = [(s.t, s.curv_max) for s in trace.samples if s.curv_max > 0.0]
    if len(pts) < 10:
        raise ValueError("need at least ten samples with positive curvature")
    c0 = pts[0][1]
    start = next((i for i, (_, c) in enumerate(pts) if c < 0.5 * c0), None)
    if start is None or len(pts) - start < 2:
        raise ValueError("curvature never halves; no post-transient window")
    ts = np.array([t for t, _ in pts[start:]])
    ys = np.log(np.array([c for _, c in pts[start:]]))
    slope, intercept = np.polyfit(ts, ys, 1)
    fit = slope * ts + intercept
    ss_res = float(((ys - fit) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return float(slope), float(r2)

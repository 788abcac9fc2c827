import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import radonflow as rf
from conftest import DIRECT_SUM, sample_spanning_points
from oracles import (
    chirotope,
    cycle_pairs,
    field_evaluate,
    field_flow,
    local_curvature,
    min_pair_distance,
    perturbed_positions,
    unchecked,
    velocity,
    vertex_objects,
)
from radonflow import flow
from radonflow.cli import _sample_spanning_points
from radonflow.core import _distinct_circuits, _gather_circuits
from radonflow.flow import _Field, _renormalized

# the sampled-shape gate: (n, d, rep) with a configuration drawn from
# default_rng([1, n, d, rep]) and a delta = 0.01 perturbation from default_rng([rep])
SAMPLED_SHAPES = [
    (n, d, rep)
    for n, d in ((7, 2), (8, 2), (7, 3), (8, 3), (9, 2), (9, 3), (8, 4), (9, 4), (10, 4))
    for rep in range(3)
]
# corank 2 past (10,4), seeded as SAMPLED_SHAPES: reps 0-2 converge in 242,
# 150 and 88 steps at (8,5) and in 978, 275 and 212 at (9,6), each with a
# round trip, so they gate at CORANK_TWO_STEPS, not at SAMPLED_SHAPES' 600
CORANK_TWO_SHAPES = [(n, d, rep) for n, d in ((8, 5), (9, 6)) for rep in range(3)]
CORANK_TWO_STEPS = 1200
# census shapes (n, d, sample): every element, or a default_rng(0) sample of
# that many, flows from its barycentric embedding back to itself.  When
# every step doubled the last at TOL_CURV = 1e-8, 52 of the 270 (5,1)
# elements and 47 of the sampled (5,2) ones converged onto another matroid.
REALIZED_SHAPES = [
    (4, 1, None), (4, 2, None), (5, 1, None), (5, 3, None), (6, 4, None), (5, 2, 150), (6, 1, 200),
    (6, 2, 100),
]


def sampled_config(n, d, rep):
    pts = sample_spanning_points(n, d, np.random.default_rng([1, n, d, rep]))
    return rf.PointConfiguration(pts.astype(float), d)


def sampled_sphere(n, d, rep):
    return rf.EmbeddedSphere.from_points(sampled_config(n, d, rep))


@pytest.fixture(scope="module")
def spheres(pentagon_sphere, hexagon_sphere):
    direct_sum = rf.EmbeddedSphere.from_points(rf.PointConfiguration(np.asarray(DIRECT_SUM, float), 2))
    return {"pentagon": pentagon_sphere, "hexagon": hexagon_sphere,
            "(8,2)": sampled_sphere(8, 2, 0), "direct sum": direct_sum}


def face_tangent(field, rng):
    """A random direction that is zero off every support and zero-sum on it."""
    D = rng.standard_normal(field.mask.shape) * field.mask
    return D - field.mask * (D.sum(axis=1, keepdims=True) / field.mask_size)


def test_geometric_embeddings_are_fixed_points(pentagon_sphere, hexagon_sphere):
    for s in (pentagon_sphere, hexagon_sphere):
        for i in range(len(s.graph.vertices)):
            total, _ = local_curvature(s, i)
            assert total < 1e-10
            assert np.linalg.norm(velocity(s, i)) < 1e-10


def test_vectorized_field_matches_reference(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    field = _Field(s)
    _, _, curv_max, curv_mean, _ = field.stats(field.evaluate(s.rep_positions()))
    totals = [local_curvature(s, i)[0] for i in range(s.n_reps)]
    assert abs(curv_max - max(totals)) < 1e-12
    assert abs(curv_mean - np.mean(totals)) < 1e-12


@pytest.mark.parametrize("shape", ["pentagon", "hexagon", "(8,4)"])
def test_field_equals_the_add_at_oracle_bit_for_bit(pentagon_sphere, hexagon_sphere, shape):
    # row norms by sqrt of row sums and one bincount for the three scatters
    # give the same floats as np.linalg.norm and np.add.at did
    sphere = {"pentagon": pentagon_sphere, "hexagon": hexagon_sphere}.get(shape)
    sphere = sphere or sampled_sphere(8, 4, 1)
    for seed in range(3):
        s = sphere.perturbed(0.05, np.random.default_rng([7, seed]))
        field, P = _Field(s), s.rep_positions()
        evaluated = field.evaluate(P)
        eta, energy, g = field_evaluate(field, P)
        assert np.array_equal(evaluated[0], eta) and evaluated[1] == energy
        assert np.array_equal(field.stats(evaluated)[1], g)


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "(8,2)", "direct sum"])
def test_energy_gradient_matches_central_differences(spheres, name):
    s = spheres[name].perturbed(0.05, np.random.default_rng(3))
    field = _Field(s)
    P = s.rep_positions()
    energy, g, _, _, _ = field.stats(field.evaluate(P))
    assert energy > 0.0 and field.evaluate(P)[1] == energy
    rng = np.random.default_rng(0)
    for _ in range(5):
        D = face_tangent(field, rng)
        eps = 1e-6
        fd = (field.evaluate(P + eps * D)[1] - field.evaluate(P - eps * D)[1]) / (2.0 * eps)
        assert abs(fd - (g * D).sum()) <= 1e-7 * abs(fd)


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "(8,2)", "direct sum"])
def test_descent_direction_is_face_tangent(spheres, name):
    s = spheres[name].perturbed(0.05, np.random.default_rng(9))
    field = _Field(s)
    g = field.stats(field.evaluate(s.rep_positions()))[1]
    assert np.abs(g).max() > 1e-3
    assert np.all(g[s.signs == 0] == 0.0)
    assert np.abs(g.sum(axis=1)).max() < 1e-12


def test_gradient_vanishes_on_flat_embeddings(spheres):
    flat = list(spheres.values()) + [sampled_sphere(n, d, rep) for n, d, rep in SAMPLED_SHAPES]
    for s in flat:
        field = _Field(s)
        energy, g, curv_max, _, vel_max = field.stats(field.evaluate(s.rep_positions()))
        assert energy < 1e-20 and curv_max < 1e-8
        assert vel_max < 1e-10 and np.abs(g).max() < 1e-10


def test_curvature_equals_gram_determinant(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    full = s.positions_all()
    for i in range(10):
        p = full[i]
        pn = p / np.linalg.norm(p)
        _, etas = local_curvature(s, i)
        for (a, b), eta in zip(cycle_pairs(s.graph)[i], etas):
            pa, pb = full[a], full[b]
            w = pa - (pa @ pn) * pn
            w2 = pb - (pb @ pn) * pn
            wh = w / np.linalg.norm(w)
            wh2 = w2 / np.linalg.norm(w2)
            gram = np.array([[wh @ wh, wh @ wh2], [wh2 @ wh, wh2 @ wh2]])
            assert abs(eta - math.sqrt(max(np.linalg.det(gram), 0.0))) < 1e-12


def test_velocity_stays_in_face_tangents(pentagon_sphere, hexagon_sphere):
    for s in (pentagon_sphere, hexagon_sphere):
        sp = s.perturbed(0.05, np.random.default_rng(9))
        for i, v in enumerate(vertex_objects(sp.graph)):
            dv = velocity(sp, i)
            off = [e for e in range(1, sp.matroid.n + 1) if e not in v.support]
            assert all(abs(dv[e - 1]) < 1e-12 for e in off)
            assert abs(dv.sum()) < 1e-12


def test_velocity_is_antipodally_equivariant(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    for i in range(s.n_reps):
        # vertex i + n_reps is vertex i's antipode
        assert np.abs(velocity(s, i + s.n_reps) + velocity(s, i)).max() < 1e-12


def test_flat_input_converges_immediately(pentagon_sphere):
    final, trace = rf.integrate(pentagon_sphere)
    assert trace.outcome == rf.OUTCOME_CONVERGED
    assert len(trace.samples) == 1
    assert trace.samples[0].t == 0.0
    drift = np.abs(final.rep_positions() - pentagon_sphere.rep_positions()).max()
    assert drift < 1e-12


def test_perturbed_pentagon_flows_back(pentagon_sphere, pentagon_config):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(11))
    final, trace = rf.integrate(s)
    assert trace.outcome == rf.OUTCOME_CONVERGED
    assert trace.samples[-1].t < 10.0
    assert trace.samples[-1].curv_max < rf.TOL_CURV
    rec = rf.recover_configuration(final)
    assert rf.circuits_of_points(rec) == rf.circuits_of_points(pentagon_config)


def test_pentagon_step_counts_are_steady(pentagon_sphere):
    # these 60 runs take 16-24 steps; a rule that doubled the last step up
    # to a largest step of 1 put seeds 33, 43 and 48 on a 1/2^k grid, where
    # they took 115-134 steps
    steps = []
    for seed in range(60):
        s = pentagon_sphere.perturbed(0.05, np.random.default_rng([seed, 0]))
        _, trace = rf.integrate(s)
        assert trace.outcome == rf.OUTCOME_CONVERGED
        steps.append(len(trace.samples) - 1)
    assert max(steps) <= 40, steps


def test_perturbed_hexagon_flows_back(hexagon_sphere, hexagon_config):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(11))
    final, trace = rf.integrate(s)
    assert trace.outcome == rf.OUTCOME_CONVERGED
    assert trace.samples[-1].t < 10.0
    rec = rf.recover_configuration(final)
    assert rf.circuits_of_points(rec) == rf.circuits_of_points(hexagon_config)


def test_perturbed_direct_sum_flows_back(spheres):
    s = spheres["direct sum"]
    pairs = [pair for v in range(s.n_reps) for pair in cycle_pairs(s.graph)[v]]
    assert any(abs(a - b) == s.n_reps for a, b in pairs)
    final, trace = rf.integrate(s.perturbed(0.05, np.random.default_rng(1)))
    assert trace.outcome == rf.OUTCOME_CONVERGED
    assert rf.circuits_of_points(rf.recover_configuration(final)) == s.matroid


def test_barycentric_start_flows_to_a_realization(pentagon_config, hexagon_config):
    for cfg in (pentagon_config, hexagon_config):
        m = rf.circuits_of_points(cfg)
        s = rf.EmbeddedSphere.at_barycenters(m)
        final, trace = rf.integrate(s)
        assert trace.outcome == rf.OUTCOME_CONVERGED
        assert rf.circuits_of_points(rf.recover_configuration(final)) == m


@pytest.mark.parametrize("n,d,sample", REALIZED_SHAPES)
def test_census_elements_flow_to_their_own_realizations(n, d, sample):
    table = rf.enumerate_acyclic_oms(n, d)
    ids = range(len(table)) if sample is None else np.random.default_rng(0).choice(len(table), sample, replace=False)
    failed = []
    for i in ids:
        m = table[int(i)]
        final, trace = rf.integrate(rf.EmbeddedSphere.at_barycenters(m), max_steps=3000)
        if trace.outcome != rf.OUTCOME_CONVERGED or rf.circuits_of_points(rf.recover_configuration(final)) != m:
            failed.append((int(i), trace.outcome))
    assert failed == []


def _meet(p, q, r, s):
    """The meet of line pq and line rs, in exact arithmetic."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p, q, r, s
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    a, b = x1 * y2 - y1 * x2, x3 * y4 - y3 * x4
    return (a * (x3 - x4) - (x1 - x2) * b) / den, (a * (y3 - y4) - (y1 - y2) * b) / den


def _pappus():
    """The nine points of Pappus's theorem: A1-A3 on y = 0.15x and B1-B3 on
    y = 4 + 0.2x at x = 0, 2, 5, then C1, C2, C3, the meets of A2B3 with
    A3B2, of A1B3 with A3B1 and of A1B2 with A2B1, which the theorem makes
    collinear: elements 7, 8, 9."""
    xs = [Fraction(0), Fraction(2), Fraction(5)]
    a = [(x, Fraction(3, 20) * x) for x in xs]
    b = [(x, 4 + Fraction(1, 5) * x) for x in xs]
    c = [_meet(a[1], b[2], a[2], b[1]), _meet(a[0], b[2], a[2], b[0]), _meet(a[0], b[1], a[1], b[0])]
    return rf.PointConfiguration(np.array(a + b + c, float), 2)


def _non_pappus(sign):
    """The oriented matroid of the Pappus chirotope with chi(C1C2C3) set to
    sign, its circuits read off the bases as the census reads them: not
    realizable, though it satisfies the circuit axioms (Ringel 1956;
    Bjorner, Las Vergnas, Sturmfels, White & Ziegler, Oriented Matroids, 8.3)."""
    cfg = _pappus()
    bases, minors = cfg._minors
    chi = np.sign(minors)
    chi[(bases == [6, 7, 8]).all(axis=1)] = sign
    spans, vals, _ = _distinct_circuits(*_gather_circuits(chi[None], 9, 3), 9)
    signs = np.zeros((len(spans), 9), np.int8)
    signs[np.arange(len(spans))[:, None], spans] = np.sign(vals)
    return rf.OrientedMatroid(rf.GroundSet(9, 2), signs)


def _realizes(final, m):
    """Whether the points recovered from a flat final embedding have the
    circuits of m."""
    try:
        return rf.circuits_of_points(rf.recover_configuration(final)) == m
    except (rf.NotFlatError, rf.RankDeficientError):
        return False


def test_pappus_flows_to_a_realization():
    cfg = _pappus()
    m = rf.circuits_of_points(cfg)
    assert len(m.signs) == 81 and np.count_nonzero(cfg._minors[1] == 0) == 9
    final, trace = rf.integrate(rf.EmbeddedSphere.at_barycenters(m), max_steps=3000)
    assert trace.outcome == rf.OUTCOME_CONVERGED and _realizes(final, m)


@pytest.mark.parametrize("sign", [1, -1])
def test_non_pappus_orientations_never_end_realized(sign):
    # flat with a round trip would realize a non-realizable matroid; the
    # flow ends some other way (today: IntegrationError, a degenerate
    # neighbour pair, within about 0.1 s)
    m = _non_pappus(sign)
    assert len(m.signs) == 86 and rf.check_circuit_axioms(m).ok
    try:
        final, trace = rf.integrate(rf.EmbeddedSphere.at_barycenters(m), max_steps=3000)
    except rf.IntegrationError:
        return
    assert trace.outcome != rf.OUTCOME_CONVERGED or not _realizes(final, m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_alone_does_not_flatten_the_pentagon(pentagon_sphere, seed):
    # the eta * Delta field keeps the single-cycle pentagon's curvature far
    # above tolerance up to t = 30, where descent on sum vol^2 converges in
    # under 200 steps
    start = pentagon_sphere.perturbed(0.05, np.random.default_rng(seed))
    _, trace = rf.integrate(start)
    assert trace.outcome == rf.OUTCOME_CONVERGED and len(trace.samples) - 1 < 200
    assert trace.samples[-1].t < 30.0
    end = field_flow(start, 0.01, 30.0)
    assert max(local_curvature(end, i)[0] for i in range(end.n_reps)) > 0.01


@pytest.mark.parametrize("n,d,rep", SAMPLED_SHAPES + CORANK_TWO_SHAPES)
def test_flow_flattens_sampled_shapes(n, d, rep):
    # the perturbation clipped to each face's margin, every run converges;
    # before the clip, six of these runs left a face at step 0
    config = sampled_config(n, d, rep)
    s = sampled_sphere(n, d, rep)
    final, trace = rf.integrate(s.perturbed(0.01, np.random.default_rng([rep])))
    assert trace.outcome == rf.OUTCOME_CONVERGED, trace.outcome
    # the most steps are 227 at d <= 3 and 555 at (10,4); capped at a step
    # of 1, (8,3) rep 1 took 478 and (9,4) reps 1 and 2 took 879 and 1264
    bound = CORANK_TWO_STEPS if (n, d, rep) in CORANK_TWO_SHAPES else 250 if d <= 3 else 600
    assert len(trace.samples) - 1 < bound
    recovered = rf.recover_configuration(final)
    assert rf.circuits_of_points(recovered) == s.matroid
    assert rf.same_chirotope(recovered, config)


def test_step_budget_cutoff(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    _, trace = rf.integrate(s, max_steps=3)
    assert trace.outcome == rf.OUTCOME_STEP_LIMIT
    assert len(trace.samples) - 1 == 3
    # the first trial step, FIRST_STEP, is accepted as it stands
    assert trace.samples[1].t == flow.FIRST_STEP


def test_trials_that_leave_a_face_are_never_evaluated(monkeypatch):
    # the first trial h = 0.1 of this gate run leaves a face, which once
    # ended the run as a face exit after one step
    s = sampled_sphere(9, 3, 0)
    start = s.perturbed(0.01, np.random.default_rng([0]))
    field, P = _Field(start), start.rep_positions()
    g = field.stats(field.evaluate(P))[1]
    assert (start.face_margins(_renormalized(P - 0.1 * g)) <= 0.0).any()
    left = []
    evaluate = _Field.evaluate

    def watched(self, P):
        left.append(bool((start.face_margins(P) <= 0.0).any()))
        return evaluate(self, P)

    monkeypatch.setattr(_Field, "evaluate", watched)
    monkeypatch.setattr("radonflow.flow.FIRST_STEP", 0.1)
    final, trace = rf.integrate(start)
    assert trace.outcome == rf.OUTCOME_CONVERGED and trace.samples[1].t < 0.1
    assert len(left) > len(trace.samples) and not any(left)
    assert rf.circuits_of_points(rf.recover_configuration(final)) == s.matroid


@pytest.mark.parametrize("growth", [0.0, 0.5], ids=["constant-gradient", "growing-gradient"])
def test_step_doubles_without_positive_curvature_along_it(pentagon_sphere, monkeypatch, growth):
    # a gradient that stays g0 (s.y = 0) or grows along g0 at every
    # evaluation (s.y < 0) gives no Barzilai-Borwein step, and an energy
    # that falls by 1 per evaluation accepts every first trial
    g0 = 1e-3 * face_tangent(_Field(pentagon_sphere), np.random.default_rng(0))

    class LinearField:
        def __init__(self, s):
            self.calls = 0

        def evaluate(self, P):
            self.calls += 1
            return None, -float(self.calls), self.calls

        def stats(self, evaluated):
            return evaluated[1], (1.0 + growth * evaluated[2]) * g0, 1.0, 1.0, 0.0

    monkeypatch.setattr("radonflow.flow._Field", LinearField)
    _, trace = rf.integrate(pentagon_sphere, max_steps=4)
    assert [smp.t for smp in trace.samples] == list(itertools.accumulate([0.0, 0.01, 0.02, 0.04, 0.08]))


@pytest.mark.parametrize("name", ["pentagon", "hexagon"])
def test_flat_input_stalls_at_the_armijo_floor(spheres, name, monkeypatch):
    # with no curvature tolerance a flat embedding cannot converge; its
    # gradient is zero up to rounding, so the line search halves every trial
    # below MIN_STEP within a few steps
    monkeypatch.setattr("radonflow.flow.TOL_CURV", 0.0)
    _, trace = rf.integrate(spheres[name])
    assert trace.outcome == rf.OUTCOME_STALLED
    assert len(trace.samples) - 1 <= 10


def test_zero_gradient_is_never_accepted(pentagon_sphere, monkeypatch):
    # a step that leaves E unchanged is no decrease: the line search halves
    # down to MIN_STEP and stalls instead of stepping in place
    class ConstantField:
        def __init__(self, s):
            self.shape = (s.n_reps, s.matroid.n)

        def evaluate(self, P, grad=False):
            return None, 1.0, None

        def stats(self, P):
            return 1.0, np.zeros(self.shape), 1.0, 1.0, 0.0

    monkeypatch.setattr("radonflow.flow._Field", ConstantField)
    _, trace = rf.integrate(pentagon_sphere, max_steps=50)
    assert trace.outcome == rf.OUTCOME_STALLED and len(trace.samples) == 1


def test_barzilai_borwein_trial_above_one_is_taken_whole(pentagon_sphere, monkeypatch):
    # a gradient 0.25 (P - Q) makes every Barzilai-Borwein step s.y / y.y
    # equal 4, and an energy that falls by 1 per evaluation accepts every
    # first trial: the second step is 4, not cut to a largest step
    target = pentagon_sphere.perturbed(0.05, np.random.default_rng(3)).rep_positions()
    energies = itertools.count(0.0, -1.0)

    class QuadraticField:
        def __init__(self, s):
            pass

        def evaluate(self, P):
            return None, next(energies), P

        def stats(self, evaluated):
            return evaluated[1], 0.25 * (evaluated[2] - target), 1.0, 1.0, 0.0

    monkeypatch.setattr("radonflow.flow._Field", QuadraticField)
    final, trace = rf.integrate(pentagon_sphere, max_steps=2)
    assert trace.outcome == rf.OUTCOME_STEP_LIMIT
    t = [smp.t for smp in trace.samples]
    assert t[1] == 0.01 and abs(t[2] - t[1] - 4.0) < 1e-9
    assert np.abs(final.rep_positions() - target).max() < 1e-12


def test_trace_grid_and_csv(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    _, trace = rf.integrate(s, max_steps=5)
    ts = [smp.t for smp in trace.samples]
    assert len(ts) == 6
    assert all(b > a for a, b in zip(ts, ts[1:]))
    text = trace.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "t,curv_max,curv_mean,vel_max"
    assert len(lines) == len(trace.samples) + 1
    assert text.endswith("\n")
    vals = [float(x) for x in lines[1].split(",")]
    assert vals[0] == 0.0 and len(vals) == 4


def test_recover_configuration_from_exact_embeddings(
    pentagon_sphere, pentagon_config, hexagon_sphere, hexagon_config
):
    for s, cfg in ((pentagon_sphere, pentagon_config), (hexagon_sphere, hexagon_config)):
        rec = rf.recover_configuration(s)
        assert rec.n == cfg.n and rec.d == cfg.d
        assert rec.affinely_spans()
        assert rf.circuits_of_points(rec) == rf.circuits_of_points(cfg)
        # the input in the recovered frame: its first colex basis with a
        # nonzero minor goes to the standard simplex
        bases = sorted(itertools.combinations(range(cfg.n), cfg.d + 1), key=lambda b: b[::-1])
        first, *rest = bases[np.flatnonzero(chirotope(cfg, bases))[0]]
        frame = cfg.points[rest] - cfg.points[first]
        framed = np.linalg.solve(frame.T, (cfg.points - cfg.points[first]).T).T
        assert np.abs(rec.points - framed).max() < 1e-12


def test_recovery_memory_is_linear_in_the_vertices():
    # (16,3), 4 357 representatives: a full SVD of [P; -P] built its
    # (8 714, 8 714) U, a 580 MB peak; the thin one reads off 16 columns
    config = _sample_spanning_points(16, 3, np.random.default_rng([1, 0]))
    s = rf.EmbeddedSphere.from_points(config)
    tracemalloc.start()
    try:
        recovered = rf.recover_configuration(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n_reps == 4357 and peak < 32 * 2**20
    assert rf.same_chirotope(recovered, config)


def test_recover_rejects_nonflat_states(pentagon_sphere):
    bent = pentagon_sphere.perturbed(0.05, np.random.default_rng(1))
    with pytest.raises(rf.NotFlatError, match="dimension exceeds"):
        rf.recover_configuration(bent)
    row = pentagon_sphere.rep_positions()[0]
    collapsed = unchecked(pentagon_sphere, np.tile(row, (5, 1)))
    with pytest.raises(rf.NotFlatError, match="span less than"):
        rf.recover_configuration(collapsed)


def test_decay_stats_on_planted_exponential():
    samples = [
        rf.TraceSample(t=0.05 * k, curv_max=5.0 * math.exp(-3.0 * 0.05 * k),
                       curv_mean=0.0, vel_max=0.0)
        for k in range(100)
    ]
    rate, r2 = rf.curvature_decay_stats(rf.FlowTrace(samples, rf.OUTCOME_CONVERGED))
    assert abs(rate + 3.0) < 1e-9
    assert r2 > 0.999999


def test_decay_stats_input_validation():
    flat = [rf.TraceSample(0.05 * k, 1.0, 1.0, 0.0) for k in range(50)]
    with pytest.raises(ValueError, match="never halves"):
        rf.curvature_decay_stats(rf.FlowTrace(flat, rf.OUTCOME_STALLED))
    short = [rf.TraceSample(0.05 * k, math.exp(-k), 0.0, 0.0) for k in range(5)]
    with pytest.raises(ValueError, match="ten samples"):
        rf.curvature_decay_stats(rf.FlowTrace(short, rf.OUTCOME_CONVERGED))
    dead = [rf.TraceSample(0.05 * k, 0.0, 0.0, 0.0) for k in range(50)]
    with pytest.raises(ValueError, match="ten samples"):
        rf.curvature_decay_stats(rf.FlowTrace(dead, rf.OUTCOME_CONVERGED))


def test_zero_step_budget_takes_no_step(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    final, trace = rf.integrate(s, max_steps=0)
    assert trace.outcome == rf.OUTCOME_STEP_LIMIT and len(trace.samples) == 1
    assert np.array_equal(final.rep_positions(), s.rep_positions())


@pytest.mark.parametrize("delta", [-1.0, -1e-12, math.nan, -math.inf])
def test_perturbed_refuses_a_negative_or_nan_delta(pentagon_sphere, delta):
    with pytest.raises(ValueError, match="delta must be >= 0"):
        pentagon_sphere.perturbed(delta, np.random.default_rng(0))

def test_perturbed_respects_faces(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(4))
    rf.EmbeddedSphere(s.graph, s.rep_positions())  # validates every face
    same = pentagon_sphere.perturbed(0.0, np.random.default_rng(4))
    drift = np.abs(same.rep_positions() - pentagon_sphere.rep_positions()).max()
    assert drift < 1e-12


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "(9,4)"])
def test_perturbed_equals_the_per_face_oracle_bit_for_bit(pentagon_sphere, hexagon_sphere, name):
    # one SVD per support size gives the tangent bases one SVD per face gave,
    # and the draws come in the same order
    sphere = {"pentagon": pentagon_sphere, "hexagon": hexagon_sphere}.get(name)
    sphere = sphere or sampled_sphere(9, 4, 0)
    for delta in (0.0, 0.01, 0.05, 1.0):
        for seed in range(3):
            got = sphere.perturbed(delta, np.random.default_rng([seed, 5])).rep_positions()
            want = perturbed_positions(sphere, delta, np.random.default_rng([seed, 5]))
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "(9,4)"])
def test_perturbation_is_clipped_to_half_each_face_margin(pentagon_sphere, hexagon_sphere, name):
    sphere = {"pentagon": pentagon_sphere, "hexagon": hexagon_sphere}.get(name)
    sphere = sphere or sampled_sphere(9, 4, 0)
    P0 = sphere.rep_positions()
    margins = sphere.face_margins(P0).min(axis=1)
    for delta in (0.01, 1.0, 100.0, math.inf):
        s = sphere.perturbed(delta, np.random.default_rng(4))
        rf.EmbeddedSphere(s.graph, s.rep_positions())  # validates every face
        assert (s.face_margins(s.rep_positions()) > 0.0).all()
        moved = np.linalg.norm(s.rep_positions() - P0, axis=1)
        assert (moved <= np.minimum(delta, margins / 2.0) * (1.0 + 1e-9)).all()
    # at delta = 1 the pentagon's unclipped start left a face before its
    # first step; its flowed state is still a valid sphere
    final, _ = rf.integrate(sphere.perturbed(1.0, np.random.default_rng(3)), max_steps=1)
    rf.EmbeddedSphere(final.graph, final.rep_positions())


def _near_face(sphere, x):
    """sphere's positions with coordinate e of representative k at x, its
    positive-part partner e2 taking up the difference so the row stays on
    the polytope and in its face; and k, e, e2."""
    k = int(np.flatnonzero((sphere.signs > 0).sum(axis=1) >= 2)[0])
    e, e2 = np.flatnonzero(sphere.signs[k] > 0)[:2]
    P = sphere.rep_positions()
    P[k, e2] += P[k, e] - x
    P[k, e] = x
    return P, k, e, e2


def test_perturbation_keeps_every_margin_above_eps_sign(pentagon_sphere):
    # one coordinate 1.2 EPS_SIGN from its face boundary: a radius of half
    # the margin moved it to EPS_SIGN or below at seeds 3, 14 and 17, which
    # construction refuses; the radius is also clipped to the margin less
    # EPS_SIGN
    P = _near_face(pentagon_sphere, 1.2 * rf.EPS_SIGN)[0]
    s = rf.EmbeddedSphere(pentagon_sphere.graph, P)
    for seed in range(20):
        moved = s.perturbed(math.inf, np.random.default_rng(seed))
        assert (moved.face_margins(moved.rep_positions()) > rf.EPS_SIGN).all()
        assert np.array_equal(moved.rep_positions(), perturbed_positions(s, math.inf, np.random.default_rng(seed)))


def test_a_boundary_stall_ends_on_a_valid_sphere():
    # the (6,3) census element 15602, flowed from its barycenters, stalls
    # at a face boundary; an accept rule of 2e-10 left it at margin 2e-10,
    # a state that EmbeddedSphere refuses ("has left its face")
    circuits = [([1], [2, 3, 4, 5]), ([1], [2, 3, 4, 6]), ([1, 2, 3, 5], [6]), ([1, 2, 5], [4, 6]),
                ([1, 5], [3, 4, 6]), ([2, 3, 4, 5], [6])]
    m = rf.OrientedMatroid.from_dict(
        {"n": 6, "d": 3, "circuits": [{"pos": pos, "neg": neg} for pos, neg in circuits]}
    )
    assert m == rf.enumerate_acyclic_oms(6, 3)[15602]
    final, trace = rf.integrate(rf.EmbeddedSphere.at_barycenters(m))
    assert trace.outcome == rf.OUTCOME_STALLED
    assert final.face_margins(final.rep_positions()).min() < 2.0 * rf.EPS_SIGN
    rf.EmbeddedSphere(final.graph, final.rep_positions())


def test_margins_rule_out_collisions():
    # states with exact zeros off every support, where two vertices agree
    # on every coordinate their faces share and differ only where their
    # sign vectors do, by amounts down to 1e-12: a smallest face margin
    # above EPS_SIGN leaves every pair more than EPS_SIGN apart
    s = sampled_sphere(8, 4, 1)
    signs = s.signs.astype(float)
    rng = np.random.default_rng(0)
    close_calls = 0
    for _ in range(400):
        P = signs * 10.0 ** rng.uniform(-1.0, 0.0, signs.shape)
        i, j = rng.choice(s.n_reps, size=2, replace=False)
        flip = rng.choice([1.0, -1.0])  # near the other vertex, or near its antipode
        same = signs[i] == flip * signs[j]
        P[j, same] = flip * P[i, same]
        tiny = 10.0 ** rng.uniform(-12.0, -8.0)
        for k in (i, j):
            differ = ~same & (signs[k] != 0)
            P[k, differ] = signs[k, differ] * tiny * rng.uniform(1.0, 2.0, differ.sum())
        margin = s.face_margins(P).min()
        if margin > rf.EPS_SIGN:
            assert min_pair_distance(P) > rf.EPS_SIGN
            close_calls += min_pair_distance(P) < 1e-8
    assert close_calls > 10


def test_collision_check_runs_only_where_margins_cannot_rule_it_out(pentagon_sphere, monkeypatch):
    # no check runs apart from the face test: integrate zeroes a start's
    # off-support leakage (at most EPS_SIGN, so still valid), so a leaky
    # start flows step for step as its zeroed start does
    start = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    P = start.rep_positions()
    leaks = np.argwhere(start.signs == 0)[:2]
    P[tuple(leaks.T)] = np.array([0.5, -0.5]) * rf.EPS_SIGN
    leaky = rf.EmbeddedSphere(start.graph, P)
    zeroed, trace = rf.integrate(start, max_steps=8)
    flowed, leaky_trace = rf.integrate(leaky, max_steps=8)
    assert len(trace.samples) - 1 == 8 and leaky_trace == trace
    assert np.array_equal(flowed.rep_positions(), zeroed.rep_positions())
    # the non-Pappus controls are the tier-1 runs that come nearest a face
    # boundary; every step they accept keeps its margins above EPS_SIGN
    margins, accepted = [], []
    evaluate, stats = _Field.evaluate, _Field.stats

    def watched_evaluate(self, P):
        margins.append(s.face_margins(P).min())
        return evaluate(self, P)

    def watched_stats(self, evaluated):
        accepted.append(margins[-1])  # stats reads the last evaluation
        return stats(self, evaluated)

    monkeypatch.setattr(_Field, "evaluate", watched_evaluate)
    monkeypatch.setattr(_Field, "stats", watched_stats)
    for sign in (1, -1):
        s = rf.EmbeddedSphere.at_barycenters(_non_pappus(sign))
        accepted.clear()
        try:
            rf.integrate(s, max_steps=3000)
        except rf.IntegrationError:
            pass
        steps = accepted[1:]  # the first is the start's
        assert len(steps) > 10 and min(steps) < 1e-6
        assert min(steps) > rf.EPS_SIGN


@pytest.mark.parametrize(
    "target, h",
    [(rf.EPS_SIGN / 2, 0.005), (rf.EPS_SIGN, 0.005), (2 * rf.EPS_SIGN, 0.01)],
    ids=["halved", "at-eps-sign", "accepted"],
)
def test_a_trial_within_eps_sign_of_a_face_is_halved(pentagon_sphere, monkeypatch, target, h):
    # a constant face-tangent gradient whose first trial h = 0.01 takes one
    # coordinate from 4 EPS_SIGN to target, and an energy that falls at every
    # evaluation: the trial is accepted iff target > EPS_SIGN, the complement
    # of construction's face check.  The coordinate's partner moves by ulps
    # until the renormalized trial lands on target exactly
    P, k, e, e2 = _near_face(pentagon_sphere, 4.0 * rf.EPS_SIGN)
    g0 = np.zeros(P.shape)
    g0[k, e] = (P[k, e] - target) / 0.01
    g0[k, e2] = -g0[k, e]
    for _ in range(8):
        if _renormalized(P - 0.01 * g0)[k, e] == target:
            break
        P[k, e2] = np.nextafter(P[k, e2], 1.0)
    else:
        pytest.fail("no trial lands on target exactly")
    s = rf.EmbeddedSphere(pentagon_sphere.graph, P)

    class ConstantGradient:
        def __init__(self, s):
            self.calls = 0

        def evaluate(self, P):
            self.calls += 1
            return None, -float(self.calls), None

        def stats(self, evaluated):
            return evaluated[1], g0, 1.0, 1.0, 0.0

    monkeypatch.setattr("radonflow.flow._Field", ConstantGradient)
    _, trace = rf.integrate(s, max_steps=1)
    assert trace.samples[1].t == h


def test_same_chirotope_is_the_circuit_comparison(hexagon_config, spheres):
    flipped = rf.PointConfiguration(hexagon_config.points * [-1.0, 1.0], 2)
    swapped = rf.PointConfiguration(hexagon_config.points[[1, 0, 2, 3, 4, 5]], 2)
    assert rf.circuits_of_points(flipped) == rf.circuits_of_points(hexagon_config)
    assert rf.same_chirotope(flipped, hexagon_config)
    assert rf.circuits_of_points(swapped) != rf.circuits_of_points(hexagon_config)
    assert not rf.same_chirotope(swapped, hexagon_config)
    assert not rf.same_chirotope(hexagon_config, rf.PointConfiguration(hexagon_config.points[:5], 2))
    s = spheres["direct sum"]
    config = rf.PointConfiguration(np.asarray(DIRECT_SUM, float), 2)
    for seed in range(4):
        final, trace = rf.integrate(s.perturbed(0.05, np.random.default_rng(seed)))
        assert trace.outcome == rf.OUTCOME_CONVERGED
        recovered = rf.recover_configuration(final)
        assert rf.circuits_of_points(recovered) == s.matroid
        assert rf.same_chirotope(recovered, config)
        assert not rf.same_chirotope(recovered, swapped)


def test_embedded_sphere_validation(pentagon_sphere):
    g = pentagon_sphere.graph
    good = pentagon_sphere.rep_positions()

    # each message names vertex 0, the circuit {1,3}|{2,4} signed +
    off = good.copy()
    off[0] *= 1.1  # breaks the 1-norm equation
    with pytest.raises(ValueError, match=r"^position of \+\{1,3\}\|\{2,4\} is off the polytope$"):
        rf.EmbeddedSphere(g, off)

    flipped = good.copy()
    flipped[0] *= -1.0  # keeps both defining equations, swaps the face
    with pytest.raises(ValueError, match=r"^\+\{1,3\}\|\{2,4\} has left its face element 1$"):
        rf.EmbeddedSphere(g, flipped)

    leak = good.copy()
    v0 = vertex_objects(g)[0]
    outside = next(e for e in range(1, 6) if e not in v0.support)
    donor = max(v0.pos, key=lambda e: leak[0, e - 1])
    leak[0, outside - 1] += 0.1
    leak[0, donor - 1] -= 0.1  # keeps both defining equations intact
    with pytest.raises(ValueError, match=r"^\+\{1,3\}\|\{2,4\} has support leakage on element 5$"):
        rf.EmbeddedSphere(g, leak)

    with pytest.raises(ValueError, match="shape"):
        rf.EmbeddedSphere(g, good[:, :4])


def test_position_lookup_and_antipodes(pentagon_sphere):
    s = pentagon_sphere
    allpos = s.positions_all()
    assert allpos.shape == (2 * s.n_reps, s.matroid.n)
    vertices = vertex_objects(s.graph)
    for k in range(s.n_reps):
        assert np.array_equal(allpos[k], s.rep_positions()[k])
        assert vertices[k + s.n_reps] == vertices[k].antipode()
        assert np.array_equal(allpos[k + s.n_reps], -allpos[k])


def test_integrate_leaves_input_untouched(pentagon_sphere):
    before = pentagon_sphere.rep_positions().copy()
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(8))
    start = s.rep_positions().copy()
    rf.integrate(s, max_steps=3)
    assert np.array_equal(pentagon_sphere.rep_positions(), before)
    assert np.array_equal(s.rep_positions(), start)

import math

import numpy as np
import pytest

import radonflow as rf
from oracles import local_curvature, velocity
from radonflow.flow import _Field


def test_geometric_embeddings_are_fixed_points(pentagon_sphere, hexagon_sphere):
    for s in (pentagon_sphere, hexagon_sphere):
        for v in s.graph.vertices:
            total, _ = local_curvature(s, v)
            assert total < 1e-10
            assert np.linalg.norm(velocity(s, v)) < 1e-10


def test_vectorized_field_matches_reference(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    field = _Field(s)
    P = s.rep_positions()
    dP, curv_max, curv_mean, vel_max = field.stats(P)
    ref = np.stack([velocity(s, v) for v in s.graph.vertices[: s.n_reps]])
    assert np.abs(dP - ref).max() < 1e-12
    assert np.abs(field.velocity(P) - ref).max() < 1e-12
    totals = [local_curvature(s, v)[0] for v in s.graph.vertices[: s.n_reps]]
    assert abs(curv_max - max(totals)) < 1e-12
    assert abs(curv_mean - np.mean(totals)) < 1e-12
    assert abs(vel_max - np.linalg.norm(ref, axis=1).max()) < 1e-12


def test_curvature_equals_gram_determinant(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    for v in s.graph.vertices[:10]:
        p = s.position(v)
        pn = p / np.linalg.norm(p)
        _, etas = local_curvature(s, v)
        for (a, b), eta in zip(rf.opposite_neighbors(s.graph, v), etas):
            pa, pb = s.position(a), s.position(b)
            w = pa - (pa @ pn) * pn
            w2 = pb - (pb @ pn) * pn
            wh = w / np.linalg.norm(w)
            wh2 = w2 / np.linalg.norm(w2)
            gram = np.array([[wh @ wh, wh @ wh2], [wh2 @ wh, wh2 @ wh2]])
            assert abs(eta - math.sqrt(max(np.linalg.det(gram), 0.0))) < 1e-12


def test_velocity_stays_in_face_tangents(pentagon_sphere, hexagon_sphere):
    for s in (pentagon_sphere, hexagon_sphere):
        sp = s.perturbed(0.05, np.random.default_rng(9))
        for v in sp.graph.vertices:
            dv = velocity(sp, v)
            off = [e for e in range(1, sp.matroid.n + 1) if e not in v.support]
            assert all(abs(dv[e - 1]) < 1e-12 for e in off)
            assert abs(dv.sum()) < 1e-12


def test_velocity_is_antipodally_equivariant(hexagon_sphere):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(2))
    for v in s.graph.vertices[: s.n_reps]:
        dv = velocity(s, v)
        assert np.abs(velocity(s, v.antipode()) + dv).max() < 1e-12


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
    assert trace.samples[-1].curv_max < 1e-8
    rec = rf.recover_configuration(final)
    assert rf.circuits_of_points(rec) == rf.circuits_of_points(pentagon_config)


def test_perturbed_hexagon_flows_back(hexagon_sphere, hexagon_config):
    s = hexagon_sphere.perturbed(0.05, np.random.default_rng(11))
    final, trace = rf.integrate(s)
    assert trace.outcome == rf.OUTCOME_CONVERGED
    assert trace.samples[-1].t < 10.0
    rec = rf.recover_configuration(final)
    assert rf.circuits_of_points(rec) == rf.circuits_of_points(hexagon_config)


def test_euler_scheme_converges(pentagon_sphere, pentagon_config):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(11))
    final, trace = rf.integrate(s, rf.FlowParams(scheme="euler"))
    assert trace.outcome == rf.OUTCOME_CONVERGED
    rec = rf.recover_configuration(final)
    assert rf.circuits_of_points(rec) == rf.circuits_of_points(pentagon_config)


def test_barycentric_start_flows_to_a_realization(pentagon_config, hexagon_config):
    for cfg in (pentagon_config, hexagon_config):
        m = rf.circuits_of_points(cfg)
        s = rf.EmbeddedSphere.at_barycenters(m)
        final, trace = rf.integrate(s)
        assert trace.outcome == rf.OUTCOME_CONVERGED
        assert rf.circuits_of_points(rf.recover_configuration(final)) == m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_alone_does_not_flatten_the_pentagon(pentagon_sphere, monkeypatch, seed):
    # the flatness restoration converges the flow; without it the single-cycle
    # pentagon keeps curvature far above tolerance up to t = 30
    start = pentagon_sphere.perturbed(0.05, np.random.default_rng(seed))
    params = rf.FlowParams(t_max=30.0)
    _, trace = rf.integrate(start, params)
    assert trace.outcome == rf.OUTCOME_CONVERGED and len(trace.samples) - 1 < 200
    monkeypatch.setattr(rf.flow, "FLAT_RELAX", 0.0)
    _, trace = rf.integrate(start, params)
    assert trace.outcome == rf.OUTCOME_TMAX
    assert trace.samples[-1].curv_max > 0.01


def test_face_exit_on_large_perturbation(pentagon_sphere):
    s = pentagon_sphere.perturbed(1.0, np.random.default_rng(3))
    final, trace = rf.integrate(s)
    assert trace.outcome == rf.OUTCOME_FACE_EXIT
    assert len(trace.samples) == 1  # detected before any step


def test_time_horizon_cutoff(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    final, trace = rf.integrate(s, rf.FlowParams(t_max=0.05))
    assert trace.outcome == rf.OUTCOME_TMAX
    assert len(trace.samples) == 6
    assert abs(trace.samples[-1].t - 0.05) < 1e-12


def test_trace_grid_and_csv(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(5))
    _, trace = rf.integrate(s, rf.FlowParams(t_max=0.2))
    ts = [smp.t for smp in trace.samples]
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


def test_recover_rejects_nonflat_states(pentagon_sphere):
    bent = pentagon_sphere.perturbed(0.05, np.random.default_rng(1))
    with pytest.raises(rf.NotFlatError, match="dimension exceeds"):
        rf.recover_configuration(bent)
    m = pentagon_sphere.matroid
    row = pentagon_sphere.rep_positions()[0]
    collapsed = rf.EmbeddedSphere(
        m, pentagon_sphere.graph, np.tile(row, (5, 1)), validate=False
    )
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


def test_flow_params_validation():
    with pytest.raises(ValueError):
        rf.FlowParams(h=0.0)
    with pytest.raises(ValueError):
        rf.FlowParams(t_max=-1.0)
    with pytest.raises(ValueError):
        rf.FlowParams(scheme="rk5")


def test_perturbed_respects_faces(pentagon_sphere):
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(4))
    for k in range(s.n_reps):
        v = s.graph.vertices[k]
        x = s.rep_positions()[k]
        assert rf.on_gamma(x)
        assert rf.face_of(x) == rf.FaceLabel(v.pos, v.neg)
    same = pentagon_sphere.perturbed(0.0, np.random.default_rng(4))
    drift = np.abs(same.rep_positions() - pentagon_sphere.rep_positions()).max()
    assert drift < 1e-12


def test_embedded_sphere_validation(pentagon_sphere):
    m, g = pentagon_sphere.matroid, pentagon_sphere.graph
    good = pentagon_sphere.rep_positions()

    off = good.copy()
    off[0] *= 1.1  # breaks the 1-norm equation
    with pytest.raises(ValueError, match="off the polytope"):
        rf.EmbeddedSphere(m, g, off)

    flipped = good.copy()
    flipped[0] *= -1.0  # keeps both defining equations, swaps the face
    with pytest.raises(ValueError, match="left its face"):
        rf.EmbeddedSphere(m, g, flipped)

    leak = good.copy()
    v0 = g.vertices[0]
    outside = next(e for e in range(1, 6) if e not in v0.support)
    donor = max(v0.pos, key=lambda e: leak[0, e - 1])
    leak[0, outside - 1] += 0.1
    leak[0, donor - 1] -= 0.1  # keeps both defining equations intact
    with pytest.raises(ValueError, match="support leakage"):
        rf.EmbeddedSphere(m, g, leak)

    with pytest.raises(ValueError, match="shape"):
        rf.EmbeddedSphere(m, g, good[:, :4])


def test_position_lookup_and_antipodes(pentagon_sphere):
    s = pentagon_sphere
    allpos = s.positions_all()
    assert allpos.shape == (2 * s.n_reps, s.matroid.n)
    for k, v in enumerate(s.graph.vertices[: s.n_reps]):
        assert np.array_equal(s.position(v), allpos[k])
        assert np.array_equal(s.position(v.antipode()), -allpos[k])


def test_integrate_leaves_input_untouched(pentagon_sphere):
    before = pentagon_sphere.rep_positions().copy()
    s = pentagon_sphere.perturbed(0.05, np.random.default_rng(8))
    start = s.rep_positions().copy()
    rf.integrate(s, rf.FlowParams(t_max=0.1))
    assert np.array_equal(pentagon_sphere.rep_positions(), before)
    assert np.array_equal(s.rep_positions(), start)

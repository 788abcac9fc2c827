"""End-to-end acceptance checks.

One test per criterion, each ending in a visible [acceptance] verdict line.
Shared expensive artifacts (the 400-configuration corpus, its complexes, the
perturb-and-flow runs) are memoized so later criteria reuse earlier work;
each criterion's time budget is charged to the first test that needs the
artifact.
"""

import json
import time
import warnings

import numpy as np
import pytest

import radonflow as rf
from conftest import HEXAGON, SQUARE, pentagon_points, sample_spanning_points
from oracles import exact_circuits
from radonflow.cli import main

SHAPES = ((4, 2), (5, 2), (6, 2), (7, 3))
CORPUS_SEED = 2025
CONFIGS_PER_SHAPE = 100
FLOW_SEED = 7
FLOW_REPS = 20
FLOW_DELTA = 0.05

_cache: dict = {}


@pytest.fixture(scope="module")
def corpus():
    out = {}
    for n, d in SHAPES:
        rng = np.random.default_rng([CORPUS_SEED, n, d])
        out[(n, d)] = [
            rf.PointConfiguration(sample_spanning_points(n, d, rng).astype(float), d)
            for _ in range(CONFIGS_PER_SHAPE)
        ]
    return out


def get_matroids(corpus):
    if "matroids" not in _cache:
        _cache["matroids"] = {
            key: [rf.circuits_of_points(cfg) for cfg in cfgs]
            for key, cfgs in corpus.items()
        }
    return _cache["matroids"]


def get_complexes(corpus):
    if "complexes" not in _cache:
        _cache["complexes"] = {
            key: [rf.geometric_radon_complex(cfg) for cfg in cfgs]
            for key, cfgs in corpus.items()
        }
    return _cache["complexes"]


def get_flow_runs():
    """(family, rep, matroid, final sphere, trace) for 20 runs per family."""
    if "flow" not in _cache:
        cases = [
            ("pentagon", rf.PointConfiguration(pentagon_points(), 2)),
            ("hexagon", rf.PointConfiguration(np.asarray(HEXAGON), 2)),
        ]
        runs = []
        for name, cfg in cases:
            sphere = rf.EmbeddedSphere.from_points(cfg)
            for rep in range(FLOW_REPS):
                rng = np.random.default_rng([FLOW_SEED, rep])
                start = sphere.perturbed(FLOW_DELTA, rng)
                final, trace = rf.integrate(start)
                runs.append((name, rep, sphere.matroid, final, trace))
        _cache["flow"] = runs
    return _cache["flow"]


def _verdict(capsys, num, ok, note=""):
    with capsys.disabled():
        tail = f" ({note})" if note else ""
        print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_circuits_match_exact_oracle(corpus, capsys):
    t0 = time.monotonic()
    try:
        matroids = get_matroids(corpus)
        for (n, d), cfgs in corpus.items():
            for cfg, m in zip(cfgs, matroids[(n, d)]):
                got = {(c.pos, c.neg) for c in m.circuits}
                want = exact_circuits(cfg.points.astype(int), d)
                assert got == want, f"circuit mismatch on a ({n},{d}) configuration"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    except BaseException:
        _verdict(capsys, 1, False)
        raise
    _verdict(capsys, 1, True, f"{4 * CONFIGS_PER_SHAPE} configs, {elapsed:.1f}s")


def test_criterion_2_complexes_validate_as_spheres(corpus, capsys):
    t0 = time.monotonic()
    try:
        complexes = get_complexes(corpus)
        for (n, d), rcs in complexes.items():
            for rc in rcs:
                report = rf.validate_sphere(rc)
                assert report.ok and (report.n, report.d) == (n, d), f"({n},{d}): {report.failures}"
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    except BaseException:
        _verdict(capsys, 2, False)
        raise
    _verdict(capsys, 2, True, f"{elapsed:.1f}s")


def test_criterion_3_combinatorial_graph_equals_geometric(corpus, capsys):
    try:
        matroids = get_matroids(corpus)
        complexes = get_complexes(corpus)
        for key in corpus:
            for rc, m in zip(complexes[key], matroids[key]):
                rebuilt = rf.combinatorial_circuit_graph(m)
                assert rf.graphs_equal(rc.graph, rebuilt), f"graph mismatch on {key}"
    except BaseException:
        _verdict(capsys, 3, False)
        raise
    _verdict(capsys, 3, True)


def test_criterion_4_m42_census(capsys):
    t0 = time.monotonic()
    try:
        elements = rf.enumerate_acyclic_oms(4, 2)
        uniform = [m for m in elements if m.is_uniform]
        assert len(uniform) == 7
        poset = rf.MatroidPoset.from_elements(elements)
        hasse = poset.hasse_pairs()
        report = rf.cell_structure_m42(poset, rf.grades(poset, hasse), hasse)
        assert report.face_vector == (6, 12, 7)
        assert report.euler_characteristic == 1
        assert report.matroid_facet_bijection
        betti = rf.gf2_betti(rf.order_complex(poset))
        assert betti == [1, 1, 1]
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    except BaseException:
        _verdict(capsys, 4, False)
        raise
    _verdict(capsys, 4, True, f"{len(elements)} elements, {elapsed:.1f}s")


def test_criterion_5_flat_embeddings_are_stationary(corpus, capsys):
    try:
        worst = 0.0
        extra = [
            rf.PointConfiguration(pentagon_points(), 2),
            rf.PointConfiguration(np.asarray(HEXAGON), 2),
        ]
        for cfg in [cfg for cfgs in corpus.values() for cfg in cfgs] + extra:
            sphere = rf.EmbeddedSphere.from_points(cfg)
            _, trace = rf.integrate(sphere)
            first = trace.samples[0]
            assert first.t == 0.0
            assert first.vel_max < 1e-10, f"moving flat embedding: {first.vel_max}"
            assert trace.outcome == rf.OUTCOME_CONVERGED
            worst = max(worst, first.vel_max)
    except BaseException:
        _verdict(capsys, 5, False)
        raise
    _verdict(capsys, 5, True, f"max velocity {worst:.2e}")


def test_criterion_6_perturbed_flow_recovers(capsys):
    t0 = time.monotonic()
    try:
        runs = get_flow_runs()
        assert len(runs) == 2 * FLOW_REPS
        for name, rep, matroid, final, trace in runs:
            assert trace.outcome == rf.OUTCOME_CONVERGED, f"{name} rep {rep}: {trace.outcome}"
            assert trace.samples[-1].curv_max < rf.TOL_CURV
            recovered = rf.circuits_of_points(rf.recover_configuration(final))
            assert recovered == matroid, f"{name} rep {rep}: wrong matroid recovered"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    except BaseException:
        _verdict(capsys, 6, False)
        raise
    _verdict(capsys, 6, True, f"{2 * FLOW_REPS}/{2 * FLOW_REPS} converged, {elapsed:.1f}s")


def test_criterion_7_curvature_decays_exponentially(capsys):
    try:
        runs = get_flow_runs()
        note_parts = []
        for family in ("pentagon", "hexagon"):
            good = 0
            for name, rep, _, _, trace in runs:
                if name != family:
                    continue
                rate, r2 = rf.curvature_decay_stats(trace)
                if rate < 0.0 and r2 > 0.9:
                    good += 1
            assert good >= 15, f"{family}: only {good}/{FLOW_REPS} clean exponential fits"
            if good < 18:
                warnings.warn(f"{family}: only {good}/{FLOW_REPS} clean exponential fits")
            note_parts.append(f"{family} {good}/{FLOW_REPS}")
    except BaseException:
        _verdict(capsys, 7, False)
        raise
    _verdict(capsys, 7, True, ", ".join(note_parts))


def _run_twice(tmp_path, tag, argv_of):
    outs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"{tag}-{attempt}"
        assert main(argv_of(str(out))) == 0
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        ta = [
            line
            for line in (first / name).read_text().splitlines()
            if '"generated_at"' not in line and not line.startswith("# generated_at")
        ]
        tb = [
            line
            for line in (second / name).read_text().splitlines()
            if '"generated_at"' not in line and not line.startswith("# generated_at")
        ]
        assert ta == tb, f"{tag}/{name} differs between identical runs"
        if name.endswith(".json"):
            text = (first / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", (
                f"{tag}/{name} is not laid out as json.dumps(indent=2, sort_keys=True)"
            )
    return names


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path, capsys):
    try:
        square = tmp_path / "square.json"
        square.write_text(json.dumps({"points": SQUARE, "d": 2}))
        pent = tmp_path / "pentagon.json"
        pent.write_text(json.dumps({
            "points": [list(map(float, p)) for p in pentagon_points()],
            "d": 2,
            "repetitions": 1,
        }))
        circle = tmp_path / "circle.json"
        circle.write_text(json.dumps({"facets": [[1, 2], [2, 3], [1, 3]]}))

        total = 0
        total += len(_run_twice(
            tmp_path, "analyze",
            lambda out: ["analyze", "--config", str(square), "--out", out],
        ))
        total += len(_run_twice(
            tmp_path, "flow",
            lambda out: ["flow", "--config", str(pent), "--seed", str(FLOW_SEED),
                         "--delta", str(FLOW_DELTA), "--out", out],
        ))
        total += len(_run_twice(
            tmp_path, "macphersonian",
            lambda out: ["macphersonian", "4", "2", "--out", out],
        ))
        total += len(_run_twice(
            tmp_path, "homology",
            lambda out: ["homology", "--config", str(circle), "--out", out],
        ))
    except BaseException:
        _verdict(capsys, 8, False)
        raise
    _verdict(capsys, 8, True, f"{total} files compared")

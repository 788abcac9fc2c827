import hashlib
import json
import random
import subprocess
import sys

import pytest

import radonflow as rf
import radonflow.cli as cli
import radonflow.macphersonian as macphersonian
from conftest import SQUARE, pentagon_points
from radonflow.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")


def pentagon_cfg(tmp_path, reps=1):
    cfg = tmp_path / "pentagon.json"
    write_json(cfg, {
        "points": [list(map(float, p)) for p in pentagon_points()],
        "d": 2,
        "repetitions": reps,
    })
    return cfg


def load(path):
    return json.loads(path.read_text())


def stripped(path):
    keep = [
        line
        for line in path.read_text().splitlines()
        if '"generated_at"' not in line and not line.startswith("# generated_at")
    ]
    return "\n".join(keep)


def test_analyze_square(tmp_path):
    cfg = tmp_path / "square.json"
    write_json(cfg, {"points": SQUARE, "d": 2})
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0

    matroid = load(out / "matroid.json")
    assert matroid["n"] == 4 and matroid["d"] == 2
    assert matroid["circuits"] == [{"neg": [2, 3], "pos": [1, 4]}]
    assert matroid["schema_version"] == 1
    assert "generated_at" in matroid

    rc = load(out / "radon_complex.json")
    assert len(rc["vertices"]) == 2
    assert rc["edges"] == [] and rc["facets"] == []
    assert len(rc["positions"]) == 2

    report = load(out / "sphere_report.json")
    assert report["ok"] is True
    assert report["combinatorial_graph_matches"] is True
    assert report["euler_characteristic"] == 2


def test_analyze_input_errors(tmp_path):
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", str(tmp_path / "missing.json"), "--out", out]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad), "--out", out]) == 2

    flat = tmp_path / "flat.json"
    write_json(flat, {"points": [[0, 0], [1, 1], [2, 2], [3, 3]], "d": 2})
    assert main(["analyze", "--config", str(flat), "--out", out]) == 2

    keyless = tmp_path / "keyless.json"
    write_json(keyless, {"points": SQUARE})
    assert main(["analyze", "--config", str(keyless), "--out", out]) == 2


@pytest.mark.parametrize("command", ["analyze", "flow"])
@pytest.mark.parametrize(
    "bad",
    [
        {"d": 1.9},
        {"d": "1"},
        {"d": True},
        {"points": [["0"], ["1"], ["2"]]},
        {"points": [[False], [True], [2]]},
    ],
    ids=["float-d", "string-d", "bool-d", "string-points", "bool-points"],
)
def test_point_files_need_an_integer_d_and_numeric_points(tmp_path, command, bad):
    good = tmp_path / "good.json"
    write_json(good, {"d": 1, "points": [[0], [1.5], [2]]})
    assert main([command, "--config", str(good), "--out", str(tmp_path / "good")]) == 0
    path = tmp_path / "bad.json"
    write_json(path, {"d": 1, "points": [[0], [1.5], [2]], **bad})
    assert main([command, "--config", str(path), "--out", str(tmp_path / "bad")]) == 2


def test_flow_pentagon_repetitions(tmp_path):
    cfg = pentagon_cfg(tmp_path, reps=3)
    out = tmp_path / "out"
    code = main(["flow", "--config", str(cfg), "--seed", "7",
                 "--delta", "0.05", "--out", str(out)])
    assert code == 0
    summary = load(out / "summary.json")
    assert summary["outcomes"] == {"converged-flat": 3}
    assert summary["seed"] == 7 and summary["delta"] == 0.05
    for rep, row in enumerate(summary["rows"]):
        assert row["roundtrip_ok"] is True
        assert row["decay_rate"] < 0 and row["decay_r2"] > 0.9
        assert row["curv_final"] < rf.TOL_CURV
        trace = (out / f"rep_{rep:03d}_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# generated_at:")
        assert trace[1] == "# schema_version: 1"
        assert trace[2] == "t,curv_max,curv_mean,vel_max"
        assert len(trace) == row["steps"] + 4  # two headers, columns, final sample
        assert (out / f"rep_{rep:03d}_final_sphere.json").exists()
        assert (out / f"rep_{rep:03d}_recovered_points.json").exists()


def test_flow_zero_delta_is_a_fixed_point(tmp_path):
    cfg = pentagon_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "7",
                 "--delta", "0", "--out", str(out)]) == 0
    row = load(out / "summary.json")["rows"][0]
    assert row["outcome"] == "converged-flat"
    assert row["steps"] == 0 and row["t_final"] == 0.0
    assert row["roundtrip_ok"] is True
    assert row["decay_rate"] is None and "decay_note" in row


def test_flow_face_exit_is_reported_not_fatal(tmp_path, monkeypatch):
    # no perturbation leaves a face, whatever delta (the radius is clipped
    # to half each face's margin), so the start here has one vertex swapped
    # onto its antipode's face, as only a hand-built start can be
    def outside(sphere, delta, rng):
        P = sphere.rep_positions()
        P[0] *= -1.0
        return rf.EmbeddedSphere(sphere.matroid, sphere.graph, P, validate=False)

    cfg = pentagon_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "3",
                 "--delta", "1.0", "--out", str(tmp_path / "clipped")]) == 0
    assert load(tmp_path / "clipped" / "summary.json")["outcomes"] == {"converged-flat": 1}
    monkeypatch.setattr(rf.EmbeddedSphere, "perturbed", outside)
    assert main(["flow", "--config", str(cfg), "--seed", "3",
                 "--delta", "1.0", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert summary["outcomes"] == {"face-exit": 1}
    row = summary["rows"][0]
    assert row["roundtrip_ok"] is None
    assert not (out / "rep_000_recovered_points.json").exists()


def test_flow_sampled_configurations(tmp_path):
    cfg = tmp_path / "random.json"
    write_json(cfg, {"n": 6, "d": 2, "repetitions": 2})
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert summary["outcomes"] == {"converged-flat": 2}
    assert all(row["roundtrip_ok"] is True for row in summary["rows"])


def test_flow_max_steps_flag(tmp_path):
    cfg = pentagon_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "7", "--delta", "0.05",
                 "--max-steps", "3", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert summary["max_steps"] == 3 and "t_max" not in summary
    row = summary["rows"][0]
    assert row["outcome"] == "step-limit"
    assert row["steps"] == 3
    assert row["roundtrip_ok"] is None


@pytest.mark.parametrize("flag,value", [("--scheme", "rk4"), ("--tmax", "0.05")])
def test_flow_rejects_removed_flags(tmp_path, flag, value):
    cfg = pentagon_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--config", str(cfg), flag, value])
    assert exc.value.code == 2


def test_flow_has_no_scheme(tmp_path):
    cfg = pentagon_cfg(tmp_path)
    data = load(cfg)
    # removed config keys are ignored like any other unknown key; each of
    # these values would have ended the run unconverged
    data.update(scheme="rk4", t_max=0.05, tol_curv=0.0, tol_fixed=1e3)
    write_json(cfg, data)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert not {"scheme", "t_max", "tol_curv", "tol_fixed"} & set(summary)
    assert summary["outcomes"] == {"converged-flat": 1}


def test_flow_config_needs_points_or_shape(tmp_path):
    cfg = tmp_path / "empty.json"
    write_json(cfg, {"repetitions": 1})
    assert main(["flow", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("reps", [0, -1, 1.5, True, "2"])
def test_flow_rejects_repetitions_below_one_or_not_integers(tmp_path, capsys, reps):
    cfg = pentagon_cfg(tmp_path, reps=reps)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
    assert f"'repetitions' must be an integer >= 1, not {json.dumps(reps)}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n": 5, "d": 1.9}, "'d' must be an integer, not 1.9"),
        ({"n": 5, "d": True}, "'d' must be an integer, not true"),
        ({"n": "5", "d": "1"}, "'n' must be an integer, not \"5\""),
        ({"n": 5, "d": 1, "max_steps": 2.7}, "'max_steps' must be an integer, not 2.7"),
        ({"n": 5, "d": 1, "delta": "0.05"}, "'delta' must be a number, not \"0.05\""),
        ({"n": 5, "d": 1, "seed": True}, "'seed' must be an integer, not true"),
        ({"n": 5, "d": 1, "step": False}, "'step' must be a number, not false"),
    ],
    ids=["float-d", "bool-d", "string-n-d", "float-max-steps", "string-delta", "bool-seed", "bool-step"],
)
def test_flow_settings_must_have_their_type(tmp_path, capsys, config, message):
    cfg = tmp_path / "flow.json"
    write_json(cfg, config)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_flow_settings_of_the_right_type_run(tmp_path):
    cfg = tmp_path / "flow.json"
    write_json(cfg, {"n": 5, "d": 1, "seed": 3, "delta": 0, "step": 1, "max_steps": 4})
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert (summary["seed"], summary["delta"], summary["step"], summary["max_steps"]) == (3, 0.0, 1.0, 4)
    assert summary["outcomes"] == {"converged-flat": 1}


def test_macphersonian_4_2(tmp_path):
    out = tmp_path / "out"
    assert main(["macphersonian", "4", "2", "--out", str(out)]) == 0
    poset = load(out / "poset.json")
    assert poset["count"] == 25 and poset["uniform_count"] == 7
    assert len(poset["elements"]) == 25
    assert len(poset["maximal"]) == 7
    oc = load(out / "order_complex.json")
    assert oc["simplex_counts"] == [25, 72, 48]
    assert oc["euler_characteristic"] == 1
    assert oc["betti_gf2"] == [1, 1, 1]
    cells = load(out / "m42_cells.json")
    assert cells["face_vector"] == [6, 12, 7]
    assert cells["ok"] is True


def test_macphersonian_4_2_enumerates_once(tmp_path, monkeypatch):
    calls = []
    for module in (cli, macphersonian):
        real = module.enumerate_acyclic_oms
        monkeypatch.setattr(
            module,
            "enumerate_acyclic_oms",
            lambda *a, real=real, **k: calls.append(a) or real(*a, **k),
        )
    assert main(["macphersonian", "4", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert calls == [(4, 2)]
    assert load(tmp_path / "m42_cells.json")["ok"] is True


# SHA-256 of each file the census writes, its generated_at line dropped
# (stripped), as written before the census kept its elements as arrays
# (commit d4a18d8): any change of order or layout fails
CENSUS_DIGESTS = {
    (4, 1): {
        "poset.json": "d72b71e977105414c3f1ca2f46708fdeeab495dec3894a5f618b48c876ae717a",
        "order_complex.json": "d8a2f0f262f15f737466a64616280b37bcb8404d84d9165520c91baeaf4777da",
    },
    (4, 2): {
        "poset.json": "d504a4273d1ce179e97b4cc5e4b230086c1f325429608d0b0fe4bd9bfe26322c",
        "order_complex.json": "5efcd3eaaf2a28be7c1b136d0cabc31d50098d5abe9504565ff017c55e2bb944",
        "m42_cells.json": "361452058104b0a58a82a049cfa14b1f4f2ca39129f1473ce51509b8982a9fdf",
    },
    (5, 1): {
        "poset.json": "e7d51ee86062f3a971c8e6a45186c02ee93d3a61086b9361fc4aa687f1df3454",
        "order_complex.json": "c515ac6fe28c44d31f770ebc35066875aab9bdba2e14b2acbbca7eade5392286",
    },
    (5, 3): {
        "poset.json": "160f278fb8162e35d5ab7cb0b6c8391b2ce8f60658aab6a327f797a58c1a71db",
        "order_complex.json": "5a4484aecbc8a7172040dbc8f9447bd54ba43fd326bd6510763f7f8707501138",
    },
    (6, 4): {
        "poset.json": "d264a0b144bf71b54f29a6f3d23db993e23ca2266a448544667df7840a15eafa",
        "order_complex.json": "fb61a9c5a82029e7ad646af5f7b0981cd8394420d0c9fd0b1edbe665b92af1da",
    },
}


@pytest.mark.parametrize("shape", sorted(CENSUS_DIGESTS), ids=lambda s: "%d-%d" % s)
def test_census_outputs_match_their_pinned_digests(tmp_path, shape):
    n, d = shape
    assert main(["macphersonian", str(n), str(d), "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(stripped(path).encode()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == CENSUS_DIGESTS[shape]


def test_macphersonian_out_of_range(tmp_path):
    assert main(["macphersonian", "9", "2", "--out", str(tmp_path / "out")]) == 3


def test_macphersonian_ignores_seed(tmp_path):
    for seed in ("0", "5"):
        assert main(["macphersonian", "4", "2", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    for name in ("poset.json", "order_complex.json", "m42_cells.json"):
        assert stripped(tmp_path / "0" / name) == stripped(tmp_path / "5" / name)


def test_census_6_3_completes_and_homology_refuses_its_order_complex(tmp_path):
    # the census runs its three checks (cellular_homology) or fails, and
    # homology reads the poset it writes by the same route, never building
    # the order complex of its 17 162 elements (812 682 602 vertex entries)
    assert main(["macphersonian", "6", "3", "--out", str(tmp_path / "mac")]) == 0
    poset = load(tmp_path / "mac" / "poset.json")
    assert (poset["count"], poset["uniform_count"]) == (17162, 1560)
    oc = load(tmp_path / "mac" / "order_complex.json")
    assert oc["simplex_counts"] == [17162, 1082520, 10344720, 36086400, 57738240, 43303680, 12372480]
    assert oc["betti_gf2"] == [1, 1, 2, 2, 2, 1, 1]
    assert oc["euler_characteristic"] == 2
    out = tmp_path / "hom"
    assert main(["homology", "--config", str(tmp_path / "mac" / "poset.json"), "--out", str(out)]) == 0
    betti = load(out / "betti.json")
    for key in ("simplex_counts", "euler_characteristic", "betti_gf2"):
        assert betti[key] == oc[key]


@pytest.mark.parametrize(
    "hasse",
    [[[0, 1], [5, 0]], [[-1, 0]], [[0.7, 1.9]], [[0, 1], [1, 2], [2, 0]], [[0, 1], [True, 2]], "", {}],
    ids=["index-past-end", "negative-index", "fractional-index", "cyclic-order", "bool-index",
         "empty-string", "empty-object"],
)
def test_homology_rejects_malformed_hasse(tmp_path, capsys, hasse):
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"elements": load(mac_out / "poset.json")["elements"][:3], "hasse": hasse})
    assert main(["homology", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if not isinstance(hasse, list):  # with no items, these once passed as no covers
        assert "'hasse' must be a list of [i, j] pairs" in err
    elif hasse[-1][0] is True:  # True == 1, so [true, 2] once read as the pair [1, 2]
        assert "hasse pair [true, 2] names no element" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pos": [1, 2], "neg": [2]}, "circuit parts must be disjoint"),
        ({"pos": [1, 9], "neg": [2]}, "circuit {1,9}|{2} uses an element beyond n=4"),
        ({"pos": [1, 2], "neg": [3, 4]}, "circuit {1,2}|{3,4} has support larger than d + 2 = 3"),
        ({"d": 2}, "matroids must share the same ground set"),
    ],
    ids=["overlap", "beyond-n", "wide", "other-ground"],
)
def test_homology_rejects_malformed_elements(tmp_path, capsys, change, message):
    # one element of the (4,1) poset gains a malformed circuit, or another
    # ground set: exit 2 with the message that names it
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = load(mac_out / "poset.json")
    element = poset["elements"][1]
    if "d" in change:
        element.update(change)
    else:
        element["circuits"].append(change)
    cfg = tmp_path / "bad.json"
    write_json(cfg, poset)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "facets",
    [[[True, 2], [2, 3], [1, 3]], [[1, 2], [2, "3"], [1, 3]], [[1, 2], [2, 3.0]], [[1, 2], 3]],
    ids=["bool-label", "string-label", "float-label", "facet-not-a-list"],
)
def test_homology_rejects_malformed_facets(tmp_path, capsys, facets):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"facets": facets})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    bad = next(f for f in facets if not isinstance(f, list) or any(type(v) is not int for v in f))
    assert f"facet {json.dumps(bad)} is not a list of integer labels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"facets": [[]]}, "a facet needs at least one vertex"),
        ({"facets": [[1, 2], []]}, "a facet needs at least one vertex"),
        ({"elements": [], "hasse": []}, "'elements' must be a nonempty list"),
    ],
    ids=["empty-facet", "empty-facet-among-others", "no-elements"],
)
def test_homology_rejects_empty_input(tmp_path, capsys, config, message):
    cfg = tmp_path / "empty.json"
    write_json(cfg, config)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


CENSUS_SHAPES = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4)]


@pytest.fixture(scope="module", params=CENSUS_SHAPES, ids=lambda s: "%d-%d" % s)
def census_out(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("census")
    assert main(["macphersonian", *map(str, request.param), "--out", str(out)]) == 0
    return out


def test_homology_refuses_a_poset_that_is_not_cw(tmp_path, capsys):
    # three (4,1) elements a < b < c, given with their true covers (a, b)
    # and (b, c): a valid poset, but the interval from a to c has one middle,
    # so its cellular homology need not be that of its order complex
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = load(mac_out / "poset.json")
    a, b, c = next((a, b, c) for a, b in poset["hasse"] for b2, c in poset["hasse"] if b2 == b)
    cfg = tmp_path / "chain.json"
    write_json(cfg, {"elements": [poset["elements"][x] for x in (a, b, c)], "hasse": [[0, 1], [1, 2]]})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: diamond check: the interval from element 0 to element 2 has 1 middle(s), not 2\n"
    )
    assert not out.exists()


def test_homology_reproduces_the_census_order_complex(census_out, tmp_path):
    assert main(["homology", "--config", str(census_out / "poset.json"),
                 "--out", str(tmp_path)]) == 0
    betti = load(tmp_path / "betti.json")
    oc = load(census_out / "order_complex.json")
    for key in ("simplex_counts", "euler_characteristic", "betti_gf2"):
        assert betti[key] == oc[key]


def _tampered(poset, how):
    """poset.json with its hasse pairs dropped from, added to or shuffled."""
    hasse = [tuple(p) for p in poset["hasse"]]
    if how == "drop-first":
        hasse = hasse[1:]
    elif how == "add-non-cover":
        # a < b < c makes (a, c) a strict pair that is no cover
        above = {}
        for a, b in hasse:
            above.setdefault(a, []).append(b)
        a, b = next(p for p in hasse if p[1] in above)
        hasse.append((a, above[b][0]))
    else:
        random.Random(5).shuffle(hasse)
    return {**poset, "hasse": [list(p) for p in hasse]}


@pytest.mark.parametrize("how, code", [("drop-first", 2), ("add-non-cover", 2), ("shuffle", 0)])
def test_homology_needs_exactly_the_census_covers(census_out, tmp_path, capsys, how, code):
    cfg = tmp_path / "poset.json"
    write_json(cfg, _tampered(load(census_out / "poset.json"), how))
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert "'hasse' is not the cover relation" in capsys.readouterr().err
        assert not out.exists()
    else:
        betti = load(out / "betti.json")
        assert betti["betti_gf2"] == load(census_out / "order_complex.json")["betti_gf2"]


def test_homology_facets(tmp_path):
    cfg = tmp_path / "circle.json"
    write_json(cfg, {"facets": [[1, 2], [2, 3], [1, 3]]})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 0
    betti = load(out / "betti.json")
    assert betti["simplex_counts"] == [3, 3]
    assert betti["betti_gf2"] == [1, 1]


def test_homology_reads_poset_output(tmp_path):
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "2", "--out", str(mac_out)]) == 0
    out = tmp_path / "out"
    assert main(["homology", "--config", str(mac_out / "poset.json"),
                 "--out", str(out)]) == 0
    betti = load(out / "betti.json")
    assert betti["simplex_counts"] == [25, 72, 48]
    assert betti["betti_gf2"] == [1, 1, 1]


def test_homology_rejects_unknown_shape(tmp_path):
    cfg = tmp_path / "odd.json"
    write_json(cfg, {"nope": []})
    assert main(["homology", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_analyze_reruns_identically(tmp_path):
    cfg = tmp_path / "square.json"
    write_json(cfg, {"points": SQUARE, "d": 2})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("matroid.json", "radon_complex.json", "sphere_report.json"):
        assert stripped(out1 / name) == stripped(out2 / name)


def test_module_entrypoint(tmp_path):
    cfg = tmp_path / "square.json"
    write_json(cfg, {"points": SQUARE, "d": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "radonflow", "analyze",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "chi=2 (ok)" in proc.stdout


def test_census_homology_is_cellular_and_checked(tmp_path, monkeypatch):
    # neither the census nor homology on its poset builds an order complex,
    # and every call runs the three checks of cellular_homology before
    # using its answer
    def refuse(*_args):
        raise AssertionError("no poset route may build or reduce an order complex")

    monkeypatch.setattr(cli, "order_complex", refuse)
    monkeypatch.setattr(cli, "gf2_betti", refuse)
    checks = []
    for name in ("grades", "_check_diamonds", "_check_spheres"):
        real = getattr(macphersonian, name)
        monkeypatch.setattr(
            macphersonian, name, lambda *a, real=real, name=name: checks.append(name) or real(*a)
        )
    assert main(["macphersonian", "5", "1", "--out", str(tmp_path)]) == 0
    assert checks == ["grades", "_check_diamonds", "_check_spheres"]
    oc = load(tmp_path / "order_complex.json")
    assert oc["betti_gf2"] == [1, 1, 1, 1] and oc["simplex_counts"][0] == 270
    # homology on the poset the census wrote takes the same route
    assert main(["homology", "--config", str(tmp_path / "poset.json"), "--out", str(tmp_path / "hom")]) == 0
    assert checks == ["grades", "_check_diamonds", "_check_spheres"] * 2
    assert load(tmp_path / "hom" / "betti.json")["betti_gf2"] == oc["betti_gf2"]

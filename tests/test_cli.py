import hashlib
import json
import random
import subprocess
import sys

import numpy as np
import pytest

import oracles
import radonflow as rf
import radonflow.cli as cli
import radonflow.macphersonian as macphersonian
from conftest import HEXAGON, SQUARE, pentagon_points
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


def _sub_poset(poset, picks, hasse):
    """A poset.json of the elements picks of poset, in that order, with
    every circuit of poset still listed and the given hasse pairs."""
    elements = [poset["elements"][x] for x in picks]
    return {key: poset[key] for key in ("n", "d", "circuits")} | {"elements": elements, "hasse": hasse}


def test_analyze_square(tmp_path):
    cfg = tmp_path / "square.json"
    write_json(cfg, {"points": SQUARE, "d": 2})
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0

    matroid = load(out / "matroid.json")
    assert matroid["n"] == 4 and matroid["d"] == 2
    assert matroid["circuits"] == [{"neg": [2, 3], "pos": [1, 4]}]
    assert matroid["schema_version"] == 2
    assert "generated_at" in matroid

    rc = load(out / "radon_complex.json")
    assert len(rc["vertices"]) == 2
    assert rc["edges"] == [] and rc["facets"] == []
    assert len(rc["positions"]) == 2

    report = load(out / "sphere_report.json")
    assert report["ok"] is True
    assert report["combinatorial_graph_matches"] is True
    assert report["euler_characteristic"] == 2


def test_analyze_input_errors(tmp_path, capsys):
    # none leaves its output directory: it was once made before the
    # circuits were read
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", str(tmp_path / "missing.json"), "--out", out]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad), "--out", out]) == 2

    flat = tmp_path / "flat.json"
    write_json(flat, {"points": [[0, 0], [1, 1], [2, 2], [3, 3]], "d": 2})
    capsys.readouterr()
    assert main(["analyze", "--config", str(flat), "--out", out]) == 2
    assert capsys.readouterr().err == "input error: points do not affinely span R^d\n"

    keyless = tmp_path / "keyless.json"
    write_json(keyless, {"points": SQUARE})
    assert main(["analyze", "--config", str(keyless), "--out", out]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "{dir}", "--out", "{out}"],
        ["homology", "--config", "{dir}", "--out", "{out}"],
        ["analyze", "--config", "{cfg}", "--out", "{cfg}"],
        ["flow", "--config", "{cfg}", "--out", "{cfg}"],
        ["macphersonian", "4", "1", "--out", "{cfg}"],
        ["analyze", "--config", "{cfg}", "--out", "{cfg}/sub"],
    ],
    ids=["analyze-config-a-directory", "homology-config-a-directory", "analyze-out-a-file", "flow-out-a-file",
         "macphersonian-out-a-file", "analyze-out-under-a-file"],
)
def test_a_path_that_cannot_be_read_or_made_exits_2(tmp_path, capsys, argv):
    # each once raised an uncaught OSError (IsADirectoryError,
    # FileExistsError, NotADirectoryError): a traceback and exit 1
    cfg = tmp_path / "points.json"
    write_json(cfg, {"d": 1, "points": [[0], [1.5], [2]]})
    assert main([arg.format(dir=tmp_path, out=tmp_path / "out", cfg=cfg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, key", [("analyze", "d"), ("analyze", "points"), ("flow", "d")])
def test_point_files_name_a_missing_key(tmp_path, capsys, command, key):
    # one message once stood for either key; a flow config without points
    # samples its points instead
    path = tmp_path / "bad.json"
    write_json(path, {k: v for k, v in {"d": 2, "points": SQUARE}.items() if k != key})
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: missing key '{key}'\n"
    assert not out.exists()


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
        assert trace[1] == "# schema_version: 2"
        assert trace[2] == "t,curv_max,curv_mean,vel_max"
        assert len(trace) == row["steps"] + 4  # two headers, columns, final sample
        assert (out / f"rep_{rep:03d}_final_sphere.json").exists()
        assert (out / f"rep_{rep:03d}_recovered_points.json").exists()


@pytest.mark.parametrize(
    "name, exc",
    [("integrate", rf.IntegrationError("no step")), ("recover_configuration", rf.NotFlatError("not flat"))],
)
def test_a_per_rep_error_is_a_row_and_the_run_exits_0(tmp_path, monkeypatch, name, exc):
    # rep 1 of 3 fails in the flow or in recovery; reps 0 and 2 still run
    real, calls = getattr(cli, name), []

    def fails_on_rep_1(*args, **kwargs):
        calls.append(name)
        if len(calls) == 2:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, fails_on_rep_1)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(pentagon_cfg(tmp_path, reps=3)), "--seed", "7", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    rows = summary["rows"]
    assert rows[1]["outcome"] == f"error: {exc}" and rows[1]["roundtrip_ok"] is None
    assert [rows[0]["outcome"], rows[2]["outcome"]] == ["converged-flat"] * 2
    assert summary["outcomes"] == {"converged-flat": 2, f"error: {exc}": 1}


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta", "-1"], "input error: delta must be >= 0, not -1.0\n"),
        (["--delta", "nan"], "input error: delta must be >= 0, not nan\n"),
        (["--max-steps", "0"], "input error: 'max_steps' must be an integer >= 1, not 0\n"),
        (["--seed", "-1"], "input error: 'seed' must be an integer >= 0, not -1\n"),
        (["--step", "inf"], "error: unrecognized arguments: --step inf\n"),
        (["--step", "nan"], "error: unrecognized arguments: --step nan\n"),
    ],
    ids=["negative-delta", "nan-delta", "zero-max-steps", "negative-seed", "inf-step", "nan-step"],
)
def test_flow_refuses_a_delta_or_step_it_cannot_use(tmp_path, flags, message):
    # a negative delta pushed vertices out of their faces and a NaN one
    # stalled at step 0; the first trial step is fixed, so --step is an
    # unknown flag (an infinite one once hung the line search, hence a
    # subprocess with a timeout)
    cfg = pentagon_cfg(tmp_path, reps=2)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "radonflow", "flow", "--config", str(cfg), *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith(message)
    assert not out.exists()


def test_flow_infinite_delta_is_clipped_and_converges(tmp_path):
    # the radius is clipped to half each face's margin, whatever delta
    cfg = pentagon_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--seed", "3",
                 "--delta", "inf", "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    assert summary["outcomes"] == {"converged-flat": 1}
    assert summary["rows"][0]["roundtrip_ok"] is True


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


def test_flow_has_no_scheme(tmp_path, monkeypatch):
    cfg = pentagon_cfg(tmp_path)
    data = load(cfg)
    # removed config keys are ignored like any other unknown key; each of
    # these values would have ended the run unconverged (an infinite step
    # never ended it), and --out alone names the output directory
    data.update(scheme="rk4", t_max=0.05, tol_curv=0.0, tol_fixed=1e3, step=float("inf"), out="elsewhere")
    write_json(cfg, data)
    monkeypatch.chdir(tmp_path)
    assert main(["flow", "--config", str(cfg), "--seed", "11"]) == 0
    summary = load(tmp_path / "flow-out" / "summary.json")
    assert not (tmp_path / "elsewhere").exists()
    assert not {"scheme", "t_max", "tol_curv", "tol_fixed", "out"} & set(summary)
    assert summary["step"] == 0.01
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
        ({"n": 5, "d": 1, "seed": -1}, "'seed' must be an integer >= 0, not -1"),
        ([1, 2], "top-level JSON value must be an object"),
    ],
    ids=["float-d", "bool-d", "string-n-d", "float-max-steps", "string-delta", "bool-seed", "negative-seed",
         "not-an-object"],
)
def test_flow_settings_must_have_their_type(tmp_path, capsys, config, message):
    cfg = tmp_path / "flow.json"
    write_json(cfg, config)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("analyze", {"d": 1, "points": [[0], [10**400], [2]]}, "'points' holds an integer too large for a float"),
        ("flow", {"d": 1, "points": [[0], [10**400], [2]]}, "'points' holds an integer too large for a float"),
        ("flow", {"n": 5, "d": 1, "delta": 10**400}, "'delta' is an integer too large for a float"),
    ],
    ids=["analyze-points", "flow-points", "flow-delta"],
)
def test_integers_too_large_for_a_float_are_refused(tmp_path, capsys, command, config, message):
    # JSON integers have no bound, and float() of one this large raised
    # OverflowError: a traceback and exit 1
    cfg = tmp_path / "big.json"
    write_json(cfg, config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


SAMPLED_N = "'n' must be an integer with d + 2 <= n <= 16 to sample points"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n": 10**12, "d": 2}, SAMPLED_N),
        ({"n": 10**400, "d": 2}, SAMPLED_N),
        ({"n": 17, "d": 2}, SAMPLED_N),
        ({"n": 3, "d": 2}, SAMPLED_N),
        ({"n": 5, "d": 0}, "'d' must be an integer >= 1, not 0"),
    ],
    ids=["n-too-large-to-allocate", "n-past-numpy-dimensions", "n-past-the-bound", "n-below-d-plus-2", "d-zero"],
)
def test_flow_refuses_a_sampled_shape_it_cannot_use(tmp_path, capsys, config, message):
    # the draw once raised MemoryError (a traceback, exit 1) or numpy's
    # "Maximum allowed dimension exceeded" (exit 2, naming no setting), and
    # every case below the bound once failed after making the output
    # directory
    cfg = tmp_path / "flow.json"
    write_json(cfg, config)
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_flow_settings_of_the_right_type_run(tmp_path):
    cfg = tmp_path / "flow.json"
    write_json(cfg, {"n": 5, "d": 1, "seed": 3, "delta": 0, "step": 1, "max_steps": 4})
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    summary = load(out / "summary.json")
    # the first trial step is fixed: a "step" key is ignored
    assert (summary["seed"], summary["delta"], summary["step"], summary["max_steps"]) == (3, 0.0, 0.01, 4)
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
# (stripped), at schema_version 2, poset.json as one table of circuits and
# element ids: any change of order or layout fails
CENSUS_DIGESTS = {
    (4, 1): {
        "poset.json": "d476f099ece6d82b37d3fa09efbdabe7515ddd6a315e6664128512af50927d9a",
        "order_complex.json": "cbf993988943de170f2e5b24139cc071b4f9d5d9d49b9ad47929ec471eb23c99",
    },
    (4, 2): {
        "poset.json": "cc9c9f194848ee639475bc7a9c06e5ddf249764ff884708db06ab5fd2a4ce8a3",
        "order_complex.json": "8f3300b52df36324e571062a435e7ef0536808ac2664aca1f9028ff4e53b4cfe",
        "m42_cells.json": "9459a71f66aaae88b1c921fdcace01d611449138a6425239509724a3011fb995",
    },
    (5, 1): {
        "poset.json": "158cc55110937a4769414d5cc8a0505b9dc01e380209106a55ed4eadc7ae3d84",
        "order_complex.json": "2007d263e6ec1683c31b809b2539a8f2a79292364922eeff0e673720c37c2d5e",
    },
    (5, 3): {
        "poset.json": "de062033b89b1f6caedd1251b5ebd4581d4aba335bee18ba633345e26e7a3c4b",
        "order_complex.json": "995815082d2d187aceebe0da936d1de4060256a45db23b87c814d22e46a9b4b0",
    },
    (6, 4): {
        "poset.json": "0963755e267d15ac1dffc6b85cb472ccbb3c0ed13a0dd7bfc351740030f120f7",
        "order_complex.json": "7751637cdc12f68ecb90edf60683630dc04982e1b4f53886fc42af01f3728ca1",
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


def test_macphersonian_out_of_range(tmp_path, capsys):
    # the output directory was once made before the range was checked
    for n, d in ((9, 2), (7, 1)):
        out = tmp_path / f"out{n}{d}"
        assert main(["macphersonian", str(n), str(d), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: the census needs 'n' with d + 2 <= n <= 6, got n={n}, d={d}\n"
        assert not out.exists()


def test_macphersonian_ignores_seed(tmp_path):
    for seed in ("0", "5"):
        assert main(["macphersonian", "4", "2", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    for name in ("poset.json", "order_complex.json", "m42_cells.json"):
        assert stripped(tmp_path / "0" / name) == stripped(tmp_path / "5" / name)


def test_census_6_3_completes_and_homology_reads_it_off_the_covers(tmp_path):
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
    write_json(cfg, _sub_poset(load(mac_out / "poset.json"), [0, 1, 2], hasse))
    assert main(["homology", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if not isinstance(hasse, list):  # with no items, these once passed as no covers
        assert "'hasse' must be a list of [i, j] pairs" in err
    elif hasse[-1][0] is True:  # True == 1, so [true, 2] once read as the pair [1, 2]
        assert "hasse pair [true, 2] names no element" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"circuits": 5}, "'circuits' must be a list of circuits, each {\"pos\": [...], \"neg\": [...]}"),
        ({"circuit": {"pos": [1]}}, "circuit 0 of 'circuits' needs 'pos' and 'neg', each a list of elements"),
        ({"hasse": [[0, 1, 2]]}, "'hasse' entry [0, 1, 2] is not an [i, j] pair"),
        ({"hasse": [5]}, "'hasse' entry 5 is not an [i, j] pair"),
        ({"hasse": ["ab"]}, "'hasse' entry \"ab\" is not an [i, j] pair"),
    ],
    ids=["circuits-an-int", "circuit-without-neg", "hasse-triple", "hasse-int", "hasse-string"],
)
def test_homology_names_a_malformed_circuits_or_hasse_field(tmp_path, capsys, change, message):
    # these once exited 2 with Python's own words, naming no field ("'int'
    # object is not iterable", "'neg'", "too many values to unpack",
    # "cannot unpack non-iterable int object"), and "ab" read as the pair
    # ["a", "b"]
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = _sub_poset(load(mac_out / "poset.json"), [0, 1, 2], [])
    if "circuit" in change:
        poset["circuits"][0] = change["circuit"]
    else:
        poset.update(change)
    cfg = tmp_path / "bad.json"
    write_json(cfg, poset)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "flow"])
def test_points_of_unequal_length_are_named(tmp_path, capsys, command):
    # numpy's "setting an array element with a sequence ... inhomogeneous
    # shape" was once the whole message
    cfg = tmp_path / "ragged.json"
    write_json(cfg, {"d": 2, "points": [[0, 0], [4, 0], [0, 4, 1], [4, 4], [1, 2]]})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: 'points' must have rows of one length, not of lengths [2, 3]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pos": [1, 2], "neg": [2]}, "circuit parts must be disjoint"),
        ({"pos": [1, 9], "neg": [2]}, "circuit {1,9}|{2} uses an element beyond n=4"),
        ({"pos": [1, 2], "neg": [3, 4]}, "circuit {1,2}|{3,4} has support larger than d + 2 = 3"),
        ({"n": 3}, "circuit {1}|{4} uses an element beyond n=3"),
        ({"n": "4"}, "'n' must be an integer, not '4'"),
        ({"d": 1.9}, "'d' must be an integer, not 1.9"),
        ({"pos": [1], "neg": [2.0, 3]}, "an element of 'neg' of circuit 18 must be an integer, not 2.0"),
    ],
    ids=["overlap", "beyond-n", "wide", "other-ground", "string-n", "float-d", "float-element"],
)
def test_homology_rejects_malformed_elements(tmp_path, capsys, change, message):
    # the (4,1) poset gains a malformed circuit, held by element 1, or a
    # ground set its circuits do not fit or that is not given as integers
    # (int() once read "4", 1.9 and 2.0 as 4, 1 and 2): exit 2 with the
    # message that names it
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = load(mac_out / "poset.json")
    if "pos" not in change:
        poset.update(change)
    else:
        poset["elements"][1].append(len(poset["circuits"]))
        poset["circuits"].append(change)
    cfg = tmp_path / "bad.json"
    write_json(cfg, poset)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 10**12}, "'n' with d + 2 <= n <= 6"),
        ({"n": 10**400}, "'n' with d + 2 <= n <= 6"),
        ({"d": 0}, "'d' >= 1"),
    ],
    ids=["n-too-large-to-allocate", "n-past-numpy-dimensions", "d-zero"],
)
def test_homology_refuses_a_poset_outside_the_census_range(tmp_path, capsys, change, message):
    # the (4,2) poset with a ground set past the census range: its sign
    # rows once took np.zeros((25, n)), a MemoryError (exit 1) or numpy's
    # "Maximum allowed dimension exceeded" (exit 2, naming no field), and d
    # = 0 once failed on the circuits' width
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "2", "--out", str(mac_out)]) == 0
    cfg = tmp_path / "bad.json"
    write_json(cfg, {**load(mac_out / "poset.json"), **change})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"input error: a poset file needs {message}, as the census does\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"elements": [[0, -1]]}, "element 1 lists -1, which names no circuit of 0..17"),
        ({"elements": [[0, 18]]}, "element 1 lists 18, which names no circuit of 0..17"),
        ({"elements": [[0, 1.5]]}, "element 1 lists 1.5, which names no circuit of 0..17"),
        ({"elements": [[0, True]]}, "element 1 lists true, which names no circuit of 0..17"),
        ({"elements": [[3, 2]]}, "element 1 lists circuit id 2 out of ascending order"),
        ({"elements": [[2, 2]]}, "element 1 lists circuit id 2 twice"),
        ({"circuits": [{"pos": [1], "neg": [2]}]}, "circuit {1}|{2} is listed twice in 'circuits'"),
        ({"elements": [{"ids": [0]}]}, 'element 1 is {"ids": [0]}, not a list of circuit ids'),
        ({"elements": [7]}, "element 1 is 7, not a list of circuit ids"),
    ],
    ids=["negative-id", "id-past-end", "fractional-id", "bool-id", "descending-ids", "repeated-id",
         "circuit-listed-twice", "element-not-a-list", "element-an-int"],
)
def test_homology_rejects_malformed_circuit_ids(tmp_path, capsys, change, message):
    # the (4,1) poset, 18 circuits listed once each, with element 1 made
    # malformed or a circuit listed again: exit 2 with the message that
    # names it
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = load(mac_out / "poset.json")
    assert len(poset["circuits"]) == 18 and poset["circuits"][0] == {"pos": [1], "neg": [2]}
    if "elements" in change:
        poset["elements"][1:2] = change["elements"]
    else:
        poset["circuits"] += change["circuits"]
    cfg = tmp_path / "bad.json"
    write_json(cfg, poset)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["n", "d"])
def test_homology_names_a_missing_key(tmp_path, capsys, key):
    # the (4,1) poset without n or d once failed with the bare key as its
    # message
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    poset = load(mac_out / "poset.json")
    del poset[key]
    cfg = tmp_path / "bad.json"
    write_json(cfg, poset)
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: missing key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 11.7 GiB for an array with shape (1, 2) and data type uint64"),
         "error: out of memory: Unable to allocate 11.7 GiB for an array with shape (1, 2) and data type uint64\n"),
        (MemoryError(), "error: out of memory: an allocation failed\n"),
    ],
    ids=["numpy-message", "bare"],
)
def test_a_refused_allocation_exits_3_with_a_message(tmp_path, capsys, monkeypatch, exc, message):
    # a stage that cannot get its memory (numpy raises a MemoryError
    # subclass naming the array) ends the run with exit 3, not a traceback
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "geometric_radon_complex", refuse)
    cfg = tmp_path / "square.json"
    write_json(cfg, {"points": SQUARE, "d": 2})
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_homology_rejects_the_schema_1_poset_form(tmp_path, capsys):
    # each element listing its circuits in full, as schema_version 1 wrote
    # it: neither written nor read, and the message names the table form
    census = rf.enumerate_acyclic_oms(4, 1)
    p = rf.MatroidPoset.from_elements(census)
    hasse = p.hasse_pairs().tolist()
    cfg = tmp_path / "old.json"
    write_json(cfg, {"n": 4, "d": 1, "elements": [m.to_dict() for m in census], "hasse": hasse})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "input error: a poset lists each circuit once under 'circuits' and each element as its "
        "ascending circuit ids (schema_version 2), not each element's circuits in full\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "facets, message",
    [
        ([[True, 2], [2, 3], [1, 3]], "facet [true, 2] is not a list of integer labels"),
        ([[1, 2], [2, "3"], [1, 3]], 'facet [2, "3"] is not a list of integer labels'),
        ([[1, 2], [2, 3.0]], "facet [2, 3.0] is not a list of integer labels"),
        ([[1, 2], 3], "facet 3 is not a list of integer labels"),
        # past int64 the labels cannot be ranked: exit 2, not an OverflowError
        ([[2**63, 1]], f"facet [{2**63}, 1] has a label outside -2**63..2**63-1"),
        ([[-(2**63) - 1, 1]], f"facet [{-(2**63) - 1}, 1] has a label outside -2**63..2**63-1"),
    ],
    ids=["bool-label", "string-label", "float-label", "facet-not-a-list", "label-2**63", "label-below-int64"],
)
def test_homology_rejects_malformed_facets(tmp_path, capsys, facets, message):
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"facets": facets})
    out = tmp_path / "out"
    assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"facets": [[]]}, "a facet needs at least one vertex"),
        ({"facets": [[1, 2], []]}, "a facet needs at least one vertex"),
        ({"elements": [], "hasse": []}, "'elements' must be a nonempty list"),
        ({"facets": []}, "'facets' must be a nonempty list of vertex lists"),
    ],
    ids=["empty-facet", "empty-facet-among-others", "no-elements", "no-facets"],
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
    write_json(cfg, _sub_poset(poset, [a, b, c], [[0, 1], [1, 2]]))
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


def test_homology_reads_back_the_census_table(census_out, tmp_path, monkeypatch):
    # the table homology reads is the census's own, each listed circuit is
    # distinct and held by some element, and a file listing the circuits in
    # another order, the ids remapped, gives the same table and answer
    poset = load(census_out / "poset.json")
    census = rf.enumerate_acyclic_oms(poset["n"], poset["d"])
    assert len({json.dumps(c) for c in poset["circuits"]}) == len(poset["circuits"])
    assert sorted({k for ids in poset["elements"] for k in ids}) == list(range(len(poset["circuits"])))
    tables, real = [], rf.MatroidTable.from_dict.__func__

    def read(cls, data):
        tables.append(real(cls, data))
        return tables[-1]

    monkeypatch.setattr(rf.MatroidTable, "from_dict", classmethod(read))
    shuffled = tmp_path / "shuffled.json"
    write_json(shuffled, oracles.shuffled_circuits(poset, np.random.default_rng(31)))
    oc = load(census_out / "order_complex.json")
    for cfg, out in ((census_out / "poset.json", tmp_path / "hom"), (shuffled, tmp_path / "hom-shuffled")):
        assert main(["homology", "--config", str(cfg), "--out", str(out)]) == 0
        betti = load(out / "betti.json")
        for key in ("simplex_counts", "euler_characteristic", "betti_gf2"):
            assert betti[key] == oc[key]
    assert len(tables) == 2
    for table in tables:
        assert table.ground == census.ground
        for got, want in (
            (table.signs, census.signs),
            (table.elements.offsets, census.elements.offsets),
            (table.elements.values, census.elements.values),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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


def test_homology_facets_take_the_int64_extremes(tmp_path):
    # a tetrahedron's boundary on the labels -2**63, 5, 7 and 2**63 - 1, a
    # repeated label and an inner face included, reads as its copy on their
    # ranks 0..3
    low, high = -(2**63), 2**63 - 1
    facets = [[low, 5, high], [low, 5, 7], [low, high, 7], [5, high, 7, 7], [low, 5]]
    rank = {low: 0, 5: 1, 7: 2, high: 3}
    homology = []
    for name, given in (("extremes", facets), ("ranks", [[rank[v] for v in f] for f in facets])):
        cfg = tmp_path / f"{name}.json"
        write_json(cfg, {"facets": given})
        assert main(["homology", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        betti = load(tmp_path / name / "betti.json")
        homology.append([betti[key] for key in ("simplex_counts", "euler_characteristic", "betti_gf2")])
    assert homology[0] == homology[1] == [[4, 6, 4], 2, [1, 0, 1]]


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


FRESH_RUN = """
import sys
import numpy
by_numpy = "numpy.ma" in sys.modules  # numpy 1 imports it with itself
from radonflow.cli import main
assert main(sys.argv[1:]) == 0
assert by_numpy or "numpy.ma" not in sys.modules
"""


@pytest.mark.parametrize("command", ["analyze", "flow", "macphersonian", "homology-facets", "homology-poset"])
def test_no_command_imports_numpy_ma(tmp_path, command):
    # numpy 2's unique loads numpy.ma (about 1 MB) the first time it is
    # asked for the values alone; the package's one distinct-values routine
    # (core._distinct) sorts instead, so a command never loads it
    hexagon, facets = tmp_path / "hexagon.json", tmp_path / "circle.json"
    write_json(hexagon, {"points": HEXAGON, "d": 2})
    write_json(facets, {"facets": [[1, 2], [2, 3], [1, 3]]})
    if command == "homology-poset":
        assert main(["macphersonian", "4", "2", "--out", str(tmp_path / "mac")]) == 0
    argv = {
        "analyze": ["analyze", "--config", str(hexagon)],
        "flow": ["flow", "--config", str(hexagon), "--max-steps", "3"],
        "macphersonian": ["macphersonian", "4", "2"],
        "homology-facets": ["homology", "--config", str(facets)],
        "homology-poset": ["homology", "--config", str(tmp_path / "mac" / "poset.json")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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

import json
import subprocess
import sys

import pytest

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
        assert row["curv_final"] < 1e-8
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


def test_flow_face_exit_is_reported_not_fatal(tmp_path):
    cfg = pentagon_cfg(tmp_path)
    out = tmp_path / "out"
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


def test_macphersonian_out_of_range(tmp_path):
    assert main(["macphersonian", "9", "2", "--out", str(tmp_path / "out")]) == 3


def test_macphersonian_ignores_seed(tmp_path):
    for seed in ("0", "5"):
        assert main(["macphersonian", "4", "2", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    for name in ("poset.json", "order_complex.json", "m42_cells.json"):
        assert stripped(tmp_path / "0" / name) == stripped(tmp_path / "5" / name)


def test_macphersonian_rejects_too_large_census_before_enumerating(tmp_path, monkeypatch):
    monkeypatch.setattr(macphersonian, "_chirotopes", None)  # any enumeration fails
    for d in ("2", "3"):
        assert main(["macphersonian", "6", d, "--out", str(tmp_path / d)]) == 3


@pytest.mark.parametrize(
    "hasse",
    [[[0, 1], [5, 0]], [[-1, 0]], [[0.7, 1.9]], [[0, 1], [1, 2], [2, 0]]],
    ids=["index-past-end", "negative-index", "fractional-index", "cyclic-order"],
)
def test_homology_rejects_malformed_hasse(tmp_path, hasse):
    mac_out = tmp_path / "mac"
    assert main(["macphersonian", "4", "1", "--out", str(mac_out)]) == 0
    cfg = tmp_path / "bad.json"
    write_json(cfg, {"elements": load(mac_out / "poset.json")["elements"][:3], "hasse": hasse})
    assert main(["homology", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


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

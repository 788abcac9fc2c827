"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True), byte for byte.

Every output goes through cli._json_text; a spy records each payload with
the text written for it, and each written file is also checked on its own
against the oracle's layout of what it holds. The outputs of the
criterion-8 commands get the per-file check in test_acceptance.py, where
those commands already run.
"""

import json

import numpy as np
import pytest

import radonflow.cli as cli
from conftest import sample_degenerate_points, sample_spanning_points
from radonflow.cli import main


def oracle(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def written(monkeypatch):
    """(payload, text) for every JSON text the CLI writes while the test runs."""
    pairs = []
    real = cli._json_text

    def spy(value):
        text = real(value)
        pairs.append((value, text))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    return pairs


def check_outputs(written, *outs):
    assert written, "nothing was written"
    for payload, text in written:
        assert text == oracle(payload)
    files = [p for out in outs for p in sorted(out.glob("*.json"))]
    assert len(files) == len(written)
    for path in files:
        text = path.read_text()
        assert text == oracle(json.loads(text)) + "\n", path.name


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


LADDER = [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]


@pytest.mark.parametrize("kind", ["uniform", "degenerate"])
@pytest.mark.parametrize("n,d", LADDER, ids=[f"{n}-{d}" for n, d in LADDER])
def test_analyze_ladder_outputs(tmp_path, written, n, d, kind):
    rng = np.random.default_rng([n, d, len(kind)])
    if kind == "uniform":
        points = sample_spanning_points(n, d, rng)
    else:
        points = sample_degenerate_points(n, d, rng, "triple" if n % 2 else "pair")
    cfg = write_config(tmp_path / "points.json", {"points": points.tolist(), "d": d})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    check_outputs(written, tmp_path / "out")


CENSUS = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4)]


@pytest.mark.parametrize("n,d", CENSUS, ids=[f"{n}-{d}" for n, d in CENSUS])
def test_census_outputs(tmp_path, written, n, d):
    assert main(["macphersonian", str(n), str(d), "--out", str(tmp_path / "out")]) == 0
    check_outputs(written, tmp_path / "out")


def test_flow_outputs(tmp_path, written):
    cfg = write_config(tmp_path / "random.json", {"n": 6, "d": 2, "repetitions": 2})
    assert main(["flow", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    names = {p.name for p in (tmp_path / "out").glob("*.json")}
    assert {"summary.json", "rep_000_final_sphere.json", "rep_001_final_sphere.json"} <= names
    check_outputs(written, tmp_path / "out")


EDGE_CASES = {
    "floats": [-0.0, 0.0, 1e-300, 5e-324, 1e17, 1.5e300, 0.1, -2.5],
    "ints": [0, -1, 10**20, -(10**20)],
    "non_finite": [float("nan"), float("inf"), -float("inf"), 1.0],
    "non_finite_rows": [[float("nan"), 2.0], [-float("inf")], []],
    "mixed_rows": [[1, True, None], [None], [False, 2.5]],
    "scalars": [True, False, None, "nan", "inf"],
    "strings": ['", [ ] { } : \\" \\\\', "50% %s %r %%", "é ∑ 𝄞", "tab\there\nline", "\x00"],
    "empties": [[], {}, [[]], [{}], {"a": []}, {"b": {}}, [[], [[]]]],
    "records_shared": [{"pos": [1, 2], "neg": [3], "sign": -1}, {"neg": [], "pos": [4], "sign": 1}],
    "records_differ": [{"a": 1}, {"a": 2, "b": None}, {"b": [1.5]}, {}],
    "nested_records": [{"circuits": [{"neg": [1], "pos": [2]}], "d": 1}, {"circuits": [], "d": 2}],
    "tuples": (1, (2.5, "x"), [3, (4,)]),
    "non_str_keys": {1: "a", 2: [1.0, 2.0]},
    "other_keys": {True: 1, 0: 2, 2.5: [3]},
    "none_key": {None: [{"a": 1}]},
    "%s key %r": {"%(x)s": [1], "": 0},
    "é key": "☃",
}


@pytest.mark.parametrize("key", sorted(EDGE_CASES))
def test_edge_case_values(key):
    value = EDGE_CASES[key]
    assert cli._json_text(value) == oracle(value)
    assert cli._json_text({key: value, "z": [value, value]}) == oracle({key: value, "z": [value, value]})


def test_edge_case_payload_as_one_file(tmp_path, written):
    cli._write_json(tmp_path / "edge.json", EDGE_CASES)
    [(payload, text)] = written
    assert set(payload) == set(EDGE_CASES) | {"schema_version", "generated_at"}
    assert text == oracle(payload)
    assert (tmp_path / "edge.json").read_text() == text + "\n" and text.isascii()


def test_values_json_refuses_are_refused():
    for bad in ({"a": [np.int64(1)]}, {"a": {1: 2, "b": 3}}, [object()]):
        with pytest.raises(TypeError):
            oracle(bad)
        with pytest.raises(TypeError):
            cli._json_text(bad)

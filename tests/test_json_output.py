"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True), byte for byte.

Every output goes through cli._json_text; a spy records each payload with
the text written for it, and each written file is also checked on its own
against the oracle's layout of what it holds. An int table in a payload
(a cli.RecordTable, a cli.Ragged or a 2-D array) is expanded for the
oracle into the records, lists or rows it holds (oracles.table_records),
and the facets analyze writes from one are read back and compared with
the complex's own. The outputs of the criterion-8
commands get the per-file check in test_acceptance.py, where those
commands already run.
"""

import json

import numpy as np
import pytest

import oracles
import radonflow as rf
import radonflow.cli as cli
from conftest import sample_degenerate_points, sample_spanning_points
from radonflow.cli import Ragged, RecordTable, main


def oracle(value):
    return json.dumps(value, indent=2, sort_keys=True, default=oracles.table_records)


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


def written_facets(out, points, d):
    """The facets of out/radon_complex.json, after checking them against
    the complex of the points, in order."""
    facets = json.loads((out / "radon_complex.json").read_text())["facets"]
    rc = rf.geometric_radon_complex(rf.PointConfiguration(np.asarray(points, float), d))
    assert [(f["dim"], f["vertices"]) for f in facets] == [(c.dim, sorted(c.vertices)) for c in oracles.facet_cells(rc)]
    return facets


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
    assert written_facets(tmp_path / "out", points, d)


# d, points, the vertex counts of the facets and the digits of the largest
# vertex id: n = d + 2 (a 0-sphere, no facets), 12 triangles on 8 vertices,
# the README hexagon and 9 points in R^3 (CI runs both)
FACET_CASES = {
    "n=d+2": (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], set(), 0),
    "one-length": (1, [[0], [1], [0], [1], [0]], {3}, 1),
    "hexagon": (2, [[0, 0], [4, 1], [6, 4], [5, 7], [1, 6], [-1, 3]], {3, 4, 6}, 2),
    "nine3": (
        3,
        [[0, 0, 0], [4, 0, 0], [0, 5, 0], [0, 0, 6], [3, 3, 3], [-2, 1, 4], [1, -3, 2], [5, 2, -1], [-3, -2, 1]],
        set(range(3, 23)),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(FACET_CASES))
def test_analyze_facets_read_back(tmp_path, written, name):
    d, points, lengths, digits = FACET_CASES[name]
    cfg = write_config(tmp_path / "points.json", {"points": points, "d": d})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    check_outputs(written, tmp_path / "out")
    facets = written_facets(tmp_path / "out", points, d)
    assert {len(f["vertices"]) for f in facets} == lengths
    assert len(str(max((v for f in facets for v in f["vertices"]), default=""))) == digits


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
    "table": RecordTable(
        {"dim": np.array([2, 3, 2, 4]), "vertices": Ragged(np.array([0, 3, 3, 7, 9]), np.arange(0, 900, 100))}
    ),
    "table_key_last": RecordTable({"z": np.array([-1, 0]), "a%s": Ragged(np.array([0, 2, 2]), np.array([5, 12]))}),
    "table_empty": RecordTable(
        {"dim": np.zeros(0, np.intp), "vertices": Ragged(np.zeros(1, np.intp), np.zeros(0, np.intp))}
    ),
    "tables": [RecordTable({"é": np.array([7]), "%r": Ragged(np.array([0, 1]), np.array([1]))}), {"a": 1}],
    # columns and ragged fields in any number, by key: empty lists first,
    # in the middle and last, values of one to four digits, negative ones,
    # int8 columns, and keys that hold % or are not ASCII
    "table_mixed": RecordTable({
        "pos": Ragged(np.array([0, 0, 3, 3, 4]), np.array([10, 2, 1234])[[0, 1, 2, 0]]),
        "neg": Ragged(np.array([0, 2, 2, 2, 2]), np.array([99, 100])),
        "sign": np.array([1, -1, 1, -1], np.int8),
        "%d% %%": np.array([-12, 0, 7, 10**6]),
        "ünï": Ragged(np.array([0, 1, 2, 3, 4]), np.array([-3, -3, 3, 30])),
    }),
    "table_only_empty_lists": RecordTable({"a": Ragged(np.zeros(3, np.intp), np.zeros(0, np.intp))}),
    "table_columns": RecordTable({"b": np.array([5, 50, 500]), "a": np.array([-1, -1, 1], np.int8)}),
    "ragged": Ragged(np.array([0, 2, 2, 5, 6]), np.array([13, 7, 10, 11, 10, 0])),
    "ragged_empty": Ragged(np.zeros(1, np.intp), np.zeros(0, np.intp)),
    "ragged_all_empty": Ragged(np.zeros(3, np.intp), np.zeros(0, np.intp)),
    "raggeds": [Ragged(np.array([0, 1]), np.array([42])), Ragged(np.array([0, 0]), np.zeros(0, np.intp))],
    "array_int8": np.array([[-1, 0, 1], [1, 1, -1]], np.int8),
    "array": np.array([[0, 5], [2, -9], [10**15, 7]]),
    "array_floats": np.array([[float("nan"), 1.5], [-float("inf"), 0.1], [-0.0, 1e-300]]),
    "array_empty": np.zeros((0, 2), np.intp),
    "array_no_columns": np.zeros((2, 0)),
    "arrays": [np.array([[1, 2]]), np.array([[3], [4]], np.int8)],
}


@pytest.mark.parametrize("key", sorted(EDGE_CASES))
def test_edge_case_values(key):
    value = EDGE_CASES[key]
    assert cli._json_text(value) == oracle(value)
    assert cli._json_text({key: value, "z": [value, value]}) == oracle({key: value, "z": [value, value]})


TABLE_CASES = sorted(
    key
    for key, value in EDGE_CASES.items()
    if any(isinstance(v, (RecordTable, Ragged, np.ndarray)) for v in (value if isinstance(value, list) else [value]))
)


@pytest.mark.parametrize("key", TABLE_CASES)
def test_edge_case_tables_as_tokens(monkeypatch, key):
    # the edge cases are smaller than cli._TOKENS_FROM, so test_edge_case_values
    # sees them laid out as lists: here every int table is joined from tokens
    monkeypatch.setattr(cli, "_TOKENS_FROM", 0)
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

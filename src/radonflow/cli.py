"""Command-line interface.

Subcommands:
  analyze        point configuration -> matroid, complex, sphere report
  flow           perturb-and-flow experiments with traces and summaries
  macphersonian  the exact weak-map poset at small n, with homology
  homology       GF(2) Betti numbers of a complex or poset file, a poset
                 read off its covers as the census reads it

Exit codes: 0 success (every flow outcome, per-rep errors included), 2
input error (a poset that fails a CW check included), 3 unsupported range
(macphersonian with n > 6, d < 1 or n < d + 2), 4 numerical failure.  All
runs with the same inputs and seed write byte-identical outputs apart from
the generated_at stamps.  Every JSON output is laid out as
json.dumps(payload, indent=2, sort_keys=True) lays it out, byte for byte:
2-space indent, sorted keys, ASCII only (non-ASCII characters as \\u
escapes), NaN and Infinity as json spells them.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .complexes import (
    DegeneratePointError,
    GammaMembershipError,
    combinatorial_circuit_graph,
    geometric_radon_complex,
    graphs_equal,
    validate_sphere,
)
from .core import (
    PointConfiguration,
    RankDeficientError,
    circuits_of_points,  # unused here; perfbench/tracing.py rebinds this name
    same_chirotope,
)
from .flow import (
    EmbeddedSphere,
    FIRST_STEP,
    IntegrationError,
    MAX_STEPS,
    NotFlatError,
    OUTCOME_CONVERGED,
    _check_delta,
    curvature_decay_stats,
    integrate,
    recover_configuration,
)
from .macphersonian import (
    MatroidPoset,
    MatroidTable,
    SimplicialComplex,
    UnsupportedRangeError,
    cell_structure_m42,
    cellular_homology,
    chain_counts,
    enumerate_acyclic_oms,  # perfbench/tracing.py rebinds this name here too
    gf2_betti,
    order_complex,  # unused here; perfbench/tracing.py rebinds this name
)

SCHEMA_VERSION = 2
_NUMBERS = {int, float}
_INTEGERS = {int}
# json's own indented encoder, for the values _texts does not lay out itself
_indented_json = json.JSONEncoder(indent=2, sort_keys=True).encode


def _stamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_text(value) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) writes for value,
    a RecordTable read as the list of dicts it holds."""
    return _texts([value], "")[0]


@dataclass(frozen=True)
class RecordTable:
    """A list of records {key: int, ragged_key: [int, ...]} held as int
    arrays: record r is {key: column[r], ragged_key: values[offsets[r] :
    offsets[r + 1]]}.  _json_text lays it out as that list, with no dict
    or list built per record."""

    key: str
    column: np.ndarray
    ragged_key: str
    offsets: np.ndarray
    values: np.ndarray


def _texts(values: list, pad: str) -> list[str]:
    """The indented JSON text of each of values, nested at indentation pad.

    The pure-Python encoder that json runs once indent is set makes a
    generator call per value.  Here a column of values is laid out at once:
    a string template per shape, filled by one % over the whole column.
    Plain ints and floats fill %r slots (json writes their repr, apart from
    the non-finite floats), lists fill a row template per length with the
    texts of all their items, and dicts that share one set of str keys fill
    one record template with the texts of their value columns.  A
    RecordTable fills one record template per ragged length from its arrays
    (_table_text), and a 2-D numeric array one template of its rows (as its
    tolist()).  A value of any other kind (bools, None, strings, empty or
    non-str-keyed dicts, tuples) goes to json itself, re-indented by
    replacing each newline: json never writes a raw newline inside a string.
    """
    kinds = set(map(type, values))
    if kinds <= _NUMBERS:
        return _fill(["%r"] * len(values), values, float in kinds)
    if kinds == {RecordTable}:
        return [_table_text(t, pad) for t in values]
    if kinds == {np.ndarray}:
        rows = [_row([_row(["%r"] * a.shape[1], pad + "  ")] * len(a), pad) for a in values]
        return [_fill([r], a.ravel().tolist(), a.dtype.kind == "f")[0] for r, a in zip(rows, values)]
    inner = pad + "  "
    if kinds == {list}:
        items = list(chain.from_iterable(values))
        kinds = set(map(type, items))
        if kinds <= _NUMBERS:
            slot, fields, floats = "%r", items, float in kinds
        else:
            slot, fields, floats = "%s", _texts(items, inner), False
        lengths = list(map(len, values))
        rows = {k: _row([slot] * k, pad) for k in set(lengths)}
        return _fill(list(map(rows.__getitem__, lengths)), fields, floats)
    if kinds == {dict}:
        keys = values[0].keys()
        if keys and all(type(k) is str for k in keys) and all(v.keys() == keys for v in values):
            keys = sorted(keys)
            record = _record(keys, ["%s"] * len(keys), pad)
            columns = [_texts([v[k] for v in values], inner) for k in keys]
            return _fill([record] * len(values), list(chain.from_iterable(zip(*columns))), False)
    if len(values) == 1:
        return [_indented_json(values[0]).replace("\n", "\n" + pad)]
    return [_texts([v], pad)[0] for v in values]


def _row(slots: list[str], pad: str) -> str:
    """The template of a list of slots nested at indentation pad."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(slots) + "\n" + pad + "]" if slots else "[]"


def _record(keys: list[str], slots: list[str], pad: str) -> str:
    """The template of a dict of sorted str keys, each with its slot, nested
    at indentation pad."""
    inner = pad + "  "
    entries = (encode_basestring_ascii(k).replace("%", "%%") + ": " + s for k, s in zip(keys, slots))
    return "{\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "}"


def _table_text(t: RecordTable, pad: str) -> str:
    """The text of a RecordTable nested at indentation pad: one record
    template per ragged length, filled by one % over the fields of all
    records in turn, each record's column value before or after its ragged
    values as the keys sort (one np.insert of the column into the values)."""
    inner = pad + "  "
    keys = sorted([t.key, t.ragged_key])
    lengths = np.diff(t.offsets).tolist()
    records = {}
    for k in set(lengths):
        slots = {t.key: "%r", t.ragged_key: _row(["%r"] * k, inner + "  ")}
        records[k] = _record(keys, [slots[key] for key in keys], inner)
    fields = np.insert(t.values, t.offsets[:-1] if keys[0] == t.key else t.offsets[1:], t.column)
    return _fill([_row(list(map(records.__getitem__, lengths)), pad)], fields.tolist(), False)[0]


def _fill(templates: list[str], fields: list, floats: bool) -> list[str]:
    """Each template filled from fields in turn, by one % over all of them.

    floats says that fields holds floats for %r slots: a finite float's
    repr never holds an "n", and json spells repr's nan, inf and -inf as
    NaN, Infinity and -Infinity.
    """
    text = "\x00".join(templates) % tuple(fields)  # no JSON text holds a raw NUL
    if floats:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text.split("\x00")


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["generated_at"] = _stamp()
    path.write_text(_json_text(payload) + "\n")


def _write_trace_csv(path: Path, trace) -> None:
    head = f"# generated_at: {_stamp()}\n# schema_version: {SCHEMA_VERSION}\n"
    path.write_text(head + trace.to_csv_text())


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    return data


def cmd_analyze(args: argparse.Namespace) -> int:
    config = PointConfiguration.from_dict(_load_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rc = geometric_radon_complex(config)
    matroid = rc.matroid
    report = validate_sphere(rc, config.n, config.d)
    combinatorial = combinatorial_circuit_graph(matroid)
    matches = graphs_equal(rc.graph, combinatorial)
    _write_json(out / "matroid.json", matroid.to_dict())
    facets = RecordTable("dim", rc.facet_dims, "vertices", rc.facet_offsets, rc.facet_vertices)
    complex_payload = {**rc.graph.to_dict(), "n": rc.n, "d": rc.d, "facets": facets, "positions": rc.positions}
    _write_json(out / "radon_complex.json", complex_payload)
    _write_json(out / "sphere_report.json", {**report.to_dict(), "combinatorial_graph_matches": matches})
    status = "ok" if report.ok and matches else "MISMATCH"
    print(
        f"analyze: {config.n} points in R^{config.d}: {len(matroid.signs)} circuits, "
        f"{len(rc.graph.signs)} vertices, {len(rc.graph.edges)} edges, "
        f"chi={report.euler_characteristic} ({status})"
    )
    return 0


def _sample_spanning_points(n: int, d: int, rng: np.random.Generator) -> PointConfiguration:
    while True:
        pts = rng.integers(-20, 21, size=(n, d)).astype(float)
        config = PointConfiguration(pts, d)
        if config.affinely_spans():
            return config


def _setting(data: dict, key: str, given, default, kinds: set):
    """A flow setting: the command line's value, else the file's, which must
    be of one of kinds (bools are ints to Python, and int() and float()
    would read 1.9 or "5" as numbers)."""
    if given is not None:
        return given
    value = data.get(key, default)
    if type(value) not in kinds:
        what = "an integer" if kinds == _INTEGERS else "a number"
        raise ValueError(f"'{key}' must be {what}, not {json.dumps(value)}")
    return value


def cmd_flow(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    seed = _setting(data, "seed", args.seed, 0, _INTEGERS)
    try:
        delta = _check_delta(float(_setting(data, "delta", args.delta, 0.05, _NUMBERS)))
    except OverflowError:
        raise ValueError("'delta' is an integer too large for a float") from None
    reps = data.get("repetitions", 1)
    max_steps = _setting(data, "max_steps", args.max_steps, MAX_STEPS, _INTEGERS)
    for key, value, least in (("seed", seed, 0), ("repetitions", reps, 1), ("max_steps", max_steps, 1)):
        if type(value) is not int or value < least:
            raise ValueError(f"'{key}' must be an integer >= {least}, not {json.dumps(value)}")

    fixed_points = None
    if "points" in data:
        fixed_points = PointConfiguration.from_dict(data)
        n, d = fixed_points.n, fixed_points.d
    else:
        if "n" not in data or "d" not in data:
            raise ValueError("flow config needs either 'points' or 'n' and 'd'")
        n, d = (_setting(data, key, None, None, _INTEGERS) for key in ("n", "d"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        config = fixed_points if fixed_points is not None else _sample_spanning_points(n, d, rng)
        row = {"rep": rep}
        try:
            start = EmbeddedSphere.from_points(config).perturbed(delta, rng)
            final, trace = integrate(start, max_steps=max_steps)
            row["outcome"] = trace.outcome
            row["steps"] = len(trace.samples) - 1
            row["t_final"] = trace.samples[-1].t
            row["curv_final"] = trace.samples[-1].curv_max
            _write_trace_csv(out / f"rep_{rep:03d}_trace.csv", trace)
            _write_json(out / f"rep_{rep:03d}_final_sphere.json", final.to_dict())
            try:
                rate, r2 = curvature_decay_stats(trace)
                row["decay_rate"] = rate
                row["decay_r2"] = r2
            except ValueError as exc:
                row["decay_rate"] = None
                row["decay_r2"] = None
                row["decay_note"] = str(exc)
            if trace.outcome == OUTCOME_CONVERGED:
                recovered = recover_configuration(final)
                row["roundtrip_ok"] = same_chirotope(recovered, config)
                _write_json(
                    out / f"rep_{rep:03d}_recovered_points.json", recovered.to_dict()
                )
            else:
                row["roundtrip_ok"] = None
        except (IntegrationError, NotFlatError, np.linalg.LinAlgError) as exc:
            row["outcome"] = f"error: {exc}"
            row["roundtrip_ok"] = None
        rows.append(row)
        print(f"flow rep {rep}: {row['outcome']}")
    outcomes = dict(Counter(row["outcome"] for row in rows))
    summary = {
        "seed": seed,
        "delta": delta,
        "repetitions": reps,
        "step": FIRST_STEP,
        "max_steps": max_steps,
        "outcomes": outcomes,
        "rows": rows,
    }
    _write_json(out / "summary.json", summary)
    print(f"flow: {outcomes}")
    return 0


def cmd_macphersonian(args: argparse.Namespace) -> int:
    n, d = int(args.n), int(args.d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    elements = enumerate_acyclic_oms(n, d)
    poset = MatroidPoset.from_elements(elements)
    hasse = poset.hasse_pairs()
    grade, betti = cellular_homology(poset, hasse)
    counts = chain_counts(poset)
    chi = sum((-1) ** k * c for k, c in enumerate(counts))
    uniform = int(elements.uniform.sum())
    poset_payload = {**poset.to_dict(hasse), "n": n, "d": d, "count": len(elements), "uniform_count": uniform}
    _write_json(out / "poset.json", poset_payload)
    _write_json(
        out / "order_complex.json",
        {
            "n": n,
            "d": d,
            "simplex_counts": counts,
            "euler_characteristic": chi,
            "betti_gf2": betti,
        },
    )
    if (n, d) == (4, 2):
        report = cell_structure_m42(poset, grade, hasse)
        _write_json(out / "m42_cells.json", report.to_dict())
        print(
            f"macphersonian(4,2): {len(elements)} elements, {uniform} uniform, "
            f"face vector {report.face_vector}, chi={report.euler_characteristic}, "
            f"betti {betti}"
        )
    else:
        print(
            f"macphersonian({n},{d}): {len(elements)} elements, {uniform} uniform, "
            f"chi={chi}, betti {betti}"
        )
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    if "facets" in data:
        faces = data["facets"]
        if not isinstance(faces, list) or not faces:
            raise ValueError("'facets' must be a nonempty list of vertex lists")
        for f in faces:
            # bools are ints to Python, and True == 1 would merge two labels
            if not isinstance(f, list) or not all(type(v) is int for v in f):
                raise ValueError(f"facet {json.dumps(f)} is not a list of integer labels")
            if not f:
                raise ValueError("a facet needs at least one vertex")
        labels = sorted({v for f in faces for v in f})
        index = {v: i for i, v in enumerate(labels)}
        complex_ = SimplicialComplex.from_maximal_faces(
            [[index[v] for v in f] for f in faces]
        )
        betti, counts = gf2_betti(complex_), complex_.counts()
    elif "elements" in data and "hasse" in data:
        table, listed = MatroidTable.from_dict(data), data["hasse"]
        del data  # the parsed file is freed before the poset is built
        k = len(table)
        if not isinstance(listed, list):
            raise ValueError("'hasse' must be a list of [i, j] pairs")
        for i, j in listed:
            if not all(type(x) is int and 0 <= x < k for x in (i, j)):
                raise ValueError(f"hasse pair {json.dumps([i, j])} names no element of 0..{k - 1}")
        listed = np.unique(np.array(listed, np.intp).reshape(-1, 2), axis=0)
        poset = MatroidPoset.from_elements(table)
        hasse = poset.hasse_pairs()
        if not np.array_equal(listed, hasse):
            raise ValueError("'hasse' is not the cover relation of the weak-map order of 'elements'")
        # the census's route: exact once its three checks pass, else NotACWPosetError
        _, betti = cellular_homology(poset, hasse)
        counts = chain_counts(poset)
    else:
        raise ValueError("homology input needs 'facets' or 'elements' + 'hasse'")
    payload = {
        "simplex_counts": counts,
        "euler_characteristic": sum((-1) ** k * c for k, c in enumerate(counts)),
        "betti_gf2": betti,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "betti.json", payload)
    print(f"homology: counts {counts}, betti {betti}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process (not at
    import) and shared after it: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="radonflow",
        description="Radon complexes of point configurations and the curvature flow that stretches them flat",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="matroid, complex, and sphere report for a point configuration")
    p_analyze.add_argument("--config", required=True, help="point configuration JSON")
    p_analyze.add_argument("--out", default="analyze-out", help="output directory")
    p_analyze.set_defaults(func=cmd_analyze)

    p_flow = sub.add_parser("flow", help="perturb-and-flow experiment")
    p_flow.add_argument("--config", required=True, help="experiment JSON")
    p_flow.add_argument("--seed", type=int, default=None)
    p_flow.add_argument("--delta", type=float, default=None)
    p_flow.add_argument("--max-steps", type=int, default=None, help="step budget")
    p_flow.add_argument("--out", default="flow-out", help="output directory")
    p_flow.set_defaults(func=cmd_flow)

    p_mac = sub.add_parser("macphersonian", help="exact weak-map poset of n points in R^d")
    p_mac.add_argument("n", type=int)
    p_mac.add_argument("d", type=int)
    # still parsed because perfbench/workloads.py passes it
    p_mac.add_argument("--seed", type=int, default=0, help="ignored: the census is exact")
    p_mac.add_argument("--out", default="macphersonian-out", help="output directory")
    p_mac.set_defaults(func=cmd_macphersonian)

    p_hom = sub.add_parser("homology", help="GF(2) Betti numbers of a complex or poset JSON")
    p_hom.add_argument("--config", required=True, help="complex or poset JSON")
    p_hom.add_argument("--out", default="homology-out", help="output directory")
    p_hom.set_defaults(func=cmd_homology)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IntegrationError, NotFlatError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (
        FileNotFoundError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        RankDeficientError,
        GammaMembershipError,
        DegeneratePointError,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

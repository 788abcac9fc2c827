"""Command-line interface.

Subcommands:
  analyze        point configuration -> matroid, complex, sphere report
  flow           perturb-and-flow experiments with traces and summaries
  macphersonian  the exact weak-map poset at small n, with homology
  homology       GF(2) Betti numbers of a complex or poset file, a poset
                 read off its covers as the census reads it

Exit codes: 0 success (every flow outcome, per-rep errors included), 2
input error (a poset that fails a CW check or lies outside the census
range, and sampled flow points outside d >= 1, d + 2 <= n <= 16,
included), 3 unsupported range (macphersonian with n > 6, d < 1 or n < d +
2, and a run that numpy or Python cannot give the memory it asks for), 4
numerical failure.  All runs with the same inputs and seed write
byte-identical outputs apart from the generated_at stamps.  Every JSON
output is laid out as json.dumps(payload, indent=2, sort_keys=True) lays
it out, byte for byte: 2-space indent, sorted keys, ASCII only (non-ASCII
characters as \\u escapes), NaN and Infinity as json spells them.  The
writer (_texts) fills string templates for plain values and joins the int
tables of the payloads (RecordTable, Ragged and 2-D int arrays, which the
commands write in place of to_dict's lists; a Ragged is the package's one
form of a list of int lists) from tokens.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .complexes import (
    combinatorial_circuit_graph,
    geometric_radon_complex,
    graphs_equal,
    validate_sphere,
)
from .core import (
    PointConfiguration,
    Ragged,
    RecordTable,
    _distinct,
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
# flow samples at most this many points: n generic points in R^d have
# C(n, d + 2) circuits, up to C(16, 8) = 12 870 here, each a vertex pair of
# the sphere the flow moves; CI flows a sampled (16, 2) to convergence and
# the tests flow up to (10, 4)
MAX_SAMPLED_N = 16
_NUMBERS = {int, float}
_INTEGERS = {int}
_TABLES = {RecordTable, Ragged, np.ndarray}
# an int table of fewer ints than this is laid out as the lists it holds:
# below it the tokens' numpy calls cost more than they save (the flow's
# graphs, the smaller rungs' circuits and the census's circuits)
_TOKENS_FROM = 500
# json's own indented encoder, for the values _texts does not lay out itself
_indented_json = json.JSONEncoder(indent=2, sort_keys=True).encode


def _stamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_text(value) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) writes for value,
    each RecordTable, Ragged or 2-D array in it read as the lists it holds."""
    return _texts([value], "")[0]


def _texts(values: list, pad: str) -> list[str]:
    """The indented JSON text of each of values, nested at indentation pad.

    The pure-Python encoder that json runs once indent is set makes a
    generator call per value.  Here a column of values is laid out at once.
    Plain ints and floats fill the %r slots of one string template per
    shape by one % over the whole column (json writes their repr, apart
    from the non-finite floats), lists fill a row template per length with
    the texts of all their items, and dicts that share one set of str keys
    fill one record template with the texts of their value columns.  An
    int table (a RecordTable, a Ragged or a 2-D int array) is joined from
    tokens, or laid out as its lists when small, and a 2-D float array
    fills one template of its rows (_table_text).  A value of any other kind (bools, None,
    strings, empty or non-str-keyed dicts, tuples) goes to json itself,
    re-indented by replacing each newline: json never writes a raw newline
    inside a string.
    """
    kinds = set(map(type, values))
    if kinds <= _NUMBERS:
        return _fill(["%r"] * len(values), values, float in kinds)
    if kinds <= _TABLES:
        return [_table_text(v, pad) for v in values]
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
            entries = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            record = "{\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "}"
            columns = [_texts([v[k] for v in values], inner) for k in keys]
            return _fill([record] * len(values), list(chain.from_iterable(zip(*columns))), False)
    if len(values) == 1:
        return [_indented_json(values[0]).replace("\n", "\n" + pad)]
    return [_texts([v], pad)[0] for v in values]


def _row(slots: list[str], pad: str) -> str:
    """The template of a list of slots nested at indentation pad."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(slots) + "\n" + pad + "]" if slots else "[]"


def _table_text(table, pad: str) -> str:
    """The text of a RecordTable, a Ragged or a 2-D array nested at
    indentation pad.

    A float array fills one template of its rows, and an int table of
    fewer than _TOKENS_FROM ints is laid out as the lists it holds.  A
    larger one is joined from tokens, with no record or list built: one
    token per column entry, per ragged value and per empty ragged list.  A
    token is the text from the end of the previous one through its own
    value: its newline and indent, the record's opening brace when its
    field comes first, its key and opening bracket when it starts a list,
    and its comma, or the closing brackets that follow it.  The tokens of
    each field (_column_tokens, _ragged_tokens) are indices into the words
    of that field, one per distinct value in each such place, and are set
    among the other fields' by the number of tokens each record has before
    them; one "".join writes the whole table.  Every record ends with a
    comma: the last token's is cut, and the table's brackets join the
    first and the last token.
    """
    if isinstance(table, np.ndarray) and table.dtype.kind == "f":
        row = _row([_row(["%r"] * table.shape[1], pad + "  ")] * len(table), pad)
        return _fill([row], table.ravel().tolist(), True)[0]
    if _ints(table) < _TOKENS_FROM:
        return _texts([table.tolist()], pad)[0]
    if isinstance(table, np.ndarray):
        k, c = table.shape
        table = Ragged(np.arange(k + 1) * c, table.ravel())
    inner = "\n" + pad + "  "
    if isinstance(table, Ragged):
        parts = [_ragged_tokens(table, inner + "[", inner + "  ", inner + "],", inner + "[],")]
    else:
        parts, keys = [], sorted(table.fields)
        for key in keys:
            name = (inner + "{" if key == keys[0] else "") + inner + "  " + encode_basestring_ascii(key) + ": "
            tail, value = inner + "}," if key == keys[-1] else ",", table.fields[key]
            if isinstance(value, Ragged):
                close = inner + "  ]" + tail
                parts.append(_ragged_tokens(value, name + "[", inner + "    ", close, name + "[]" + tail))
            else:
                parts.append(_column_tokens(value, name, tail))
    counts = sum(count for count, _, _ in parts)
    if not len(counts):
        return "[]"
    ids = np.empty(counts.sum(), np.intp)
    at = np.cumsum(counts) - counts  # each record's next token
    vocabulary = []
    for count, part, words in parts:
        ids[np.arange(len(part)) + np.repeat(at - (np.cumsum(count) - count), count)] = part + len(vocabulary)
        vocabulary += words
        at += count
    tokens = np.array(vocabulary, object)[ids].tolist()
    tokens[-1] = tokens[-1][:-1] + "\n" + pad + "]"
    tokens[0] = "[" + tokens[0]
    return "".join(tokens)


def _ints(table) -> int:
    """The number of ints an int table holds, offsets included."""
    if isinstance(table, RecordTable):
        return sum(map(_ints, table.fields.values()))
    return table.size if isinstance(table, np.ndarray) else table.offsets.size + table.values.size


def _value_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The id of each of values, its index in distinct, ascending ints that
    hold them all, and those ints: each int from the least to the largest
    when the values are no sparser than that (a sort costs more than the
    words of the ints missing between), else each distinct value."""
    if not len(values):
        return np.zeros(0, np.intp), values
    least, most = values.min().tolist(), values.max().tolist()
    if most - least <= 2 * len(values):
        return values.astype(np.intp) - least, np.arange(least, most + 1)
    distinct, _, index = _distinct(values)
    return index, distinct


def _words(heads: list[str], tails: list[str], kinds: np.ndarray, values: np.ndarray) -> list[str]:
    """heads[k] + value + tails[k] for each kind k and int value, by one
    % over them all (_fill)."""
    forms = [h.replace("%", "%%") + "%d" + t.replace("%", "%%") for h, t in zip(heads, tails)]
    return _fill(list(map(forms.__getitem__, kinds.tolist())), values.tolist(), False)


def _column_tokens(column: np.ndarray, name: str, tail: str):
    """(count, ids, words): one token a record, name, its entry and tail."""
    ids, distinct = _value_ids(column)
    return np.ones(len(column), np.intp), ids, _words([name], [tail], np.zeros(len(distinct), np.intp), distinct)


def _ragged_tokens(field: Ragged, open_: str, indent: str, close: str, empty: str):
    """(count, ids, words) of a Ragged's lists: each value a token on its
    own line at indent, the first of a list after open_, each but the last
    followed by a comma and the last by close; an empty list one token,
    empty.  count holds each list's number of tokens, ids the tokens of
    all the lists in turn, indices into words, and words only the tokens
    that occur."""
    lengths = field.lengths
    value, distinct = _value_ids(field.values)
    full = np.flatnonzero(lengths)
    place = np.zeros(len(value), np.intp)  # 0 to 3: middle, first, last or only value of its list
    place[field.offsets[full]] = 1
    place[field.offsets[full + 1] - 1] += 2
    ids = np.insert(place * len(distinct) + value, field.offsets[:-1][lengths == 0], 4 * len(distinct))
    used = np.zeros(4 * len(distinct) + 1, bool)
    used[ids] = True
    places, values = np.divmod(np.flatnonzero(used[:-1]), max(1, len(distinct)))
    words = _words([indent, open_ + indent] * 2, [",", ",", close, close], places, distinct[values])
    return np.maximum(lengths, 1), (np.cumsum(used) - 1)[ids], words + [empty] * int(used[-1])


def _fill(templates: list[str], fields: list, floats: bool) -> list[str]:
    """Each template filled from fields in turn, by one % over all of them.

    floats says that fields holds floats for %r slots: a finite float's
    repr never holds an "n", and json spells repr's nan, inf and -inf as
    NaN, Infinity and -Infinity.
    """
    text = "\x00".join(templates) % tuple(fields)  # no JSON text holds a raw NUL
    if floats:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text.split("\x00") if len(templates) > 1 else [text] * len(templates)


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
    rc = geometric_radon_complex(config)
    matroid = rc.matroid
    report = validate_sphere(rc)
    combinatorial = combinatorial_circuit_graph(matroid)
    matches = graphs_equal(rc.graph, combinatorial)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "matroid.json", matroid.payload())
    _write_json(out / "radon_complex.json", rc.payload())
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
        if d < 1:
            raise ValueError(f"'d' must be an integer >= 1, not {d}")
        if not d + 2 <= n <= MAX_SAMPLED_N:
            raise ValueError(f"'n' must be an integer with d + 2 <= n <= {MAX_SAMPLED_N} to sample points")
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
            _write_json(out / f"rep_{rep:03d}_final_sphere.json", final.payload())
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


def _homology(counts: list[int], betti: list[int]) -> dict:
    """The homology fields the CLI writes: the simplex counts, their
    alternating sum and the GF(2) Betti numbers."""
    chi = sum((-1) ** k * c for k, c in enumerate(counts))
    return {"simplex_counts": counts, "euler_characteristic": chi, "betti_gf2": betti}


def cmd_macphersonian(args: argparse.Namespace) -> int:
    n, d = int(args.n), int(args.d)
    elements = enumerate_acyclic_oms(n, d)
    poset = MatroidPoset.from_elements(elements)
    hasse = poset.hasse_pairs()
    grade, betti = cellular_homology(poset, hasse)
    homology = _homology(chain_counts(poset), betti)
    chi = homology["euler_characteristic"]
    uniform = int(elements.uniform.sum())
    poset_payload = {**poset.payload(hasse), "n": n, "d": d, "count": len(elements), "uniform_count": uniform}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "poset.json", poset_payload)
    _write_json(out / "order_complex.json", {"n": n, "d": d, **homology})
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
            if not all(-(2**63) <= v < 2**63 for v in f):
                raise ValueError(f"facet {json.dumps(f)} has a label outside -2**63..2**63-1")
        complex_ = SimplicialComplex.from_maximal_faces(faces)
        betti, counts = gf2_betti(complex_), complex_.counts()
    elif "elements" in data and "hasse" in data:
        table, listed = MatroidTable.from_dict(data), data["hasse"]
        del data  # the parsed file is freed before the poset is built
        k = len(table)
        if not isinstance(listed, list):
            raise ValueError("'hasse' must be a list of [i, j] pairs")
        for pair in listed:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"'hasse' entry {json.dumps(pair)} is not an [i, j] pair")
            if not all(type(x) is int and 0 <= x < k for x in pair):
                raise ValueError(f"hasse pair {json.dumps(pair)} names no element of 0..{k - 1}")
        listed = np.array(listed, np.intp).reshape(-1, 2)
        listed = _distinct(listed[:, 0] * k + listed[:, 1])[0]  # row-major keys i * k + j, each once
        poset = MatroidPoset.from_elements(table)
        hasse = poset.hasse_pairs()
        if not np.array_equal(listed, hasse[:, 0] * k + hasse[:, 1]):
            raise ValueError("'hasse' is not the cover relation of the weak-map order of 'elements'")
        # the census's route: exact once its three checks pass, else NotACWPosetError
        _, betti = cellular_homology(poset, hasse)
        counts = chain_counts(poset)
    else:
        raise ValueError("homology input needs 'facets' or 'elements' + 'hasse'")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "betti.json", _homology(counts, betti))
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
    except MemoryError as exc:  # numpy's names the allocation it was refused
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except (IntegrationError, NotFlatError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

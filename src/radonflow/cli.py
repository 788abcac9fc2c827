"""Command-line interface.

Subcommands:
  analyze        point configuration -> matroid, complex, sphere report
  flow           perturb-and-flow experiments with traces and summaries
  macphersonian  the exact weak-map poset at small n, with homology
  homology       GF(2) Betti numbers of a complex or poset file

Exit codes: 0 success (face exits included), 2 input error, 3 unsupported
range, 4 numerical failure.  All runs with the same inputs and seed write
byte-identical outputs apart from the generated_at stamps.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from .complexes import (
    DegeneratePointError,
    GammaMembershipError,
    combinatorial_circuit_graph,
    geometric_radon_complex,
    graphs_equal,
    matroid_of_complex,
    validate_sphere,
)
from .core import (
    OrientedMatroid,
    PointConfiguration,
    RankDeficientError,
    circuits_of_points,
)
from .flow import (
    EmbeddedSphere,
    FlowParams,
    IntegrationError,
    NotFlatError,
    OUTCOME_CONVERGED,
    curvature_decay_stats,
    integrate,
    recover_configuration,
)
from .macphersonian import (
    MatroidPoset,
    SimplicialComplex,
    UnsupportedRangeError,
    cell_structure_m42,
    enumerate_acyclic_oms,  # perfbench/tracing.py rebinds this name here too
    gf2_betti,
    order_complex,
)

SCHEMA_VERSION = 1


def _stamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["generated_at"] = _stamp()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(path: Path, trace) -> None:
    head = f"# generated_at: {_stamp()}\n# schema_version: {SCHEMA_VERSION}\n"
    path.write_text(head + trace.to_csv_text())


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    return data


def _load_points(data: dict) -> PointConfiguration:
    if "points" not in data or "d" not in data:
        raise ValueError("point configuration JSON needs 'd' and 'points'")
    return PointConfiguration.from_dict(data)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_points(_load_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rc = geometric_radon_complex(config)
    matroid = matroid_of_complex(rc)
    report = validate_sphere(rc, config.n, config.d)
    combinatorial = combinatorial_circuit_graph(matroid)
    matches = graphs_equal(rc.graph, combinatorial)
    _write_json(out / "matroid.json", matroid.to_dict())
    complex_payload = rc.graph.to_dict()
    complex_payload["n"] = rc.n
    complex_payload["d"] = rc.d
    complex_payload["facets"] = [
        {"dim": cell.dim, "vertices": sorted(cell.vertices)} for cell in rc.facets
    ]
    complex_payload["positions"] = [
        [float(x) for x in row] for row in rc.positions
    ]
    _write_json(out / "radon_complex.json", complex_payload)
    sphere_payload = report.to_dict()
    sphere_payload["combinatorial_graph_matches"] = matches
    _write_json(out / "sphere_report.json", sphere_payload)
    status = "ok" if report.ok and matches else "MISMATCH"
    print(
        f"analyze: {config.n} points in R^{config.d}: {len(matroid.circuits)} circuits, "
        f"{len(rc.graph.vertices)} vertices, {len(rc.graph.edges)} edges, "
        f"chi={report.euler_characteristic} ({status})"
    )
    return 0


def _sample_spanning_points(n: int, d: int, rng: np.random.Generator) -> PointConfiguration:
    while True:
        pts = rng.integers(-20, 21, size=(n, d)).astype(float)
        config = PointConfiguration(pts, d)
        if config.affinely_spans():
            return config


def cmd_flow(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    seed = int(args.seed if args.seed is not None else data.get("seed", 0))
    delta = float(args.delta if args.delta is not None else data.get("delta", 0.05))
    reps = int(data.get("repetitions", 1))
    default = FlowParams()
    params = FlowParams(
        h=float(args.step if args.step is not None else data.get("step", default.h)),
        max_steps=int(
            args.max_steps if args.max_steps is not None else data.get("max_steps", default.max_steps)
        ),
    )
    out = Path(args.out if args.out is not None else data.get("out", "flow-out"))
    out.mkdir(parents=True, exist_ok=True)

    fixed_points = None
    if "points" in data:
        fixed_points = _load_points(data)
        n, d = fixed_points.n, fixed_points.d
    else:
        if "n" not in data or "d" not in data:
            raise ValueError("flow config needs either 'points' or 'n' and 'd'")
        n, d = int(data["n"]), int(data["d"])

    rows = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        config = fixed_points if fixed_points is not None else _sample_spanning_points(n, d, rng)
        row = {"rep": rep}
        try:
            rc = geometric_radon_complex(config)
            sphere = EmbeddedSphere.from_geometric(rc)
            start = sphere.perturbed(delta, rng)
            final, trace = integrate(start, params)
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
                roundtrip = (
                    circuits_of_points(recovered).circuit_key()
                    == sphere.matroid.circuit_key()
                )
                row["roundtrip_ok"] = bool(roundtrip)
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
    outcomes = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    summary = {
        "seed": seed,
        "delta": delta,
        "repetitions": reps,
        "step": params.h,
        "max_steps": params.max_steps,
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
    complex_ = order_complex(poset)
    betti = gf2_betti(complex_)
    uniform = sum(1 for m in elements if m.is_uniform)
    poset_payload = poset.to_dict()
    poset_payload["n"] = n
    poset_payload["d"] = d
    poset_payload["count"] = len(elements)
    poset_payload["uniform_count"] = uniform
    _write_json(out / "poset.json", poset_payload)
    _write_json(
        out / "order_complex.json",
        {
            "n": n,
            "d": d,
            "simplex_counts": complex_.counts(),
            "euler_characteristic": complex_.euler_characteristic(),
            "betti_gf2": betti,
        },
    )
    if (n, d) == (4, 2):
        report = cell_structure_m42(elements)
        _write_json(out / "m42_cells.json", report.to_dict())
        print(
            f"macphersonian(4,2): {len(elements)} elements, {uniform} uniform, "
            f"face vector {report.face_vector}, chi={report.euler_characteristic}, "
            f"betti {betti}"
        )
    else:
        print(
            f"macphersonian({n},{d}): {len(elements)} elements, {uniform} uniform, "
            f"chi={complex_.euler_characteristic()}, betti {betti}"
        )
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    if "facets" in data:
        faces = data["facets"]
        if not isinstance(faces, list) or not faces:
            raise ValueError("'facets' must be a nonempty list of vertex lists")
        labels = sorted({v for f in faces for v in f})
        index = {v: i for i, v in enumerate(labels)}
        complex_ = SimplicialComplex.from_maximal_faces(
            [[index[v] for v in f] for f in faces]
        )
    elif "elements" in data and "hasse" in data:
        k = len(data["elements"])
        leq = np.eye(k, dtype=bool)
        for i, j in data["hasse"]:
            if not all(isinstance(x, int) and 0 <= x < k for x in (i, j)):
                raise ValueError(f"hasse pair [{i}, {j}] names no element of 0..{k - 1}")
            leq[i, j] = True
        for _ in range(k):
            closed = leq | (leq @ leq)
            if (closed == leq).all():
                break
            leq = closed
        elements = [OrientedMatroid.from_dict(m) for m in data["elements"]]
        complex_ = order_complex(MatroidPoset(elements=elements, leq=leq))
    else:
        raise ValueError("homology input needs 'facets' or 'elements' + 'hasse'")
    betti = gf2_betti(complex_)
    payload = {
        "simplex_counts": complex_.counts(),
        "euler_characteristic": complex_.euler_characteristic(),
        "betti_gf2": betti,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "betti.json", payload)
    print(f"homology: counts {complex_.counts()}, betti {betti}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_flow.add_argument("--step", type=float, default=None, help="initial step size")
    p_flow.add_argument("--max-steps", type=int, default=None, help="step budget")
    p_flow.add_argument("--out", default=None, help="output directory")
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

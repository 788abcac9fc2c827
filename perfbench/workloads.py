"""The benchmark's workloads: inputs made from a seed, the op list, and output checks.

A workload is a list of passes.  A pass is a fixed list of ops, and an op is
one ``radonflow.cli.main(argv)`` call.  Every pass has the same mix of
shapes; its inputs come from ``numpy.random.default_rng([seed, pass])``, so
the same seed gives the same op list.  After each op the benchmark checks
the files the op wrote and reduces them to an outcome record: the semantic
result (circuits, cell counts, flow outcome, Betti numbers), never float
bytes.  Records feed the run's fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

# (n, d) rungs of the analyze ladder; each rung runs once drawn at random
# and once with a forced degeneracy
ANALYZE_LADDER = [(7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (10, 5), (10, 4)]
ANALYZE_LADDER_TINY = [(7, 2), (8, 3)]

# fixed configurations from the test fixtures: a regular pentagon (its Radon
# complex is a 1-sphere) and an integer hexagon (a 2-sphere)
PENTAGON = [
    [float(np.cos(a)), float(np.sin(a))] for a in 2.0 * np.pi * np.arange(5) / 5.0
]
HEXAGON = [[0.0, 0.0], [4.0, 1.0], [6.0, 4.0], [5.0, 7.0], [1.0, 6.0], [-1.0, 3.0]]
FLOW_DELTA = 0.05
# one pass alternates the shapes with the pentagon twice, so the run's median
# op falls inside the pentagon's latencies and its tail inside the hexagon's,
# not in the gap between the two
FLOW_PASS = ["pentagon", "hexagon", "pentagon"]

CENSUS_SHAPES = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 4)]
CENSUS_SHAPES_TINY = [(4, 1), (4, 2), (5, 3)]
# census sizes the package documents: (n, d) -> (elements, GF(2) Betti numbers or None)
CENSUS_KNOWN = {(4, 2): (25, [1, 1, 1]), (5, 3): (90, None)}

OUTCOME_CONVERGED = "converged-flat"
FLOW_OUTCOMES = ["converged-flat", "face-exit", "stalled", "t_max-reached", "error"]


@dataclass
class Op:
    """One CLI call, the directory it writes to, and how to read its outputs."""

    argv: list[str]
    out: Path
    kind: str
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the benchmark read back from one op."""

    ok: bool
    record: dict
    problems: list[str]
    converged: bool = False


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _spans(points: np.ndarray, d: int) -> bool:
    # the benchmark's own test, so the inputs do not change with the package
    lifted = np.vstack([points.T.astype(float), np.ones(len(points))])
    return int(np.linalg.matrix_rank(lifted)) == d + 1


def _random_points(n: int, d: int, rng: np.random.Generator, degeneracy: str | None) -> np.ndarray:
    """Integer points in [-20, 20]^d that affinely span R^d.

    degeneracy "pair" makes two points coincide; "triple" puts a point on
    the line through two others, an integer step away, so the degeneracy is
    exact.
    """
    while True:
        pts = rng.integers(-20, 21, size=(n, d))
        if degeneracy == "pair":
            i, j = rng.choice(n, size=2, replace=False)
            pts[j] = pts[i]
        elif degeneracy == "triple":
            i, j, k = rng.choice(n, size=3, replace=False)
            pts[k] = pts[i] + int(rng.choice([-1, 2])) * (pts[j] - pts[i])
        if _spans(pts, d):
            return pts


def exact_circuits(points: list[list[int]], d: int) -> list[tuple[list[int], list[int]]]:
    """Signed circuits of integer points in exact integer and rational arithmetic.

    The lifted points (x, 1) have rank d + 1.  A set of them is independent
    iff it lies in a basis, a (d + 1)-subset with a nonzero determinant, and
    a circuit is a dependent set whose every proper subset is independent.
    The signs of a (d + 2)-element circuit are the alternating maximal
    minors (Cramer's rule); smaller circuits are solved over Fraction.
    Each circuit is oriented so that its smallest element is positive;
    elements are numbered from 1, as in the package's matroid.json.
    """
    n = len(points)
    lifted = [list(p) + [1] for p in points]
    det = {b: _int_det([lifted[i] for i in b]) for b in combinations(range(n), d + 1)}
    independent = set()
    for basis, value in det.items():
        if value != 0:
            for size in range(1, d + 2):
                independent.update(combinations(basis, size))
    found = []
    for size in range(2, d + 3):
        for sub in combinations(range(n), size):
            if sub in independent or any(
                sub[:i] + sub[i + 1 :] not in independent for i in range(size)
            ):
                continue
            if size == d + 2:
                vec = [(-1) ** i * det[sub[:i] + sub[i + 1 :]] for i in range(size)]
            else:
                rows = [[Fraction(lifted[i][k]) for i in sub] for k in range(d + 1)]
                (vec,) = _kernel_basis(rows, size)
            if vec[0] < 0:
                vec = [-v for v in vec]
            pos = [sub[i] + 1 for i, v in enumerate(vec) if v > 0]
            neg = [sub[i] + 1 for i, v in enumerate(vec) if v < 0]
            found.append((pos, neg))
    return sorted(found)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss elimination)."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of a rational matrix by reduction to row echelon form."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(v)
    return basis


def _circuit_list(matroid: dict) -> list[tuple[list[int], list[int]]]:
    return sorted((c["pos"], c["neg"]) for c in matroid["circuits"])


def digest(obj) -> str:
    """Short hash of a JSON-able value: outcome records, pass fingerprints."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _alternating_sum(values: list[int]) -> int:
    return sum((-1) ** k * v for k, v in enumerate(values))


def _read(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Workload:
    name = ""
    # nominal seconds one pass takes on the reference machine; the number of
    # passes in a run is --seconds divided by this, so parent and child
    # commits run the same op list
    pass_seconds = 1.0

    def __init__(self, inputs: Path, tiny: bool = False) -> None:
        self.inputs = inputs
        self.tiny = tiny

    def make_pass(self, seed: int, index: int, out: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, rc: int) -> Outcome:
        raise NotImplementedError


class AnalyzeLadder(Workload):
    name = "analyze-ladder"
    pass_seconds = 12.0

    def make_pass(self, seed: int, index: int, out: Path) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        ops = []
        # the degenerate draws alternate by pass, so every two passes hold
        # each kind once per rung
        degeneracy = "pair" if index % 2 == 0 else "triple"
        for n, d in ANALYZE_LADDER_TINY if self.tiny else ANALYZE_LADDER:
            for kind in ("uniform", "degenerate"):
                pts = _random_points(n, d, rng, degeneracy if kind == "degenerate" else None)
                path = self.inputs / f"analyze-p{index}-{n}-{d}-{kind}.json"
                _write_json(path, {"d": d, "points": pts.tolist()})
                ops.append(
                    Op(
                        argv=["analyze", "--config", str(path), "--out", str(out)],
                        out=out,
                        kind=f"analyze({n},{d}) {kind}",
                        info={"points": pts.tolist(), "d": d},
                    )
                )
        return ops

    def check(self, op: Op, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(False, {"op": op.kind, "exit": rc}, [f"exit code {rc}"])
        matroid = _read(op.out / "matroid.json")
        rc_json = _read(op.out / "radon_complex.json")
        report = _read(op.out / "sphere_report.json")
        circuits = _circuit_list(matroid)
        record = {
            "op": op.kind,
            "circuits": len(circuits),
            "circuit_set": digest(circuits),
            "vertices": len(rc_json["vertices"]),
            "edges": len(rc_json["edges"]),
            "cells": len(rc_json["facets"]),
            "sphere_ok": report["ok"],
            "graph_match": report["combinatorial_graph_matches"],
        }
        problems = []
        if not report["ok"]:
            problems.append(f"sphere report: {report['failures']}")
        if not report["combinatorial_graph_matches"]:
            problems.append("combinatorial graph differs from the geometric one")
        expected = exact_circuits(op.info["points"], op.info["d"])
        if circuits != expected:
            problems.append(
                f"circuits differ from the exact oracle ({len(circuits)} vs {len(expected)})"
            )
        return Outcome(not problems, record, problems)


class FlowRecover(Workload):
    name = "flow-recover"
    pass_seconds = 0.5

    def __init__(self, inputs: Path, tiny: bool = False) -> None:
        super().__init__(inputs, tiny)
        self.configs = {}
        for shape, points in (("pentagon", PENTAGON), ("hexagon", HEXAGON)):
            path = inputs / f"flow-{shape}.json"
            _write_json(
                path,
                {"points": points, "d": 2, "repetitions": 1, "delta": FLOW_DELTA, "scheme": "rk4"},
            )
            self.configs[shape] = path

    def make_pass(self, seed: int, index: int, out: Path) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        ops = []
        for shape in FLOW_PASS:
            path = self.configs[shape]
            rep_seed = _seed_int(rng)
            ops.append(
                Op(
                    argv=["flow", "--config", str(path), "--seed", str(rep_seed), "--out", str(out)],
                    out=out,
                    kind=f"flow {shape}",
                    info={"seed": rep_seed},
                )
            )
        return ops

    def check(self, op: Op, rc: int) -> Outcome:
        from radonflow.core import PointConfiguration, circuits_of_points

        if rc != 0:
            return Outcome(False, {"op": op.kind, "exit": rc}, [f"exit code {rc}"])
        (row,) = _read(op.out / "summary.json")["rows"]
        outcome = row["outcome"]
        category = "error" if outcome.startswith("error") else outcome
        record = {"op": op.kind, "seed": op.info["seed"], "outcome": category}
        problems = []
        converged = False
        if category == OUTCOME_CONVERGED:
            recovered = PointConfiguration.from_dict(
                _read(op.out / "rep_000_recovered_points.json")
            )
            matroid = circuits_of_points(recovered).to_dict()
            record["recovered_matroid"] = digest(_circuit_list(matroid))
            record["roundtrip_ok"] = row["roundtrip_ok"]
            if not row["roundtrip_ok"]:
                problems.append("converged flow did not round-trip its matroid")
            converged = bool(row["roundtrip_ok"])
        return Outcome(not problems, record, problems, converged)


class Census(Workload):
    name = "census"
    pass_seconds = 5.0

    def make_pass(self, seed: int, index: int, out: Path) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        ops = []
        for n, d in CENSUS_SHAPES_TINY if self.tiny else CENSUS_SHAPES:
            enum_seed = _seed_int(rng)
            ops.append(
                Op(
                    argv=["macphersonian", str(n), str(d), "--seed", str(enum_seed), "--out", str(out)],
                    out=out,
                    kind=f"census({n},{d})",
                    info={"shape": (n, d), "seed": enum_seed},
                )
            )
        return ops

    def check(self, op: Op, rc: int) -> Outcome:
        if rc != 0:
            return Outcome(False, {"op": op.kind, "exit": rc}, [f"exit code {rc}"])
        poset = _read(op.out / "poset.json")
        oc = _read(op.out / "order_complex.json")
        counts, betti = oc["simplex_counts"], oc["betti_gf2"]
        record = {
            "op": op.kind,
            "seed": op.info["seed"],
            "elements": poset["count"],
            "uniform": poset["uniform_count"],
            "simplices": counts,
            "betti": betti,
        }
        problems = []
        if not _alternating_sum(counts) == _alternating_sum(betti) == oc["euler_characteristic"]:
            problems.append("Euler characteristic disagrees with simplex counts or Betti numbers")
        known = CENSUS_KNOWN.get(tuple(op.info["shape"]))
        if known is not None:
            elements, known_betti = known
            if poset["count"] != elements:
                problems.append(f"{poset['count']} elements, expected {elements}")
            if known_betti is not None and betti != known_betti:
                problems.append(f"Betti numbers {betti}, expected {known_betti}")
        if tuple(op.info["shape"]) == (4, 2) and not _read(op.out / "m42_cells.json")["ok"]:
            problems.append("m42 cell structure check failed")
        return Outcome(not problems, record, problems)


WORKLOADS = {w.name: w for w in (AnalyzeLadder, FlowRecover, Census)}

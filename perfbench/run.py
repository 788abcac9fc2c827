#!/usr/bin/env python3
"""radonflow's benchmark: one workload per process, each op one CLI call.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 30 --trace 0

Each op is one in-process ``radonflow.cli.main(argv)`` call, issued by one
closed-loop client (the next op starts when the previous one returns).
The run executes a fixed op list made from --seed, sized so that it takes
about --seconds on the reference machine (see README.md), checks every op's
outputs, and prints each metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  A results file goes to perfbench/out/.
"""

from __future__ import annotations

import os

# every matrix is tiny; pin BLAS/OpenMP to one thread before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 5
# what the calibration kernel takes on the reference machine at its fastest;
# op times divided by (kernel time now / this) are in reference ms
REFERENCE_KERNEL_S = 0.005
# a run stops early once its ops have taken this many times --seconds, so a
# run on a very slow machine still ends in time; the results file says so
MAX_SLOWDOWN = 3
SPREAD_NOTE = (
    "Pass-to-pass spread on the reference machine (2 vCPUs, Intel Xeon) is "
    "CPU-side: a 20-op flow-recover pass took 2.64-3.84 s of wall time and "
    "CPU time tracked wall time, so it is not scheduler wait (compare cpu_s "
    "and wall_s of this run)."
)


def _load_package():
    """Import radonflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "radonflow" / "__init__.py").is_file():
        sys.exit(f"benchmark: no radonflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import radonflow

    if Path(radonflow.__file__).resolve().parent != (SRC / "radonflow").resolve():
        sys.exit(f"benchmark: imported radonflow from {radonflow.__file__}, not {SRC}")


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import radonflow.cli.

    This is what every CLI invocation pays before doing work, so work moved
    to import time shows here.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import radonflow.cli"], cwd=ROOT, env=env, check=True
        )
        times.append(time.perf_counter() - t0)
    return times


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "spread_note": SPREAD_NOTE,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With ten or fewer samples no such percentile exists; the maximum is
    reported at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def calibration_kernel() -> float:
    """Fixed work of the kind the ops do: small SVDs, dict and int loops.

    The host this benchmark runs on changes speed by tens of percent over
    seconds to minutes, and ops and this kernel slow down together.  Timing
    the kernel after every op gives the machine's speed during the run.
    """
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(150):
        total += float(np.linalg.svd(rng.standard_normal((8, 6)), compute_uv=False).sum())
        table = {i: (i * 7) % 13 for i in range(60)}
        total += sum(table.values())
    return total


class Runner:
    """Runs ops, checks their outputs, and keeps what the metrics need."""

    def __init__(self, workload, tracer=None) -> None:
        import radonflow.cli

        self.cli = radonflow.cli
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kernel_times: list[float] = []
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.failed = 0
        self.converged = 0
        self.bytes_written = 0

    def _call(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(argv)

    def run(self, op, op_id: int) -> dict:
        shutil.rmtree(op.out, ignore_errors=True)
        op.out.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rc = self._call(op.argv)
            else:
                rc = self.tracer.run_op(op_id, self._call, op.argv)
        except Exception:  # an op that crashes counts as failed; the run goes on
            rc = -1
            self.problems.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
        self.latencies.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        calibration_kernel()
        self.kernel_times.append(time.perf_counter() - t0)
        try:
            outcome = self.workload.check(op, rc)
        except (OSError, ValueError, KeyError) as exc:
            outcome = workloads.Outcome(
                False, {"op": op.kind, "exit": rc}, [f"unreadable outputs: {exc!r}"])
        self.bytes_written += sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file())
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(f"{op.kind}: {p}" for p in outcome.problems)
        self.converged += outcome.converged
        self.records.append(outcome.record)
        return outcome.record

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)


def end_to_end(runner: Runner, setup_times: list[float], flow: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and the extra figures that go with them.

    The timing metrics are given twice: as measured, and in reference
    units, divided by the machine's speed factor during the run (the median
    calibration-kernel time over REFERENCE_KERNEL_S).
    """
    lat_ms = [t * 1e3 for t in runner.latencies]
    speed = statistics.median(runner.kernel_times) / REFERENCE_KERNEL_S
    pct, tail_ms = tail(lat_ms)
    metrics = {
        "ops_per_ref_s": (runner.ops_per_s() * speed, "1/ref-s"),
        "op_p50_ref_ms": (statistics.median(lat_ms) / speed, "ref-ms"),
        "op_tail_ref_ms": (tail_ms / speed, "ref-ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (runner.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "speed_factor": (speed, "ratio"),
        "fail_frac": (runner.failed / runner.attempted, "fraction"),
    }
    if flow:
        metrics["converged_frac"] = (runner.converged / runner.attempted, "fraction")
    extra = {"op_tail_percentile": pct, "op_samples": len(lat_ms), "setup_samples_s": setup_times}
    return metrics, extra


def per_layer(tracer, traced: Runner, untraced: Runner) -> dict:
    """Per-layer metrics: times in ms per traced op, counts over the traced ops."""
    total, own = tracer.times_ms()
    ops = traced.attempted
    counts = tracer.counts

    def ms(span: str, table: dict = total) -> tuple[float, str]:
        return table.get(span, 0.0) / ops, "ms/op"

    def count(name: str) -> tuple[int, str]:
        return counts[name], "count"

    steps = counts["flow.steps"]
    outcomes = Counter(r["outcome"] for r in traced.records if "outcome" in r)
    metrics = {
        "core.check_circuit_axioms.ms": ms("core.check_circuit_axioms"),
        "complexes.combinatorial_circuit_graph.self_ms": ms("complexes.combinatorial_circuit_graph", own),
        "complexes.geometric_radon_complex.ms": ms("complexes.geometric_radon_complex"),
        "complexes.validate_sphere.ms": ms("complexes.validate_sphere"),
        "complexes.graphs_equal.ms": ms("complexes.graphs_equal"),
        "complexes.vertices": count("complexes.vertices"),
        "complexes.edges": count("complexes.edges"),
        "complexes.cells": count("complexes.cells"),
        "core.circuits_of_points.calls": count("core.circuits_of_points.calls"),
        "core.circuits_of_points.ms": ms("core.circuits_of_points"),
        "core.circuits": count("core.circuits"),
        "flow.integrate.ms": ms("flow.integrate"),
        "flow.steps": (steps, "count"),
        "flow.step_us": (total.get("flow.integrate", 0.0) * 1e3 / steps if steps else 0.0, "us"),
        "flow.perturbed.ms": ms("flow.perturbed"),
        "flow.recover_configuration.ms": ms("flow.recover_configuration"),
        "flow.curvature_decay_stats.ms": ms("flow.curvature_decay_stats"),
        **{f"flow.outcome.{o}": (outcomes[o], "count") for o in workloads.FLOW_OUTCOMES},
        "flow.roundtrip_ok": (sum(r.get("roundtrip_ok") is True for r in traced.records), "count"),
        "macphersonian.enumerate_acyclic_oms.self_ms": ms("macphersonian.enumerate_acyclic_oms", own),
        "macphersonian.elements": count("macphersonian.elements"),
        "macphersonian.from_elements.ms": ms("macphersonian.from_elements"),
        "macphersonian.weak_map_leq.calls": count("macphersonian.weak_map_leq.calls"),
        "macphersonian.hasse_pairs.ms": ms("macphersonian.hasse_pairs"),
        "macphersonian.order_complex.ms": ms("macphersonian.order_complex"),
        "macphersonian.simplices": count("macphersonian.simplices"),
        "macphersonian.gf2_betti.ms": ms("macphersonian.gf2_betti"),
        "macphersonian.boundary_cells": count("macphersonian.boundary_cells"),
        "macphersonian.cell_structure_m42.ms": ms("macphersonian.cell_structure_m42"),
        "ambient.project_to_gamma.calls": count("ambient.project_to_gamma.calls"),
        "cli.self_ms": ms("cli", own),
        "cli.bytes_written": (traced.bytes_written, "bytes"),
        "trace.overhead_ops_per_s": (untraced.ops_per_s() - traced.ops_per_s(), "1/s"),
    }
    return metrics


def reference_check(workload: str, seed: int, pass_prints: list[str]) -> bool | None:
    """Compare pass fingerprints with the recorded ones for this seed, if any."""
    path = BENCH / "fingerprints.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if not recorded:
        return None
    common = min(len(recorded), len(pass_prints))
    return recorded[:common] == pass_prints[:common]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="one pass of the smallest shapes (smoke test)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    suffix = "-tiny" if args.tiny else ""
    work = OUT / "work" / f"{args.workload}{suffix}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    setup_times = measure_setup()
    wl = workloads.WORKLOADS[args.workload](work / "inputs", tiny=args.tiny)
    passes = 1 if args.tiny else max(1, round(args.seconds / wl.pass_seconds))
    if args.trace:
        passes = max(1, passes // 2)  # each pass runs twice: untraced, then traced
    plan = [wl.make_pass(args.seed, p, work / "op") for p in range(passes)]

    warm = Runner(wl)  # lets lazy set-up inside numpy and the package finish
    warm.run(plan[0][0], -1)

    untraced = Runner(wl)
    traced = None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = Runner(wl, tracer)
    pass_prints = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    op_id = 0
    truncated = False
    for ops in plan:
        if sum(untraced.latencies) > MAX_SLOWDOWN * args.seconds:
            truncated = True
            break
        records = [untraced.run(op, op_id + k) for k, op in enumerate(ops)]
        pass_prints.append(workloads.digest(records))
        if tracer is not None:
            tracer.install()
            try:
                again = [traced.run(op, op_id + k) for k, op in enumerate(ops)]
            finally:
                tracer.uninstall()
            if again != records:
                untraced.problems.append("traced ops gave other outcomes than untraced ones")
                untraced.failed += 1
        op_id += len(ops)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    shutil.rmtree(work, ignore_errors=True)

    e2e, extra = end_to_end(untraced, setup_times, args.workload == "flow-recover")
    layers = per_layer(tracer, traced, untraced) if tracer is not None else {}
    matches = None if args.tiny else reference_check(args.workload, args.seed, pass_prints)
    problems = list(untraced.problems) + (traced.problems if traced else [])
    if matches is False:
        problems.append("outcomes differ from the fingerprint recorded for this seed; timings do not count")
    failed = untraced.failed + (traced.failed if traced else 0)
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    correct = failed == 0 and not problems

    fingerprint = workloads.digest(pass_prints)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "trace": args.trace,
        "passes": passes,
        "truncated": truncated,
        "ops_per_pass": len(plan[0]),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_extra": extra,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "fingerprint": fingerprint,
        "pass_fingerprints": pass_prints,
        "fingerprint_matches_record": matches,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "op_latencies_ms": [t * 1e3 for t in untraced.latencies],
        "outcomes": untraced.records,
        "problems": problems[:50],
        "environment": environment(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}{suffix}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(results, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{name}-spans.csv")

    shown = layers if args.trace else e2e
    for key, (value, unit) in {**e2e, **layers}.items():
        print(f"{key}: {value:.6g} {unit}")
    if truncated:
        print(f"stopped early: the ops took over {MAX_SLOWDOWN}x --seconds")
    print(f"op_tail_ms is p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} ops")
    print(f"fingerprint {fingerprint} (matches record: {matches}); cpu {cpu_s:.2f} s / wall {wall_s:.2f} s")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

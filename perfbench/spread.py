#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads census flow-recover --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
their distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs go one at a time, each in its own process.  The
summary, with every run's result line and pass fingerprints, is written to
perfbench/out/spread-<workload>.json.  With --record the pass fingerprints
are stored in perfbench/fingerprints.json, the reference that later runs
on the same seeds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, results


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--record", action="store_true", help="store pass fingerprints as the reference")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    prints_path = BENCH / "fingerprints.json"
    recorded = json.loads(prints_path.read_text()) if prints_path.is_file() else {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            line, results = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "line": line, "pass_fingerprints": results["pass_fingerprints"],
                         "fingerprint_matches_record": results["fingerprint_matches_record"],
                         "extra": results["end_to_end"] | results["end_to_end_extra"]})
            print(f"{workload} seed {seed}: correct={line['correct']} failed={line['failed']}/"
                  f"{line['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        summary = {"workload": workload, "seconds": spec["run_seconds"], "seeds": args.seeds, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["line"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                        "bound": bound, "values": values}
            print(f"  {name}: median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.3f} (bound {bound}, target < {bound / 3:.3f})")
        summary["runs"] = runs
        (BENCH / "out").mkdir(exist_ok=True)
        (BENCH / "out" / f"spread-{workload}.json").write_text(json.dumps(summary, indent=2) + "\n")
        if args.record:
            recorded.setdefault(workload, {}).update(
                {str(r["seed"]): r["pass_fingerprints"] for r in runs})
    if args.record:
        prints_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

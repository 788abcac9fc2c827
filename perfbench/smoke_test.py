#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 perfbench/smoke_test.py        (or: python -m pytest perfbench/smoke_test.py)

Each workload runs three times in its own process with --tiny (one pass of
its smallest shapes): twice untraced and once traced.  Every run must pass
its output checks and print every metric BENCHMARK.json names, with its
unit, and all three must give the same outcome fingerprint.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((BENCH / "out" / f"{workload}-tiny-seed3-trace{trace}.json").read_text())
    return line, results


def check_workload(workload: str) -> None:
    prints = []
    for trace in (0, 0, 1):
        line, results = tiny_run(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, results["problems"]
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            k: v["unit"] for k, v in line["metrics"].items()
        }
        computed = results["per_layer"] if trace else results["end_to_end"]
        for m in wanted:
            assert computed[m["name"]]["unit"] == m["unit"], m
        env = results["environment"]
        assert {"python", "numpy", "blas", "nproc", "cpu_model", "threads", "seed"} <= set(env)
        prints.append(results["fingerprint"])
    assert len(set(prints)) == 1, f"{workload}: fingerprints differ between runs: {prints}"


def test_analyze_ladder() -> None:
    check_workload("analyze-ladder")


def test_flow_recover() -> None:
    check_workload("flow-recover")


def test_census() -> None:
    check_workload("census")


if __name__ == "__main__":
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"smoke: {w['name']} ok")

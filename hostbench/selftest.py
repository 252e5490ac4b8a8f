#!/usr/bin/env python3
"""Fast-mode self-test of the hostbench benchmark.

usage: python3 hostbench/selftest.py      (from the repository root)

Runs run.py in fast mode on every workload and checks that:
  * an untraced run is correct and prints every end-to-end metric of
    BENCHMARK.json by name, with its unit, in its human lines and its
    result line;
  * a traced run prints every per-layer metric likewise and writes a
    well-formed span tree: every child lies inside its parent and no self
    time is negative;
  * an injected bad point (BFS on 3 nodes, not a power of two) is counted
    as failed and makes the run incorrect.
The untraced runs use seed 7 and the traced runs seed 12345. Exits 0 when
every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bfs_sweep", "fft_sweep", "serving_ladder")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    """Runs one fast benchmark run; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--fast", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, lines, result


def check_metrics(label, lines, result, specs):
    check(set(result) == RESULT_KEYS, f"{label}: result line has exactly {sorted(RESULT_KEYS)}")
    metrics = result.get("metrics", {})
    check(list(metrics) == [s["name"] for s in specs],
          f"{label}: metrics are those of BENCHMARK.json, in order")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = metrics.get(name, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
              f"{label}: {name} has a value in {unit}")
        check(any(line.split()[:1] == [name] and f" {unit} " in line for line in lines[:-1]),
              f"{label}: {name} printed with its unit")


def check_span_tree(label, path):
    try:
        spans = json.loads(path.read_text())["spans"]
    except (OSError, ValueError, KeyError):
        check(False, f"{label}: span tree {path.name} readable")
        return
    by_id = {(s["pass"], s["id"]): s for s in spans}
    problems = []
    for s in spans:
        if s["end_ns"] < s["start_ns"] or s["self_ns"] < 0:
            problems.append(f"{s['name']} has a negative duration or self time")
        if s["parent"] >= 0:
            parent = by_id.get((s["pass"], s["parent"]))
            if parent is None or not (parent["start_ns"] <= s["start_ns"]
                                      and s["end_ns"] <= parent["end_ns"]):
                problems.append(f"{s['name']} lies outside its parent")
    names = {s["name"] for s in spans}
    check(not problems and {"pass", "exp.plan", "apps.execute", "exp.report"} <= names,
          f"{label}: span tree well formed {problems[:3]}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        code, lines, result = run(workload, 7, 0)
        check(code == 0 and result.get("correct") is True and result.get("failed") == 0,
              f"{workload}: untraced smoke correct")
        check_metrics(f"{workload} trace 0", lines, result, spec["end_to_end"])

        code, lines, result = run(workload, 12345, 1)
        check(code == 0 and result.get("correct") is True, f"{workload}: traced smoke correct")
        check_metrics(f"{workload} trace 1", lines, result, spec["per_layer"])
        check_span_tree(workload, ROOT / ".bench_out" / f"trace_{workload}_seed12345.json")

    code, lines, result = run("bfs_sweep", 7, 0, "--nodes", "2,3")
    error_line = [line for line in lines if line.split()[:1] == ["error_rate"]]
    check(code == 0 and result.get("correct") is False and result.get("failed", 0) >= 3
          and bool(error_line) and float(error_line[0].split()[1]) > 0,
          "bad point (bfs on 3 nodes) counted in error_rate")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-time benchmark of whole figure passes of the DataVortex simulator.

usage: python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--fast] [--nodes A,B,...]

Run it from the repository root. It builds hostbench/ (which builds ../src)
into .bench_build, then measures one workload for about S seconds in rounds.
Each pass is a fresh hostbench_pass process:

  --trace 0  a round is eight plan-only set-up probes, a serial pass
             (--jobs 1) and a pass at the default --jobs. Prints the
             end-to-end metrics as medians over the rounds.
  --trace 1  a round is an untraced serial pass, an untraced --jobs pass and
             a traced serial pass with its layer probes. Prints the per-layer
             metrics as medians over the rounds, and writes the span tree to
             .bench_out/trace_<workload>_seed<N>.json.

Every pass is checked: no point may fail, every paper anchor must pass, and
every pass must produce the digest of the run's first serial pass.
Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. README.md has the details.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("bfs_sweep", "fft_sweep", "serving_ladder")
JOBS = min(4, os.cpu_count() or 1)  # dvx_bench's default, capped at 4 workers
PLAN_ONLY_PER_ROUND = 8  # plan-only processes per round, for setup_s

END_TO_END_UNITS = {
    "wall_s": "s",
    "jobs_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "exp.plan_s": "s",
    "exp.report_s": "s",
    "exp.jobs_speedup": "ratio",
    "apps.point_s": "s",
    "apps.max_point_s": "s",
    "apps.graph_build_s": "s",
    "kernels.fft_s": "s",
    "runtime.cluster_build_s": "s",
    "serve.arrivals_s": "s",
    "serve.admission.accepted": "count",
    "serve.admission.shed": "count",
    "sim.engine.events": "count",
    "sim.engine.queue_depth": "count",
    "sim.self_s": "s",
    "sim.self_ns_per_event": "ns",
    "vic.fifo.deposits": "count",
    "vic.fifo.depth": "count",
    "vic.dma.transactions": "count",
    "vic.dma.bytes": "B",
    "sim.self_ns_per_packet": "ns",
    "dv.fabric.bursts": "count",
    "dv.fabric.words": "count",
    "dv.fabric.inject_wait_ps": "ps",
    "mpi.msgs": "count",
    "torus.msgs": "count",
    "sim.sharded_over_serial": "ratio",
    "trace.overhead_s": "s",
}

# obs counters summed over a pass's points, and gauges reduced to their peak.
SUMMED_COUNTERS = (
    "serve.admission.accepted", "serve.admission.shed", "sim.engine.events",
    "vic.fifo.deposits", "vic.dma.transactions", "vic.dma.bytes",
    "dv.fabric.bursts", "dv.fabric.words", "dv.fabric.inject_wait_ps",
    "mpi.msgs", "torus.msgs",
)
PEAK_GAUGES = ("sim.engine.queue_depth", "vic.fifo.depth")
# Probe spans subtracted from a point's time to leave the simulation's own.
POINT_SETUP_PROBES = (
    "apps.graph_build_s", "kernels.fft_s", "runtime.cluster_build_s", "serve.arrivals_s",
)


class BuildFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hostbench_pass; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BuildFailed(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hostbench_pass",
                  "-j", str(JOBS)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildFailed(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return BUILD / "hostbench_pass"


class Bench:
    def __init__(self, binary, args):
        self.binary = binary
        self.args = args
        self.base = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.fast:
            self.base.append("--fast")
        if args.nodes:
            self.base += ["--nodes", args.nodes]
        self.points = None  # the plan's point count, from the first probe
        self.reference = None  # digest of the run's first serial pass
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.problems = []

    def spawn(self, *extra):
        """Runs one pass process. Returns its document, with wall_s and
        setup_s measured from just before the spawn, or None if it died."""
        start = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock in the pass
        proc = subprocess.run([str(self.binary), *self.base, *extra], cwd=ROOT,
                              capture_output=True, text=True)
        end = time.monotonic_ns()
        if proc.returncode != 0:
            self.problems.append(f"pass {' '.join(extra)} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
            return None
        doc = json.loads(proc.stdout)
        doc["wall_s"] = (end - start) * 1e-9
        doc["setup_s"] = (doc["first_point_ns"] - start) * 1e-9
        return doc

    def setup_probe(self):
        doc = self.spawn("--plan-only")
        if doc is not None and self.points is None:
            self.points = doc["point_count"]
        return doc

    def measured_pass(self, jobs, traced=False):
        """Runs and checks one full pass; counts its operations."""
        extra = ["--jobs", str(jobs)] + (["--trace"] if traced else [])
        doc = self.spawn(*extra)
        self.passes += 1
        if doc is None:
            self.attempted += self.points or 1
            self.failed += self.points or 1
            return None
        points = doc["points"]
        bad_points = sum(1 for p in points if p["error"])
        self.attempted += len(points) + doc["anchors"]
        if doc["plan_error"] or doc["report_error"]:
            self.problems.append(f"plan/report error: {doc['plan_error']}{doc['report_error']}")
            self.attempted += 1
            self.failed += 1
        for p in points:
            if p["error"]:
                self.problems.append(f"point {p['backend']} {p['nodes']} {p['variant']}: "
                                     f"{p['error']}")
        for name in doc["failed_anchors"]:
            self.problems.append(f"anchor failed: {name}")
        if self.reference is None:
            self.reference = doc["digest"]
        if doc["digest"] != self.reference:
            self.problems.append(f"digest {doc['digest']} != first pass {self.reference} "
                                 f"(jobs {jobs}, traced {traced})")
            bad_points = len(points)
        self.failed += bad_points + len(doc["failed_anchors"])
        sharded = doc.get("probes", {}).get("sharded", {})
        if sharded and not sharded["identical"]:
            self.problems.append("engine threads 2 and 1 gave different records")
            self.attempted += 1
            self.failed += 1
        return doc


def point_seconds(p):
    return (p["end_ns"] - p["start_ns"]) * 1e-9


def pass_seconds(doc):
    return (doc["pass_end_ns"] - doc["pass_start_ns"]) * 1e-9


def end_to_end_round(bench, samples):
    for _ in range(PLAN_ONLY_PER_ROUND):
        doc = bench.setup_probe()
        if doc is not None:
            samples["setup_s"].append(doc["setup_s"])
    serial = bench.measured_pass(1)
    jobs = bench.measured_pass(JOBS)
    if serial is not None:
        samples["wall_s"].append(serial["wall_s"])
        samples["setup_s"].append(serial["setup_s"])
        samples["peak_rss_mb"].append(serial["peak_rss_kb"] / 1024.0)
    if jobs is not None:
        samples["jobs_wall_s"].append(jobs["wall_s"])


def layer_metrics(traced, serial, jobs):
    """The per-layer metrics of one traced round (see README.md)."""
    points = traced["points"]
    probes = traced["probes"]["per_point"]
    spans = traced["spans"]
    m = {}

    def span_total(name):
        return sum((s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans if s["name"] == name)

    m["exp.plan_s"] = span_total("exp.plan")
    m["exp.report_s"] = span_total("exp.report")
    m["exp.jobs_speedup"] = serial["wall_s"] / jobs["wall_s"]
    m["apps.point_s"] = sum(map(point_seconds, points))
    m["apps.max_point_s"] = max(map(point_seconds, serial["points"]), default=0.0)
    for name in POINT_SETUP_PROBES:
        m[name] = sum(probe.get(name, 0.0) for probe in probes)
    for name in SUMMED_COUNTERS:
        m[name] = sum(p["metrics"].get(name, 0.0) for p in points)
    for name in PEAK_GAUGES:
        m[name] = max((p["metrics"].get(name, 0.0) for p in points), default=0.0)
    m["sim.self_s"] = sum(
        point_seconds(p) - sum(probe.get(name, 0.0) for name in POINT_SETUP_PROBES)
        for p, probe in zip(points, probes))
    events = m["sim.engine.events"]
    packets = m["vic.fifo.deposits"] + m["vic.dma.transactions"] + m["mpi.msgs"]
    m["sim.self_ns_per_event"] = m["sim.self_s"] * 1e9 / events if events else 0.0
    m["sim.self_ns_per_packet"] = m["sim.self_s"] * 1e9 / packets if packets else 0.0
    sharded = traced["probes"]["sharded"]
    m["sim.sharded_over_serial"] = (sharded["threads2_s"] / sharded["threads1_s"]
                                    if sharded else 0.0)
    m["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(serial)
    return m


def span_tree(doc, pass_id):
    """The traced pass's spans with their self time: duration minus the
    durations of their direct children."""
    spans = [dict(s, **{"pass": pass_id}) for s in doc["spans"]]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, child_ns):
        s["self_ns"] = s["end_ns"] - s["start_ns"] - c
    return spans


def layer_round(bench, rounds, trees, index):
    serial = bench.measured_pass(1)
    jobs = bench.measured_pass(JOBS)
    traced = bench.measured_pass(1, traced=True)
    if serial is None or jobs is None or traced is None:
        return
    rounds.append(layer_metrics(traced, serial, jobs))
    trees.extend(span_tree(traced, f"{bench.args.workload}-seed{bench.args.seed}-r{index}"))


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="shrink problem sizes (self-test smoke runs)")
    parser.add_argument("--nodes", help="override the node sweep, e.g. 2,3 "
                                        "(the self-test injects a bad point this way)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        binary = build()
    except BuildFailed as e:
        log(f"hostbench: build failed: {e}")
        return 1

    bench = Bench(binary, args)
    bench.setup_probe()
    start = time.monotonic()
    samples = {name: [] for name in END_TO_END_UNITS}
    rounds, trees = [], []
    started = 0
    while True:
        if args.trace:
            layer_round(bench, rounds, trees, started)
        else:
            end_to_end_round(bench, samples)
        started += 1
        # No round starts that would, at the mean round time so far, end
        # past the budget.
        elapsed = time.monotonic() - start
        if elapsed + elapsed / started > args.seconds or bench.problems:
            break
    elapsed = time.monotonic() - start

    print(f"hostbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{bench.passes} passes in {elapsed:.1f} s")
    if args.trace:
        names = PER_LAYER_UNITS
        values = {n: median([r[n] for r in rounds]) for n in names}
        counts = {n: len(rounds) for n in names}
    else:
        names = END_TO_END_UNITS
        values = {n: median(samples[n]) for n in names}
        counts = {n: len(samples[n]) for n in names}
    for n, unit in names.items():
        print(f"  {n:26s} {values[n]:14.6f} {unit:6s} median of {counts[n]}")
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'error_rate':26s} {error_rate:14.6f} {'ratio':6s} "
          f"{bench.failed} failed / {bench.attempted} attempted")
    print(f"  {'sim_digest':26s} {bench.reference or '-'}")
    if args.trace and rounds:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"spans": trees, "metrics": values}, indent=1) + "\n")
        print(f"  span tree: {path.relative_to(ROOT)}")
        shares = {"bfs_sweep": "apps.graph_build_s", "fft_sweep": "kernels.fft_s"}
        if args.workload in shares and values["apps.point_s"] > 0:
            share = values[shares[args.workload]] / values["apps.point_s"]
            print(f"  prediction: {shares[args.workload]} / apps.point_s = {share:.3f} "
                  f">= 1/3: {'holds' if share >= 1 / 3 else 'fails'}")
        if args.workload == "fft_sweep":  # a zero sum of counts: zero on every point
            print(f"  prediction: vic.fifo.deposits is 0 on every point: "
                  f"{'holds' if values['vic.fifo.deposits'] == 0 else 'fails'}")
    for problem in bench.problems:
        log(f"hostbench: {problem}")

    correct = bench.failed == 0 and not bench.problems and bool(bench.reference)
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

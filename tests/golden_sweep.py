#!/usr/bin/env python3
"""Golden sweep: the full-size three-way dvx_bench --all, byte for byte.

Regenerates

    dvx_bench --all --backends dv,mpi-ib,mpi-torus --no-figure-json \
        --json bench_full_3way.json

at full size in a temporary directory, which is also its working directory.
It compares the JSON byte for byte with the committed golden
(tests/golden/bench_full_3way.json), and the printed tables, the stdout,
with tests/golden/bench_full_3way.txt. The JSON path is relative, so the
stdout's last line names no temporary path. On a JSON difference it prints
every moved metric and anchor; on a table difference, a unified diff. Any
difference fails.

Results pass through libm (std::cos, std::log, std::exp, ...), whose last
bits glibc does not promise across versions, and through the compiler. The
golden is therefore pinned to the toolchain that made it. On any other
compiler or glibc the test exits with SKIP_CODE, which ctest reports as
skipped, and names both toolchains.

    python3 tests/golden_sweep.py --bench build/bench/dvx_bench \
        --golden tests/golden/bench_full_3way.json \
        --golden-text tests/golden/bench_full_3way.txt --compiler "GNU 12.2.0"

To regenerate both goldens after an intended change, run the same sweep
from a scratch directory (the sweep also writes fig5's trace CSV to its
working directory), then copy its two outputs over the goldens:

    cd "$(mktemp -d)" && REPO/build/bench/dvx_bench \
        --all --backends dv,mpi-ib,mpi-torus --no-figure-json \
        --json bench_full_3way.json > bench_full_3way.txt \
      && cp bench_full_3way.json bench_full_3way.txt REPO/tests/golden/
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

SKIP_CODE = 77
PINNED_COMPILER = ("GNU", "12.2")
PINNED_GLIBC = "2.36"
JSON_NAME = "bench_full_3way.json"
BENCH_ARGS = ["--all", "--backends", "dv,mpi-ib,mpi-torus", "--no-figure-json",
              "--json", JSON_NAME]


def glibc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").split()[-1]
    except (AttributeError, ValueError, OSError, IndexError):
        return "none"


def toolchain_matches(compiler, glibc):
    parts = compiler.split()
    if len(parts) != 2:
        return False
    compiler_id, version = parts
    major_minor = ".".join(version.split(".")[:2])
    return (compiler_id, major_minor) == PINNED_COMPILER and glibc == PINNED_GLIBC


def record_key(r):
    # A few figures sweep a parameter inside one (variant, nodes) point, so
    # the config is part of the key.
    config = ",".join(f"{k}={v:g}" for k, v in sorted(r.get("config", {}).items()))
    return (r["figure"], r.get("workload", ""), r["backend"], r.get("variant", ""),
            r["nodes"], config)


def moved_metrics(old_doc, new_doc):
    """Lines naming each metric and anchor that differs between the docs."""
    lines = []
    old_records = {record_key(r): r for r in old_doc.get("records", [])}
    new_records = {record_key(r): r for r in new_doc.get("records", [])}
    for key in sorted(old_records.keys() | new_records.keys()):
        figure, workload, backend, variant, nodes, config = key
        where = (f"{figure} {workload} backend={backend} "
                 f"variant={variant or '-'} nodes={nodes} [{config}]")
        if key not in new_records:
            lines.append(f"{where}: record missing")
            continue
        if key not in old_records:
            lines.append(f"{where}: new record")
            continue
        old_m = old_records[key]["metrics"]
        new_m = new_records[key]["metrics"]
        for name in sorted(old_m.keys() | new_m.keys()):
            a, b = old_m.get(name), new_m.get(name)
            if a != b:
                lines.append(f"{where} {name}: {a} -> {b}")
    old_anchors = {(a["figure"], a["name"]): a for a in old_doc.get("anchors", [])}
    new_anchors = {(a["figure"], a["name"]): a for a in new_doc.get("anchors", [])}
    for key in sorted(old_anchors.keys() | new_anchors.keys()):
        a, b = old_anchors.get(key, {}), new_anchors.get(key, {})
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                lines.append(f"anchor {key[0]} {key[1]} {field}: "
                             f"{a.get(field)} -> {b.get(field)}")
    return lines


def json_differences(golden_path, new_bytes):
    """Lines naming what moved in the JSON; empty when it matches."""
    with open(golden_path, "rb") as f:
        old_bytes = f.read()
    if new_bytes == old_bytes:
        return []
    lines = moved_metrics(json.loads(old_bytes), json.loads(new_bytes))
    return lines or ["(no metric or anchor moved; the bytes differ elsewhere)"]


def table_differences(golden_path, new_bytes):
    """A unified diff of the printed tables; empty when they match."""
    with open(golden_path, "rb") as f:
        old_bytes = f.read()
    if new_bytes == old_bytes:
        return []
    lines = list(difflib.unified_diff(
        old_bytes.decode("utf-8", "replace").splitlines(),
        new_bytes.decode("utf-8", "replace").splitlines(),
        fromfile=golden_path, tofile="dvx_bench stdout", lineterm=""))
    return lines or ["(the lines match; the bytes differ, e.g. in line endings)"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, help="path to dvx_bench")
    ap.add_argument("--golden", required=True, help="committed golden JSON")
    ap.add_argument("--golden-text", required=True,
                    help="committed golden stdout (the printed tables)")
    ap.add_argument("--compiler", required=True,
                    help='compiler id and version of the build, e.g. "GNU 12.2.0"')
    args = ap.parse_args()

    glibc = glibc_version()
    if not toolchain_matches(args.compiler, glibc):
        print(f"golden sweep skipped: the golden is pinned to "
              f"{' '.join(PINNED_COMPILER)} with glibc {PINNED_GLIBC}; "
              f"this build uses {args.compiler} with glibc {glibc}")
        return SKIP_CODE

    with tempfile.TemporaryDirectory(prefix="dvx_golden_") as tmp:
        proc = subprocess.run([os.path.abspath(args.bench), *BENCH_ARGS],
                              cwd=tmp, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            print(f"dvx_bench exited {proc.returncode}")
            return 1
        with open(os.path.join(tmp, JSON_NAME), "rb") as f:
            new_json = f.read()

    failed = False
    moved = json_differences(args.golden, new_json)
    if moved:
        failed = True
        print(f"golden sweep differs from {args.golden}: {len(moved)} moved")
        for line in moved:
            print("  " + line)
    diff = table_differences(args.golden_text, proc.stdout)
    if diff:
        failed = True
        print(f"printed tables differ from {args.golden_text}:")
        for line in diff:
            print(line)
    if failed:
        print("If the change is intended, regenerate the goldens (see this "
              "script's docstring) and say why in the change.")
        return 1
    print(f"golden sweep matches {args.golden} and {args.golden_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""EXPERIMENTS.md's measured Fig 7 and Fig 8 numbers against the golden sweep.

The "Measured (GFLOPS):" paragraph of Fig 7 and the "Measured (MTEPS):"
paragraph of Fig 8 print the Data Vortex and InfiniBand series, one number
per node count of the golden, and the DV/IB ratio at the first and last node
count. Every printed number must equal the golden's value
(tests/golden/bench_full_3way.json) rounded to the places it is printed
with, so a change that moves one of them fails here until the text follows.

    python3 tests/experiments_numbers.py --experiments EXPERIMENTS.md \
        --golden tests/golden/bench_full_3way.json
"""

import argparse
import json
import re
import sys

# figure -> (the paragraph's opening words, golden metric, printed unit in
# metric units)
CHECKED = {
    "fig7": ("Measured (GFLOPS):", "gflops", 1.0),
    "fig8": ("Measured (MTEPS):", "harmonic_mean_teps", 1e6),
}
NUMBER = r"\d+(?:\.\d+)?"
SERIES = rf"{NUMBER}(?: / {NUMBER})*"


def paragraph(text, opening):
    """The paragraph that starts with `opening`, its lines joined."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(opening):
            par = []
            for rest in lines[i:]:
                if not rest.strip():
                    break
                par.append(rest.strip())
            return " ".join(par)
    return None


def rounded(value, printed):
    """`value` with as many decimals as the printed number has."""
    places = len(printed.split(".")[1]) if "." in printed else 0
    return f"{value:.{places}f}"


def check(figure, text, golden):
    opening, metric, unit = CHECKED[figure]
    par = paragraph(text, opening)
    if par is None:
        return [f"{figure}: no paragraph starts with '{opening}'"]
    series = {}
    for backend in ("dv", "mpi"):
        by_nodes = {r["nodes"]: r["metrics"][metric] / unit
                    for r in golden["records"]
                    if r["figure"] == figure and r["backend"] == backend}
        series[backend] = [by_nodes[n] for n in sorted(by_nodes)]
    nodes = sorted({r["nodes"] for r in golden["records"] if r["figure"] == figure})

    errors = []
    for label, backend in (("DV", "dv"), ("IB", "mpi")):
        found = re.search(rf"\b{label} ({SERIES})", par)
        if found is None:
            errors.append(f"{figure}: no {label} series in '{par}'")
            continue
        printed = found.group(1).split(" / ")
        if len(printed) != len(series[backend]):
            errors.append(f"{figure} {label}: {len(printed)} numbers printed, "
                          f"{len(series[backend])} node counts in the golden")
            continue
        for n, text_value, value in zip(nodes, printed, series[backend]):
            if rounded(value, text_value) != text_value:
                errors.append(f"{figure} {label} at {n} nodes: printed {text_value}, "
                              f"golden {value:.6g} ({rounded(value, text_value)})")
    found = re.search(rf"at ({NUMBER}(?:/{NUMBER})*) nodes", par)
    if found is not None and [int(n) for n in found.group(1).split("/")] != nodes:
        errors.append(f"{figure}: printed node counts {found.group(1)}, golden {nodes}")
    found = re.search(rf"DV/IB ({NUMBER}) → \**({NUMBER})", par)
    if found is None:
        errors.append(f"{figure}: no 'DV/IB first → last' ratio in '{par}'")
    elif series["dv"] and series["mpi"]:
        ends = (series["dv"][0] / series["mpi"][0], series["dv"][-1] / series["mpi"][-1])
        for which, text_value, value in zip(("first", "last"), found.groups(), ends):
            if rounded(value, text_value) != text_value:
                errors.append(f"{figure} DV/IB at the {which} node count: printed "
                              f"{text_value}, golden {value:.6g} "
                              f"({rounded(value, text_value)})")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experiments", required=True, help="EXPERIMENTS.md")
    ap.add_argument("--golden", required=True, help="the committed golden sweep")
    args = ap.parse_args()
    with open(args.experiments, encoding="utf-8") as f:
        text = f.read()
    with open(args.golden, encoding="utf-8") as f:
        golden = json.load(f)
    errors = [e for figure in CHECKED for e in check(figure, text, golden)]
    for e in errors:
        print(e)
    if errors:
        print(f"experiments_numbers: {len(errors)} printed number(s) differ from the golden")
        return 1
    print("experiments_numbers: the Fig 7 and Fig 8 measured lines match the golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())

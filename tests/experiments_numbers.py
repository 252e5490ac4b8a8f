#!/usr/bin/env python3
"""EXPERIMENTS.md's measured Fig 4, 6, 7, 8 and 9 numbers against the golden.

- Fig 4: the "Measured (µs):" line, first → last node count for DV,
  FastBarrier and MPI, with DV's growth in percent and MPI's as a factor.
- Fig 6: the measured table's DV and IB MUPS/PE and aggregate DV/IB at
  each node count.
- Fig 7 and Fig 8: the "Measured (GFLOPS):" and "Measured (MTEPS):"
  paragraphs print the Data Vortex and InfiniBand series, one number per
  node count of the golden, and the DV/IB ratio at the first and last node
  count.
- Fig 9: the measured table's DV and MPI µs and the speedups.

Every printed number must equal the golden's value
(tests/golden/bench_full_3way.json) rounded to the places it is printed
with, so a change that moves one of them fails here until the text follows.
Fig 3's table is checked by hand: its cells carry bold and percentage
annotations.

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


def section_tables(text, heading):
    """The markdown table rows of the section whose heading starts with
    `heading`, each as its list of cells with bold marks and units removed."""
    rows = []
    inside = False
    for line in text.splitlines():
        if line.startswith("## "):
            inside = line.startswith(heading)
            continue
        if inside and line.startswith("|") and not line.startswith("|---"):
            cells = [c.strip().replace("**", "").replace(" µs", "").rstrip("×")
                     for c in line.strip().strip("|").split("|")]
            rows.append(cells)
    return rows[1:]  # without the header row


def metric(golden, figure, backend, name, variant=""):
    """{nodes: value} of one series of the golden."""
    return {r["nodes"]: r["metrics"][name] for r in golden["records"]
            if r["figure"] == figure and r["backend"] == backend
            and r.get("variant", "") == variant}


def expect(errors, what, printed, value):
    if rounded(value, printed) != printed:
        errors.append(f"{what}: printed {printed}, golden {value:.6g} "
                      f"({rounded(value, printed)})")


def check_fig4(text, golden):
    par = paragraph(text, "Measured (µs):")
    if par is None:
        return ["fig4: no paragraph starts with 'Measured (µs):'"]
    series = {"DV": metric(golden, "fig4", "dv", "latency_us", "intrinsic"),
              "FastBarrier": metric(golden, "fig4", "dv", "latency_us", "fast_barrier"),
              "MPI": metric(golden, "fig4", "mpi", "latency_us")}
    errors = []
    for label, by_nodes in series.items():
        found = re.search(rf"\b{label} ({NUMBER}) → ({NUMBER})", par)
        if found is None:
            errors.append(f"fig4: no '{label} first → last' in '{par}'")
            continue
        first, last = by_nodes[min(by_nodes)], by_nodes[max(by_nodes)]
        expect(errors, f"fig4 {label} at {min(by_nodes)} nodes", found.group(1), first)
        expect(errors, f"fig4 {label} at {max(by_nodes)} nodes", found.group(2), last)
    dv, mpi = series["DV"], series["MPI"]
    found = re.search(rf"\((\d+) → (\d+) nodes, \+({NUMBER})%\)", par)
    if found is None:
        errors.append(f"fig4: no '(first → last nodes, +N%)' in '{par}'")
    else:
        if [int(found.group(1)), int(found.group(2))] != [min(dv), max(dv)]:
            errors.append(f"fig4: printed nodes {found.group(1)} → {found.group(2)}, "
                          f"golden {min(dv)} → {max(dv)}")
        expect(errors, "fig4 DV growth (%)", found.group(3),
               100 * (dv[max(dv)] / dv[min(dv)] - 1))
    found = re.search(rf"MPI {NUMBER} → {NUMBER} \(({NUMBER})×\)", par)
    if found is None:
        errors.append(f"fig4: no 'MPI first → last (N×)' in '{par}'")
    else:
        expect(errors, "fig4 MPI growth (×)", found.group(1), mpi[max(mpi)] / mpi[min(mpi)])
    return errors


def check_fig6(text, golden):
    rows = section_tables(text, "## Figure 6")
    dv = metric(golden, "fig6", "dv", "mups_per_pe")
    ib = metric(golden, "fig6", "mpi", "mups_per_pe")
    ratio = metric(golden, "fig6", "derived", "dv_ib_ratio")
    if sorted(int(r[0]) for r in rows) != sorted(dv):
        return [f"fig6: the table's node counts {[r[0] for r in rows]}, golden {sorted(dv)}"]
    errors = []
    for nodes, dv_text, ib_text, ratio_text in rows:
        n = int(nodes)
        expect(errors, f"fig6 DV MUPS/PE at {n} nodes", dv_text, dv[n])
        expect(errors, f"fig6 IB MUPS/PE at {n} nodes", ib_text, ib[n])
        expect(errors, f"fig6 aggregate DV/IB at {n} nodes", ratio_text, ratio[n])
    return errors


def check_fig9(text, golden):
    found = re.search(r"^Measured at (\d+) nodes:", text, re.MULTILINE)
    if found is None:
        return ["fig9: no line 'Measured at N nodes:'"]
    n = int(found.group(1))
    errors = []
    rows = section_tables(text, "## Figure 9")
    if sorted(r[0].lower() for r in rows) != ["heat", "snap", "vorticity"]:
        return [f"fig9: the table's applications {[r[0] for r in rows]}"]
    for app, dv_text, mpi_text, speedup_text, _paper in rows:
        app = app.lower()
        for label, backend, printed in (("DV", "dv", dv_text), ("MPI", "mpi", mpi_text)):
            seconds = metric(golden, "fig9", backend, "roi_seconds", app)
            if n not in seconds:
                errors.append(f"fig9 {app}: no {backend} record at {n} nodes")
                continue
            expect(errors, f"fig9 {app} {label} µs", printed, seconds[n] * 1e6)
        speedup = metric(golden, "fig9", "derived", "speedup", app)
        if n in speedup:
            expect(errors, f"fig9 {app} speedup", speedup_text, speedup[n])
    return errors


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
    errors = check_fig4(text, golden) + check_fig6(text, golden)
    errors += [e for figure in CHECKED for e in check(figure, text, golden)]
    errors += check_fig9(text, golden)
    for e in errors:
        print(e)
    if errors:
        print(f"experiments_numbers: {len(errors)} printed number(s) differ from the golden")
        return 1
    print("experiments_numbers: the Fig 4, 6, 7, 8 and 9 measured numbers match the golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())

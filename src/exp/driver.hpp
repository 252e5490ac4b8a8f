#pragma once
// The unified benchmark driver behind the `dvx_bench` binary. One command
// reproduces any paper figure:
//
//   dvx_bench --list
//   dvx_bench --figure fig6 --nodes 4,8,16,32 --fast --json out.json
//   dvx_bench --all --jobs 8
//
// Every run prints the legacy tables and writes one machine-readable
// `BENCH_<figure>.json` per figure (schema in DESIGN.md §6); `--json PATH`
// additionally writes the combined document. Measurement points run on a
// PointScheduler thread pool (`--jobs N`, default hardware_concurrency);
// output is byte-identical at any parallelism.

#include <functional>
#include <string>
#include <vector>

#include "exp/workload.hpp"

namespace dvx::exp {

/// Full CLI entry point; argv[0] is ignored. Returns a process exit code
/// (0 = success, 1 = a figure failed to run, 2 = usage error).
int run_cli(int argc, const char* const* argv);

/// Embedding/testing entry point, also the core of run_cli: plans every
/// workload, executes all points on a `jobs`-wide PointScheduler, then
/// reports each figure in selection order into `sink` (canonical plan-order
/// records, so output does not depend on `jobs`). A point that throws fails
/// only its own figure: its error is printed to std::cerr after all points
/// ran, sibling figures still report. `per_figure`, when set, is invoked
/// after each figure's report (ok == false for a failed figure) — the CLI
/// uses it to write the per-figure BENCH_*.json files. Returns the number
/// of failed figures.
int run_workloads(const std::vector<const Workload*>& workloads,
                  const RunOptions& opt, int jobs, runtime::ResultSink& sink,
                  const std::function<void(const Workload&, bool ok)>& per_figure = {});

}  // namespace dvx::exp

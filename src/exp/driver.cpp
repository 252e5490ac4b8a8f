#include "exp/driver.hpp"

#include <charconv>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string_view>

#include "exp/scheduler.hpp"
#include "exp/workload.hpp"

namespace dvx::exp {
namespace {

void print_usage(std::ostream& os) {
  os << "dvx_bench — unified driver for every paper-figure reproduction\n"
        "\n"
        "usage:\n"
        "  dvx_bench --list                      describe the registered workloads\n"
        "  dvx_bench --figure fig6[,fig7,...]    run specific figures (tag or name)\n"
        "  dvx_bench --all                       run every registered workload\n"
        "\n"
        "options:\n"
        "  --nodes 4,8,16,32    override the node sweep (figures with a sweep)\n"
        "  --backends LIST      restrict figures to these comma-separated network\n"
        "                       backends: dv, mpi-ib (alias mpi), mpi-torus.\n"
        "                       Default: each figure's paper pairing (dv + mpi-ib;\n"
        "                       the torus only runs when asked for)\n"
        "  --fast               shrink problem sizes (same as DVX_BENCH_FAST=1)\n"
        "  --seed N             root RNG seed; each measurement point derives its\n"
        "                       own SplitMix64 sub-seed from it (0 = workload defaults)\n"
        "  --jobs N             run measurement points on N threads (default: the\n"
        "                       DVX_BENCH_JOBS env var, else hardware concurrency;\n"
        "                       results are identical at any N, --jobs 1 = serial)\n"
        "  --json PATH          also write the combined JSON document to PATH\n"
        "  --no-figure-json     skip the per-figure BENCH_<figure>.json files\n"
        "  --metrics-out DIR    collect obs metrics per measurement point and write\n"
        "                       METRICS_<figure>_p<N>.json (schema dvx-metrics/v1)\n"
        "                       into DIR (created if missing)\n"
        "  --trace-out DIR      record per-point execution traces and write\n"
        "                       TRACE_<figure>_p<N>.json (Chrome trace format,\n"
        "                       loadable in Perfetto) into DIR (created if missing)\n"
        "  --help               this text\n"
        "\n"
        "Every run prints the paper-figure tables and, unless suppressed, writes\n"
        "one BENCH_<figure>.json per figure (schema: DESIGN.md §6).\n";
}

/// Strict decimal parse of the whole string: rejects empty input, trailing
/// garbage ("8x"), and — via the unsigned overload — negative values ("-1").
template <typename Int>
bool parse_number(std::string_view s, Int& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size() && !s.empty();
}

/// Splits on commas. Returns false (leaving a message in `err`) when a field
/// is empty ("4,,8", ",4", "4,"), which previously was silently dropped.
bool split_csv(std::string_view s, std::vector<std::string>& out, std::string& err) {
  std::string cur;
  std::size_t fields = 0;
  for (std::size_t i = 0;; ++i) {
    if (i == s.size() || s[i] == ',') {
      if (cur.empty()) {
        err = "empty field " + std::to_string(fields + 1);
        return false;
      }
      out.push_back(std::move(cur));
      cur.clear();
      ++fields;
      if (i == s.size()) return true;
    } else {
      cur.push_back(s[i]);
    }
  }
}

void print_list(std::ostream& os) {
  runtime::Table t("registered workloads", {"figure", "name", "default nodes", "metrics"});
  for (const auto* w : Registry::instance().all()) {
    std::ostringstream nodes;
    const auto ns = w->default_nodes(false);
    for (std::size_t i = 0; i < ns.size(); ++i) nodes << (i ? "," : "") << ns[i];
    std::ostringstream metrics;
    const auto ms = w->metric_specs();
    for (std::size_t i = 0; i < ms.size(); ++i) metrics << (i ? "," : "") << ms[i].key;
    t.row({w->figure(), w->name(), nodes.str(), metrics.str()});
  }
  t.print(os);
  os << "\nparameters (full / fast defaults):\n";
  for (const auto* w : Registry::instance().all()) {
    os << "  " << w->figure() << " (" << w->name() << "):\n";
    for (const auto& p : w->param_specs()) {
      os << "    " << p.key << " = " << p.full_value << " / " << p.fast_value << "  — "
         << p.description << "\n";
    }
  }
}

struct CliOptions {
  bool list = false;
  bool all = false;
  bool help = false;
  std::vector<std::string> figures;
  RunOptions run;
  int jobs = 0;  ///< 0 = PointScheduler::default_jobs()
  std::string json_path;
  bool figure_json = true;
};

/// Returns true when every argument parsed cleanly; on failure prints the
/// problem and returns false. Never returns early: `--help --bogus` still
/// reports the bogus flag instead of silently accepting it.
bool parse_args(int argc, const char* const* argv, CliOptions& opt, std::ostream& err) {
  bool ok = true;
  auto need_value = [&](int& i, std::string_view flag) -> const char* {
    if (i + 1 >= argc) {
      err << "dvx_bench: " << flag << " requires a value\n";
      ok = false;
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--all") {
      opt.all = true;
    } else if (arg == "--fast") {
      opt.run.fast = true;
    } else if (arg == "--no-figure-json") {
      opt.figure_json = false;
    } else if (arg == "--figure") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      std::vector<std::string> fields;
      std::string csv_err;
      if (!split_csv(v, fields, csv_err)) {
        err << "dvx_bench: bad --figure value '" << v << "' (" << csv_err << ")\n";
        ok = false;
        continue;
      }
      for (auto& f : fields) {
        if (f == "all") {
          opt.all = true;
        } else {
          opt.figures.push_back(std::move(f));
        }
      }
    } else if (arg == "--nodes") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      std::vector<std::string> fields;
      std::string csv_err;
      if (!split_csv(v, fields, csv_err)) {
        err << "dvx_bench: bad --nodes value '" << v << "' (" << csv_err << ")\n";
        ok = false;
        continue;
      }
      for (const auto& n : fields) {
        int nodes = 0;
        if (!parse_number(n, nodes)) {
          err << "dvx_bench: bad --nodes value '" << n << "'\n";
          ok = false;
          continue;
        }
        if (nodes < 2) {
          err << "dvx_bench: --nodes values must be >= 2\n";
          ok = false;
          continue;
        }
        opt.run.nodes.push_back(nodes);
      }
    } else if (arg == "--backends") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      std::vector<std::string> fields;
      std::string csv_err;
      if (!split_csv(v, fields, csv_err)) {
        err << "dvx_bench: bad --backends value '" << v << "' (" << csv_err << ")\n";
        ok = false;
        continue;
      }
      for (const auto& b : fields) {
        try {
          opt.run.backends.push_back(parse_backend(b));
        } catch (const std::invalid_argument& e) {
          err << "dvx_bench: bad --backends value: " << e.what() << "\n";
          ok = false;
        }
      }
    } else if (arg == "--seed") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      if (!parse_number(std::string_view(v), opt.run.seed)) {
        err << "dvx_bench: bad --seed value '" << v
            << "' (must be a non-negative integer)\n";
        ok = false;
      }
    } else if (arg == "--jobs") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      if (!parse_number(std::string_view(v), opt.jobs) || opt.jobs < 1) {
        err << "dvx_bench: bad --jobs value '" << v << "' (must be an integer >= 1)\n";
        ok = false;
      }
    } else if (arg == "--json") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      opt.json_path = v;
    } else if (arg == "--metrics-out") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      opt.run.metrics_dir = v;
    } else if (arg == "--trace-out") {
      const char* v = need_value(i, arg);
      if (!v) continue;
      opt.run.trace_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      err << "dvx_bench: unknown argument '" << arg << "'\n";
      ok = false;
    }
  }
  return ok;
}

int run_with(CliOptions opt) {
  std::ostream& os = std::cout;  // the CLI prints its tables to stdout
  if (opt.list) {
    print_list(os);
    return 0;
  }

  std::vector<const Workload*> selected;
  if (opt.all) {
    selected = Registry::instance().all();
  } else {
    for (const auto& f : opt.figures) {
      const Workload* w = Registry::instance().find(f);
      if (!w) {
        std::cerr << "dvx_bench: unknown figure or workload '" << f
                  << "' (try --list)\n";
        return 2;
      }
      selected.push_back(w);
    }
  }
  if (selected.empty()) {
    print_usage(std::cerr);
    return 2;
  }

  if (!opt.run.fast) opt.run.fast = fast_mode_env();
  const int jobs = opt.jobs > 0 ? opt.jobs : PointScheduler::default_jobs();

  runtime::ResultSink sink;
  sink.fast = opt.run.fast;
  sink.seed = opt.run.seed;
  int failures = 0;
  failures += run_workloads(selected, opt.run, jobs, sink,
                            [&](const Workload& w, bool figure_ok) {
                              if (!figure_ok || !opt.figure_json) return;
                              if (sink.write_figure_file(w.figure())) {
                                os << "\n[dvx_bench] wrote BENCH_" << w.figure()
                                   << ".json\n";
                              } else {
                                std::cerr << "dvx_bench: could not write BENCH_"
                                          << w.figure() << ".json\n";
                                ++failures;
                              }
                            });
  if (!opt.json_path.empty()) {
    if (sink.write_file(opt.json_path)) {
      os << "[dvx_bench] wrote " << opt.json_path << " (" << sink.records().size()
         << " records, " << sink.anchors().size() << " anchors)\n";
    } else {
      std::cerr << "dvx_bench: could not write " << opt.json_path << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int run_workloads(const std::vector<const Workload*>& workloads, const RunOptions& opt,
                  int jobs, runtime::ResultSink& sink,
                  const std::function<void(const Workload&, bool ok)>& per_figure) {
  for (const std::string& dir : {opt.metrics_dir, opt.trace_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::cerr << "dvx_bench: cannot create output directory '" << dir
                << "': " << ec.message() << "\n";
      return static_cast<int>(workloads.size());
    }
  }
  struct PlannedFigure {
    const Workload* workload = nullptr;
    std::vector<RunPoint> points;
    std::vector<PointResult> results;
    std::string plan_error;
  };
  std::vector<PlannedFigure> figures(workloads.size());
  for (std::size_t f = 0; f < workloads.size(); ++f) {
    figures[f].workload = workloads[f];
    try {
      figures[f].points = workloads[f]->plan(opt);
    } catch (const std::exception& e) {
      figures[f].plan_error = e.what();
    }
    figures[f].results.resize(figures[f].points.size());
  }

  // One task per point across every selected figure; slots are preallocated
  // so workers never touch a shared container.
  std::vector<std::function<void()>> tasks;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    for (std::size_t i = 0; i < figures[f].points.size(); ++i) {
      tasks.push_back([&figures, &opt, f, i] {
        figures[f].results[i] =
            execute_point(*figures[f].workload, figures[f].points[i], opt);
      });
    }
  }
  PointScheduler scheduler(jobs);
  if (scheduler.jobs() > 1 && tasks.size() > 1) {
    std::cerr << "[dvx_bench] running " << tasks.size() << " points across "
              << figures.size() << " figure(s) on " << scheduler.jobs()
              << " threads\n";
  }
  scheduler.run(tasks);

  // Report in selection order, so tables, JSON records, and anchors come out
  // in the canonical plan order no matter how execution interleaved. A
  // figure with a failed point (or a failing plan/report) fails alone.
  int failures = 0;
  for (auto& fig : figures) {
    const Workload& w = *fig.workload;
    bool figure_ok = fig.plan_error.empty();
    if (!fig.plan_error.empty()) {
      std::cerr << "dvx_bench: " << w.figure() << " failed to plan: " << fig.plan_error
                << "\n";
    }
    for (const auto& r : fig.results) {
      if (!r.failed()) continue;
      figure_ok = false;
      std::cerr << "dvx_bench: " << w.figure() << " point " << r.point.index << " ("
                << to_string(r.point.backend) << ", " << r.point.nodes << " nodes"
                << (r.point.variant.empty() ? "" : ", " + r.point.variant)
                << ") failed: " << r.error << "\n";
    }
    if (figure_ok) {
      try {
        w.report(opt, fig.results, sink);
      } catch (const std::exception& e) {
        std::cerr << "dvx_bench: " << w.figure() << " failed to report: " << e.what()
                  << "\n";
        figure_ok = false;
      }
    }
    if (!figure_ok) ++failures;
    if (per_figure) per_figure(w, figure_ok);
  }
  return failures;
}

int run_cli(int argc, const char* const* argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, opt, std::cerr)) return 2;
  if (opt.help) {
    // --help wins over any (valid) selection; garbage was rejected above.
    print_usage(std::cerr);
    return 0;
  }
  if (!opt.list && !opt.all && opt.figures.empty()) {
    // No figure selection — even with --json or other options, there is
    // nothing to run: print usage instead of reaching run_with.
    print_usage(std::cerr);
    return 2;
  }
  return run_with(std::move(opt));
}

}  // namespace dvx::exp

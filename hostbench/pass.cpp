// One pass of a hostbench workload, in its own process.
//
// A pass is what `dvx_bench --figure F --backends dv,mpi-ib,mpi-torus` does
// for one figure, through the same public exp API: Registry::find,
// Workload::plan, execute_point for every point on a PointScheduler, then
// Workload::report into a ResultSink. The pass prints one JSON object on
// stdout: steady-clock stamps of the pass, its plan, every point and the
// report; each point's error; the anchor outcomes; and an FNV-1a digest of
// the dvx-bench/v1 document. run.py spawns one process per pass.
//
// --trace (serial passes only) also opens an obs::Collector around every
// point and prints the counters it gathered, then runs the layer probes
// outside the pass: one public call per layer, re-timed at each point's
// parameters. README.md defines the metrics built from all of this.
//
// usage: hostbench_pass --workload NAME [--seed N] [--jobs N] [--fast]
//                       [--nodes A,B,...] [--plan-only] [--trace]

#include <algorithm>
#include <charconv>
#include <chrono>
#include <complex>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include <sys/resource.h>

#include "apps/bfs_common.hpp"
#include "exp/scheduler.hpp"
#include "exp/workload.hpp"
#include "kernels/fft.hpp"
#include "kernels/kronecker.hpp"
#include "obs/collector.hpp"
#include "runtime/cluster.hpp"
#include "runtime/report.hpp"
#include "serve/arrival.hpp"
#include "sim/rng.hpp"

namespace {

namespace exp = dvx::exp;
namespace runtime = dvx::runtime;
namespace sim = dvx::sim;
using runtime::Json;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer call a traced pass re-times at every point, besides the
/// cluster build every workload gets.
enum class Probe { kGraph, kFft, kArrivals };

/// A benchmark workload: one registered figure over all three backends.
struct Sweep {
  std::string_view name;
  std::string_view figure;
  Probe probe;
};

constexpr Sweep kSweeps[] = {
    {"bfs_sweep", "fig8", Probe::kGraph},
    {"fft_sweep", "fig7", Probe::kFft},
    {"serving_ladder", "serving", Probe::kArrivals},
};

struct Options {
  const Sweep* sweep = nullptr;
  std::uint64_t seed = 0;
  int jobs = 1;
  bool fast = false;
  bool plan_only = false;
  bool trace = false;
  std::vector<int> nodes;
};

template <typename Int>
bool parse_number(std::string_view s, Int& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--fast") {
      o.fast = true;
    } else if (arg == "--plan-only") {
      o.plan_only = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--workload" && has_value) {
      const std::string_view v = argv[++i];
      for (const Sweep& s : kSweeps) {
        if (s.name == v) o.sweep = &s;
      }
      if (o.sweep == nullptr) return false;
    } else if (arg == "--seed" && has_value) {
      if (!parse_number(std::string_view(argv[++i]), o.seed)) return false;
    } else if (arg == "--jobs" && has_value) {
      if (!parse_number(std::string_view(argv[++i]), o.jobs) || o.jobs < 1) return false;
    } else if (arg == "--nodes" && has_value) {
      std::string_view v = argv[++i];
      while (true) {
        const auto comma = v.find(',');
        int n = 0;
        if (!parse_number(v.substr(0, comma), n) || n < 1) return false;
        o.nodes.push_back(n);
        if (comma == std::string_view::npos) break;
        v.remove_prefix(comma + 1);
      }
    } else {
      return false;
    }
  }
  // Spans and collectors are per process, not per thread: traced passes
  // run their points on the calling thread.
  return o.sweep != nullptr && !(o.trace && o.jobs != 1);
}

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h;
  return os.str();
}

/// One point's obs metrics folded by name: counters summed over their
/// labels, gauges reduced to their largest high-water mark.
Json fold_metrics(const dvx::obs::Registry& registry) {
  std::map<std::string, double> folded;
  for (const auto& [key, metric] : registry.metrics()) {
    if (const auto* c = std::get_if<dvx::obs::Counter>(&metric)) {
      folded[key.first] += static_cast<double>(c->value());
    } else if (const auto* g = std::get_if<dvx::obs::Gauge>(&metric)) {
      double& v = folded[key.first];
      v = std::max(v, g->stats().max());
    }
  }
  Json out = Json::object();
  for (const auto& [name, v] : folded) out[name] = v;
  return out;
}

/// In-memory spans of one traced process, written out once at the end.
class SpanLog {
 public:
  int add(std::string name, int parent, int point, std::int64_t start_ns,
          std::int64_t end_ns) {
    spans_.push_back(Json::object());
    Json& s = spans_.back();
    s["id"] = static_cast<int>(spans_.size()) - 1;
    s["name"] = std::move(name);
    s["parent"] = parent;
    s["point"] = point;
    s["start_ns"] = start_ns;
    s["end_ns"] = end_ns;
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) { spans_[static_cast<std::size_t>(id)]["end_ns"] = now_ns(); }

  /// Runs `fn` inside a span; returns its host seconds.
  double time(std::string name, int parent, int point, const std::function<void()>& fn) {
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t end = now_ns();
    add(std::move(name), parent, point, start, end);
    return static_cast<double>(end - start) * 1e-9;
  }

  Json to_json() const {
    Json out = Json::array();
    for (const Json& s : spans_) out.push_back(s);
    return out;
  }

 private:
  std::vector<Json> spans_;
};

sim::Coro<void> dv_barrier(dvx::dvapi::DvContext& ctx, runtime::NodeCtx&) {
  co_await ctx.barrier();
}

sim::Coro<void> mpi_barrier(dvx::mpi::Comm comm, runtime::NodeCtx&) {
  co_await comm.barrier();
}

/// runtime: a cluster for the point's backend and nodes, running only a barrier.
void build_cluster(const exp::RunPoint& p) {
  runtime::ClusterConfig config{.nodes = p.nodes};
  if (p.backend == exp::Backend::kMpiTorus) config.mpi_fabric = runtime::MpiFabric::kTorus;
  runtime::Cluster cluster(config);
  if (p.backend == exp::Backend::kDv) {
    cluster.run_dv(dv_barrier);
  } else {
    cluster.run_mpi(mpi_barrier);
  }
}

/// apps: the graph set-up both BFS implementations run before searching.
void build_graph(const exp::RunPoint& p) {
  const dvx::kernels::KroneckerParams kp{
      .scale = static_cast<int>(p.params.at("scale")),
      .edge_factor = static_cast<int>(p.params.at("edge_factor")),
      .seed = static_cast<std::uint64_t>(p.params.at("seed"))};
  const dvx::kernels::KroneckerGenerator gen(kp);
  const auto graphs = dvx::apps::bfs_detail::build_distribution(kp, p.nodes);
  const auto roots =
      dvx::apps::bfs_detail::pick_roots(gen, static_cast<int>(p.params.at("searches")));
  if (graphs.empty() || roots.empty()) throw std::runtime_error("graph probe: empty graph");
}

/// serve: the arrival trace the serving workload generates for this point.
/// Mirrors ServingWorkload::run_point, whose default arrival seed is 41.
void generate_arrivals(const exp::RunPoint& p) {
  dvx::serve::ArrivalConfig cfg;
  cfg.seed = p.seed != 0 ? p.seed : 41;
  cfg.nodes = p.nodes;
  cfg.horizon_us = p.params.at("horizon_us");
  double total_weight = 0.0;
  for (const auto& t : dvx::serve::default_tenants()) total_weight += t.rate_weight;
  cfg.unit_rate_rps = p.params.at("rate_krps") * 1e3 * p.params.at("load") / total_weight;
  if (dvx::serve::generate_arrivals(cfg).offered() == 0) {
    throw std::runtime_error("arrival probe: empty trace");
  }
}

/// Runs the traced pass's layer probes, each in its own span under one
/// "probes" root, and returns their timings and the sharded-engine check.
Json run_probes(const Options& o, const exp::Workload& w,
                const std::vector<exp::RunPoint>& points, SpanLog& spans) {
  const int root = spans.add("probes", -1, -1, now_ns(), 0);
  Json per_point = Json::array();
  for (const exp::RunPoint& p : points) {
    const int i = static_cast<int>(p.index);
    Json probe = Json::object();
    probe["runtime.cluster_build_s"] =
        spans.time("runtime.cluster_build", root, i, [&] { build_cluster(p); });
    switch (o.sweep->probe) {
      case Probe::kGraph:
        probe["apps.graph_build_s"] =
            spans.time("apps.graph_build", root, i, [&] { build_graph(p); });
        break;
      case Probe::kFft: {
        const int log_size = static_cast<int>(p.params.at("log_size"));
        const std::int64_t n1 = std::int64_t{1} << ((log_size + 1) / 2);
        const std::int64_t n2 = std::int64_t{1} << (log_size / 2);
        std::vector<dvx::kernels::Complex> input(static_cast<std::size_t>(n1 * n2));
        sim::Xoshiro256 rng(p.index + 1);
        for (auto& x : input) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        probe["kernels.fft_s"] = spans.time("kernels.six_step_fft", root, i, [&] {
          if (dvx::kernels::six_step_fft(input, n1, n2).size() != input.size()) {
            throw std::runtime_error("fft probe: wrong output size");
          }
        });
        break;
      }
      case Probe::kArrivals:
        probe["serve.arrivals_s"] =
            spans.time("serve.generate_arrivals", root, i, [&] { generate_arrivals(p); });
        break;
    }
    per_point.push_back(std::move(probe));
  }

  // The largest DV point (the first, if several share its node count), re-run
  // at engine threads 2 and then 1: the metrics must match, and the time
  // ratio is sim.sharded_over_serial.
  const exp::RunPoint* big = nullptr;
  for (const exp::RunPoint& p : points) {
    if (p.backend == exp::Backend::kDv && (big == nullptr || p.nodes > big->nodes)) big = &p;
  }
  Json sharded = Json::object();
  if (big != nullptr) {
    const int i = static_cast<int>(big->index);
    exp::PointResult two, one;
    runtime::set_default_engine_threads(2);
    const double two_s =
        spans.time("sim.engine_threads_2", root, i, [&] { two = exp::execute_point(w, *big); });
    runtime::set_default_engine_threads(1);
    const double one_s =
        spans.time("sim.engine_threads_1", root, i, [&] { one = exp::execute_point(w, *big); });
    sharded["point"] = i;
    sharded["threads2_s"] = two_s;
    sharded["threads1_s"] = one_s;
    sharded["identical"] = !one.failed() && !two.failed() && one.metrics == two.metrics;
  }
  spans.close(root);

  Json out = Json::object();
  out["per_point"] = std::move(per_point);
  out["sharded"] = std::move(sharded);
  return out;
}

int run_pass(const Options& o) {
  const std::int64_t pass_start = now_ns();
  const exp::Workload* w = exp::Registry::instance().find(o.sweep->figure);
  if (w == nullptr) throw std::runtime_error("figure not registered");
  exp::RunOptions opt;
  opt.fast = o.fast;
  opt.seed = o.seed;
  opt.nodes = o.nodes;
  opt.backends = exp::all_backends();
  std::ostringstream tables;  // the figure's printed tables, discarded
  opt.out = &tables;

  std::vector<exp::RunPoint> points;
  std::string plan_error;
  const std::int64_t plan_start = now_ns();
  try {
    points = w->plan(opt);
  } catch (const std::exception& e) {
    plan_error = e.what();
  }
  const std::int64_t plan_end = now_ns();

  Json doc = Json::object();
  doc["pass_start_ns"] = pass_start;
  doc["point_count"] = static_cast<std::uint64_t>(points.size());
  if (o.plan_only) {
    doc["first_point_ns"] = plan_end;
    doc.dump(std::cout);
    std::cout << "\n";
    return 0;
  }

  const std::size_t n = points.size();
  std::vector<exp::PointResult> results(n);
  std::vector<std::int64_t> start_ns(n), end_ns(n);
  std::vector<Json> metrics(n);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([&, i] {
      start_ns[i] = now_ns();
      if (o.trace) {
        dvx::obs::Collector collector;
        {
          const dvx::obs::ScopedCollector scope(collector);
          results[i] = exp::execute_point(*w, points[i]);
        }
        end_ns[i] = now_ns();
        metrics[i] = fold_metrics(collector.registry);
      } else {
        results[i] = exp::execute_point(*w, points[i]);
        end_ns[i] = now_ns();
      }
    });
  }
  exp::PointScheduler(o.jobs).run(tasks);

  bool points_ok = plan_error.empty();
  for (const auto& r : results) points_ok = points_ok && !r.failed();
  runtime::ResultSink sink;
  sink.fast = opt.fast;
  sink.seed = opt.seed;
  std::string report_error;
  const std::int64_t report_start = now_ns();
  if (points_ok) {
    try {
      w->report(opt, results, sink);
    } catch (const std::exception& e) {
      report_error = e.what();
    }
  }
  const std::int64_t pass_end = now_ns();

  doc["first_point_ns"] = n > 0 ? *std::min_element(start_ns.begin(), start_ns.end()) : plan_end;
  doc["pass_end_ns"] = pass_end;
  doc["plan_error"] = plan_error;
  doc["report_error"] = report_error;
  Json pts = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    Json p = Json::object();
    p["backend"] = exp::to_string(points[i].backend);
    p["nodes"] = points[i].nodes;
    p["variant"] = points[i].variant;
    p["start_ns"] = start_ns[i];
    p["end_ns"] = end_ns[i];
    p["error"] = results[i].error;
    if (o.trace) p["metrics"] = std::move(metrics[i]);
    pts.push_back(std::move(p));
  }
  doc["points"] = std::move(pts);
  Json failed_anchors = Json::array();
  for (const auto& a : sink.anchors()) {
    if (!a.pass) failed_anchors.push_back(a.name);
  }
  doc["anchors"] = static_cast<std::uint64_t>(sink.anchors().size());
  doc["failed_anchors"] = std::move(failed_anchors);
  doc["digest"] = points_ok && report_error.empty() ? fnv1a_hex(sink.to_json().dump()) : "";

  if (o.trace) {
    SpanLog spans;
    const int pass = spans.add("pass", -1, -1, pass_start, pass_end);
    spans.add("exp.plan", pass, -1, plan_start, plan_end);
    for (std::size_t i = 0; i < n; ++i) {
      spans.add("apps.execute", pass, static_cast<int>(i), start_ns[i], end_ns[i]);
    }
    spans.add("exp.report", pass, -1, report_start, pass_end);
    Json probes = run_probes(o, *w, points, spans);
    doc["probes"] = std::move(probes);
    doc["spans"] = spans.to_json();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  doc["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
  doc.dump(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::cerr << "usage: hostbench_pass --workload bfs_sweep|fft_sweep|serving_ladder"
                 " [--seed N] [--jobs N] [--fast] [--nodes A,B,...] "
                 "[--plan-only] [--trace]  (--trace needs --jobs 1)\n";
    return 2;
  }
  // Each pass runs its simulations serially inside one engine; only the
  // sharded-engine probe raises the thread count, and only for itself.
  runtime::set_default_engine_threads(1);
  try {
    return run_pass(o);
  } catch (const std::exception& e) {
    std::cerr << "hostbench_pass: " << e.what() << "\n";
    return 1;
  }
}

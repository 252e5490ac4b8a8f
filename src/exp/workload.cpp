#include "exp/workload.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/collector.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace_export.hpp"
#include "runtime/cluster.hpp"
#include "runtime/constants.hpp"
#include "sim/rng.hpp"

namespace dvx::exp {
namespace {

/// FNV-1a, used to fold the figure tag into the seed-derivation stream so
/// two figures never share a sub-seed sequence.
std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kDv:
      return "dv";
    case Backend::kMpiIb:
      return "mpi";
    case Backend::kMpiTorus:
      return "mpi-torus";
  }
  return "?";  // unreachable; keeps -Wreturn-type quiet
}

Backend parse_backend(std::string_view id) {
  if (id == "dv") return Backend::kDv;
  if (id == "mpi" || id == "mpi-ib") return Backend::kMpiIb;
  if (id == "mpi-torus") return Backend::kMpiTorus;
  throw std::invalid_argument("unknown backend '" + std::string(id) +
                              "' (expected dv, mpi-ib/mpi, or mpi-torus)");
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {Backend::kDv, Backend::kMpiIb,
                                            Backend::kMpiTorus};
  return kAll;
}

const char* display_name(Backend b) {
  switch (b) {
    case Backend::kDv:
      return "Data Vortex";
    case Backend::kMpiIb:
      return "Infiniband";
    case Backend::kMpiTorus:
      return "3D Torus";
  }
  return "?";  // unreachable; keeps -Wreturn-type quiet
}

runtime::ClusterConfig cluster_config(Backend backend, int nodes) {
  runtime::ClusterConfig config{.nodes = nodes};
  if (backend == Backend::kMpiTorus) config.mpi_fabric = runtime::MpiFabric::kTorus;
  return config;
}

std::vector<Backend> Workload::default_backends() const {
  std::vector<Backend> out;
  for (Backend b : {Backend::kDv, Backend::kMpiIb}) {
    if (has_backend(b)) out.push_back(b);
  }
  return out;
}

std::vector<Backend> Workload::selected_backends(const RunOptions& opt) const {
  if (opt.backends.empty()) return default_backends();
  std::vector<Backend> out;
  for (Backend b : all_backends()) {  // canonical order, deduplicated
    if (!has_backend(b)) continue;
    for (Backend want : opt.backends) {
      if (want == b) {
        out.push_back(b);
        break;
      }
    }
  }
  return out;
}

bool Workload::selects(const RunOptions& opt, Backend b) const {
  const auto backends = selected_backends(opt);
  return std::find(backends.begin(), backends.end(), b) != backends.end();
}

std::vector<int> Workload::default_nodes(bool) const { return paper_node_counts(); }

std::vector<int> Workload::node_counts(const RunOptions& opt) const {
  return opt.nodes.empty() ? default_nodes(opt.fast) : opt.nodes;
}

int Workload::one_node_count(const RunOptions& opt, int fallback) const {
  if (opt.nodes.size() > 1) {
    throw std::invalid_argument(figure() +
                                " runs at one node count; pass one --nodes value");
  }
  return opt.nodes.empty() ? fallback : opt.nodes.front();
}

int Workload::fixed_node_count(const RunOptions& opt, int fixed) const {
  if (!opt.nodes.empty() && opt.nodes != std::vector<int>{fixed}) {
    const std::string n = std::to_string(fixed);
    throw std::invalid_argument(figure() + " runs at " + n + " nodes only; pass --nodes " +
                                n + " or none");
  }
  return fixed;
}

ParamMap Workload::default_params(bool fast) const {
  ParamMap out;
  for (const auto& spec : param_specs()) {
    out[spec.key] = fast ? spec.fast_value : spec.full_value;
  }
  return out;
}

std::ostream& Workload::banner(const RunOptions& opt) const {
  std::ostream& os = opt.out ? *opt.out : std::cout;
  runtime::figure_banner(os, title(), paper_anchor());
  return os;
}

runtime::BenchRecord Workload::make_record(const PointResult& result) const {
  runtime::BenchRecord r;
  r.figure = figure();
  r.workload = name();
  r.backend = to_string(result.point.backend);
  r.variant = result.point.variant;
  r.nodes = result.point.nodes;
  r.config = result.point.params;
  r.metrics = result.metrics;
  return r;
}

runtime::BenchRecord Workload::make_derived_record(int nodes, MetricMap metrics,
                                                   std::string variant) const {
  runtime::BenchRecord r;
  r.figure = figure();
  r.workload = name();
  r.backend = "derived";
  r.variant = std::move(variant);
  r.nodes = nodes;
  r.metrics = std::move(metrics);
  return r;
}

runtime::AnchorCheck Workload::make_anchor(std::string name, double observed,
                                           double expected, bool pass,
                                           std::string detail) const {
  runtime::AnchorCheck a;
  a.figure = figure();
  a.name = std::move(name);
  a.observed = observed;
  a.expected = expected;
  a.pass = pass;
  a.detail = std::move(detail);
  return a;
}

PlanBuilder::PlanBuilder(const Workload& workload, const RunOptions& opt) {
  if (opt.seed != 0) {
    figure_seed_ = sim::derive_seed(opt.seed, hash_string(workload.figure()));
  }
}

void PlanBuilder::add(Backend backend, int nodes, const ParamMap& params,
                      std::string variant) {
  RunPoint p;
  p.index = points_.size();
  p.backend = backend;
  p.nodes = nodes;
  p.params = params;
  p.variant = std::move(variant);
  p.seed = figure_seed_ == 0 ? 0 : sim::derive_seed(figure_seed_, p.index);
  points_.push_back(std::move(p));
}

const PointResult* find_result(const std::vector<PointResult>& results,
                               Backend backend, int nodes,
                               std::string_view variant) {
  for (const auto& r : results) {
    if (r.point.backend == backend && r.point.nodes == nodes &&
        r.point.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

PointResult execute_point(const Workload& workload, const RunPoint& point) {
  PointResult result;
  result.point = point;
  std::ostringstream log;
  try {
    result.metrics = workload.execute(point, log);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  result.log = log.str();
  return result;
}

PointResult execute_point(const Workload& workload, const RunPoint& point,
                          const RunOptions& opt) {
  const bool want_metrics = !opt.metrics_dir.empty();
  const bool want_trace = !opt.trace_dir.empty();
  if (!want_metrics && !want_trace) return execute_point(workload, point);

  obs::Collector collector;
  collector.want_trace = want_trace;
  PointResult result;
  {
    const obs::ScopedCollector scope(collector);
    result = execute_point(workload, point);
  }
  // Only successful points leave files behind, so the output directory's
  // content is a pure function of the plan (the --jobs determinism contract).
  if (result.failed()) return result;
  const std::string tag = workload.figure() + "_p" + std::to_string(point.index);
  if (want_metrics) {
    const std::string path = opt.metrics_dir + "/METRICS_" + tag + ".json";
    if (!obs::write_snapshot_file(collector.registry, path)) {
      result.error = "could not write " + path;
    }
  }
  if (want_trace && !result.failed()) {
    const std::string path = opt.trace_dir + "/TRACE_" + tag + ".json";
    if (!obs::write_chrome_trace_file(collector.trace, path)) {
      result.error = "could not write " + path;
    }
  }
  return result;
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->add(make_pingpong_workload());
    r->add(make_barrier_workload());
    r->add(make_gups_trace_workload());
    r->add(make_gups_workload());
    r->add(make_fft1d_workload());
    r->add(make_bfs_workload());
    r->add(make_apps_workload());
    r->add(make_ablation_aggregation_workload());
    r->add(make_ablation_fabric_workload());
    r->add(make_traffic_workload());
    r->add(make_serving_workload());
    return r;
  }();
  return *registry;
}

void Registry::add(std::unique_ptr<Workload> workload) {
  workloads_.push_back(std::move(workload));
}

const Workload* Registry::find(std::string_view name_or_figure) const {
  for (const auto& w : workloads_) {
    if (w->name() == name_or_figure || w->figure() == name_or_figure) return w.get();
  }
  return nullptr;
}

std::vector<const Workload*> Registry::all() const {
  std::vector<const Workload*> out;
  out.reserve(workloads_.size());
  for (const auto& w : workloads_) out.push_back(w.get());
  return out;
}

std::vector<int> paper_node_counts(int first) {
  std::vector<int> out;
  for (int n = first; n <= runtime::paper::kMaxNodes; n *= 2) out.push_back(n);
  return out;
}

bool fast_mode_env() {
  const char* v = std::getenv("DVX_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace dvx::exp

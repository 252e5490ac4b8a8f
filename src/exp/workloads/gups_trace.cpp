// Figure 5 — GUPS execution trace (paper §VI).
//
// The paper instruments the HPCC MPI GUPS with Extrae and shows (a) the
// whole run and (b) a zoom: computation interleaved with MPI exchanges and
// message lines with "no exploitable regularity for aggregating messages
// directed to the same destination". This workload reproduces the trace
// with the built-in tracer: an ASCII timeline, per-state time breakdown,
// and a destination-regularity statistic (1.0 = perfectly aggregatable,
// ~1/(P-1) = uniformly scattered). The full trace is also written as CSV.

#include <algorithm>
#include <array>
#include <ostream>

#include "apps/gups.hpp"
#include "exp/workload.hpp"
#include "kernels/gups_table.hpp"
#include "runtime/cluster.hpp"

namespace dvx::exp {
namespace {

namespace runtime = dvx::runtime;
namespace sim = dvx::sim;

/// Runs the traced MPI GUPS and prints the figure panels to `os`.
MetricMap run_trace(int nodes, const ParamMap& params, std::ostream& os) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = nodes, .trace = true});
  dvx::apps::GupsParams gp{
      .local_table_words = static_cast<std::uint64_t>(params.at("local_table_words")),
      .updates_per_node = static_cast<std::uint64_t>(params.at("updates_per_node")),
  };
  const auto res = dvx::apps::run_gups_mpi(cluster, gp);

  const auto& tracer = cluster.tracer();
  os << "\n-- execution timeline (Fig 5a analogue) --\n" << tracer.ascii_timeline(100);
  os << "\n-- per-node state breakdown --\n";
  for (const auto& [node, summary] : tracer.state_summary()) {
    os << "node " << node << ":";
    for (std::size_t s = 0; s < sim::kNodeStateCount; ++s) {
      os << "  " << sim::to_string(static_cast<sim::NodeState>(s)) << "="
         << runtime::fmt(100.0 * summary.fraction(static_cast<sim::NodeState>(s)), 1) << "%";
    }
    os << "\n";
  }

  const double reg = tracer.destination_regularity(16);

  // Update-level irregularity, independent of how the runtime batches them:
  // the fraction of a 1024-update HPCC bucket aimed at the most popular of
  // the P-1 remote nodes.
  double update_reg = 0.0;
  {
    std::uint64_t a = dvx::kernels::gups_start(0);
    const int kWindows = 64;
    for (int w = 0; w < kWindows; ++w) {
      std::vector<int> count(static_cast<std::size_t>(nodes), 0);
      for (int i = 0; i < 1024; ++i) {
        a = dvx::kernels::gups_next(a);
        ++count[static_cast<std::size_t>(
            dvx::kernels::gups_target(a, nodes, gp.local_table_words).owner)];
      }
      update_reg += *std::max_element(count.begin(), count.end()) / 1024.0;
    }
    update_reg /= kWindows;
  }

  os << "\n-- message statistics (Fig 5b analogue) --\n";
  os << "messages traced:        " << tracer.messages().size() << "\n";
  os << "destination regularity: " << runtime::fmt(reg, 3)
     << "  (1.0 = aggregatable by destination; " << runtime::fmt(1.0 / (nodes - 1), 3)
     << " = uniform scatter over " << nodes - 1 << " peers)\n";
  os << "update-level regularity: " << runtime::fmt(update_reg, 3)
     << "  (HPCC rule caps buffering at 1024 updates, so no\n"
        "                         destination accumulates a useful batch)\n";
  const std::string csv = "fig5_gups_trace.csv";
  tracer.write_csv(csv);
  os << "full trace written to " << csv << "\n";

  return {
      {"roi_seconds", res.seconds},
      {"messages_traced", static_cast<double>(tracer.messages().size())},
      {"destination_regularity", reg},
      {"update_level_regularity", update_reg},
  };
}

class GupsTraceWorkload final : public Workload {
 public:
  std::string name() const override { return "gups_trace"; }
  std::string figure() const override { return "fig5"; }
  std::string title() const override {
    return "Figure 5 — GUPS execution trace (MPI/IB, 8 nodes)";
  }
  std::string paper_anchor() const override {
    return "computation (blue in the paper) interleaved with MPI; "
           "messages show no destination regularity";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"local_table_words", 1 << 14, 1 << 14, "GUPS table words per node"},
        {"updates_per_node", 1 << 14, 1 << 12, "updates issued per node"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"roi_seconds", "s", "virtual ROI time of the traced run"},
        {"messages_traced", "", "messages recorded by the tracer"},
        {"destination_regularity", "",
         "peak destination share of a 16-message window (1.0 = aggregatable)"},
        {"update_level_regularity", "",
         "peak destination share of a 1024-update HPCC bucket"},
    };
  }

  // The paper's figure is specifically an Extrae trace of the MPI/IB run;
  // the point is the irregularity of the traffic, not a network comparison.
  bool has_backend(Backend b) const override { return b == Backend::kMpiIb; }
  std::vector<int> default_nodes(bool) const override { return {8}; }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    const int nodes = one_node_count(opt, default_nodes(opt.fast).front());
    PlanBuilder builder(*this, opt);
    for (const Backend b : selected_backends(opt)) {
      builder.add(b, nodes, default_params(opt.fast));
    }
    return builder.take();
  }

  // The figure panels (timeline, state breakdown, message statistics) come
  // from the same traced run as the metrics, so they are rendered into the
  // per-point log during execution and replayed by report().
  MetricMap execute(const RunPoint& point, std::ostream& log) const override {
    return run_trace(point.nodes, point.params, log);
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);
    if (results.empty()) {  // e.g. --backends without mpi-ib
      os << "\n(no points: this figure only has an mpi-ib series)\n";
      return;
    }
    const PointResult& point = results.front();
    const int nodes = point.point.nodes;
    os << point.log;
    os << "\npaper anchor: the zoomed trace shows messages to ever-changing\n"
          "destinations — exactly the low regularity measured above.\n";

    const double update_reg = point.metrics.at("update_level_regularity");
    const double uniform = 1.0 / (nodes - 1);
    sink.add(make_record(point));
    sink.add_anchor(make_anchor(
        "no_destination_regularity", update_reg, uniform, update_reg < 2.0 * uniform,
        "update destinations are statistically indistinguishable from uniform scatter"));
  }
};

}  // namespace

std::unique_ptr<Workload> make_gups_trace_workload() {
  return std::make_unique<GupsTraceWorkload>();
}

}  // namespace dvx::exp

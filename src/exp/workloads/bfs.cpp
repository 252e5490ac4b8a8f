// Figure 8 — Graph500 BFS harmonic-mean TEPS (paper §VI).
//
// Kronecker graph, level-synchronous BFS over multiple random roots.
// MPI aggregates candidates per destination (alltoall); the Data Vortex
// streams single-packet candidates with source-only aggregation. Paper:
// DV consistently above IB, gap widening with nodes. (Paper runs 64
// searches on the largest graph that fits; reproduction scales down.)

#include <algorithm>
#include <iostream>

#include "apps/bfs.hpp"
#include "exp/memo.hpp"
#include "exp/workload.hpp"
#include "runtime/cluster.hpp"
#include "sim/rng.hpp"

namespace dvx::exp {
namespace {

namespace runtime = dvx::runtime;

class BfsWorkload final : public Workload {
 public:
  std::string name() const override { return "bfs"; }
  std::string figure() const override { return "fig8"; }
  std::string title() const override {
    return "Figure 8 — BFS harmonic-mean TEPS (Graph500)";
  }
  std::string paper_anchor() const override {
    return "DV consistently above IB; the gap widens with node count";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"scale", 15, 13, "2^scale vertices"},
        {"edge_factor", 16, 16, "Graph500 default edges per vertex"},
        {"searches", 4, 2, "BFS roots timed (paper runs 64)"},
        {"seed", 2, 2, "graph/root RNG seed"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"harmonic_mean_teps", "TEPS", "Graph500 headline metric"},
        {"graph_edges", "", "edges in the generated graph"},
    };
  }

  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
      case Backend::kMpiTorus:
        return true;
    }
    return false;
  }

  MetricMap run_backend(Backend backend, int nodes,
                        const ParamMap& params) const override {
    runtime::ClusterConfig config{.nodes = nodes};
    if (backend == Backend::kMpiTorus) config.mpi_fabric = runtime::MpiFabric::kTorus;
    runtime::Cluster cluster(config);
    dvx::apps::BfsParams bp{
        .scale = static_cast<int>(params.at("scale")),
        .edge_factor = static_cast<int>(params.at("edge_factor")),
        .searches = static_cast<int>(params.at("searches")),
        .seed = static_cast<std::uint64_t>(params.at("seed")),
    };
    // Taken at execute time, not in plan(): planning builds nothing.
    const auto graph = graphs_.get({bp.scale, bp.edge_factor, bp.seed, nodes});
    const auto r = backend == Backend::kDv ? dvx::apps::run_bfs_dv(cluster, bp, *graph)
                                           : dvx::apps::run_bfs_mpi(cluster, bp, *graph);
    return {{"harmonic_mean_teps", r.harmonic_mean_teps},
            {"graph_edges", static_cast<double>(r.graph_edges)}};
  }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    const auto nodes = opt.nodes.empty() ? default_nodes(opt.fast) : opt.nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      // Each sweep position gets its own SplitMix64 sub-seed of the root
      // --seed; the DV and MPI points share it so both search the same
      // graph. Folded to 32 bits so the value survives the double-typed
      // ParamMap exactly.
      if (opt.seed != 0) {
        params["seed"] = static_cast<double>(
            dvx::sim::derive_seed(opt.seed, static_cast<std::uint64_t>(i)) >> 32);
      }
      // Every backend at this sweep position shares the seed, so all of
      // them search the same graph. Their points are adjacent in the plan,
      // so a serial pass builds that graph once (graphs_ keeps one).
      for (const Backend b : selected_backends(opt)) builder.add(b, nodes[i], params);
    }
    return builder.take();
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = opt.out ? *opt.out : std::cout;
    banner(os);
    const auto nodes = opt.nodes.empty() ? default_nodes(opt.fast) : opt.nodes;

    const auto backends = selected_backends(opt);
    const auto has = [&](Backend b) {
      return std::find(backends.begin(), backends.end(), b) != backends.end();
    };
    const bool dv_ib = has(Backend::kDv) && has(Backend::kMpiIb);

    std::vector<std::string> cols{"nodes"};
    for (const Backend b : backends) cols.push_back(display_name(b));
    if (dv_ib) cols.push_back("DV/IB");
    runtime::Table t("Fig 8 — harmonic-mean MTEPS vs nodes", cols);
    double first_ratio = 0, last_ratio = 0;
    bool dv_always_ahead = true;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int n = nodes[i];
      std::vector<std::string> row{std::to_string(n)};
      for (const Backend b : backends) {
        const PointResult* r = find_result(results, b, n);
        row.push_back(runtime::fmt(r->metrics.at("harmonic_mean_teps") / 1e6));
        sink.add(make_record(*r));
      }
      if (dv_ib) {
        const double ratio =
            find_result(results, Backend::kDv, n)->metrics.at("harmonic_mean_teps") /
            find_result(results, Backend::kMpiIb, n)->metrics.at("harmonic_mean_teps");
        row.push_back(runtime::fmt(ratio));
        sink.add(make_derived_record(n, {{"dv_ib_ratio", ratio}}));
        if (ratio <= 1.0) dv_always_ahead = false;
        if (i == 0) first_ratio = ratio;
        last_ratio = ratio;
      }
      t.row(row);
    }
    t.print(os);
    os << "\npaper anchors: DV TEPS above IB at every node count, and the\n"
          "DV/IB ratio grows as nodes are added.\n";

    if (dv_ib && nodes.size() >= 2) {
      sink.add_anchor(make_anchor("dv_above_ib_everywhere", dv_always_ahead ? 1.0 : 0.0,
                                  1.0, dv_always_ahead,
                                  "DV harmonic-mean TEPS above IB at every node count"));
      sink.add_anchor(make_anchor("dv_ib_gap_widens", last_ratio, first_ratio,
                                  last_ratio > first_ratio,
                                  "DV/IB TEPS ratio grows with node count"));
    }
  }

 private:
  /// What a graph is built from: its parameters and rank count.
  struct GraphKey {
    int scale = 0;
    int edge_factor = 0;
    std::uint64_t seed = 0;
    int ranks = 0;
    bool operator==(const GraphKey&) const = default;
  };

  /// Shared by the points (DESIGN.md §6.4): a graph is a pure function of
  /// its key, so which point builds it cannot move a result.
  mutable Memo<GraphKey, dvx::apps::BfsGraph> graphs_{[](const GraphKey& k) {
    return dvx::apps::build_bfs_graph(
        {.scale = k.scale, .edge_factor = k.edge_factor, .seed = k.seed}, k.ranks);
  }};
};

}  // namespace

std::unique_ptr<Workload> make_bfs_workload() { return std::make_unique<BfsWorkload>(); }

}  // namespace dvx::exp

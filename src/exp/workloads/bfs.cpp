// Figure 8 — Graph500 BFS harmonic-mean TEPS (paper §VI).
//
// Kronecker graph, level-synchronous BFS over multiple random roots.
// MPI aggregates candidates per destination (alltoall); the Data Vortex
// streams single-packet candidates with source-only aggregation. Paper:
// DV consistently above IB, gap widening with nodes. (Paper runs 64
// searches on the largest graph that fits; reproduction scales down.)

#include "apps/bfs.hpp"
#include "exp/memo.hpp"
#include "exp/node_sweep.hpp"

namespace dvx::exp {
namespace {

class BfsWorkload final : public NodeSweep {
 public:
  std::string name() const override { return "bfs"; }
  std::string figure() const override { return "fig8"; }
  std::string title() const override {
    return "Figure 8 — BFS harmonic-mean TEPS (Graph500)";
  }
  std::string paper_anchor() const override {
    return "DV consistently above IB; the gap widens with node count";
  }

  /// With --seed, the shape reseeds `seed` once per node count, so that
  /// node count's backends all search one graph.
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

 private:
  MetricMap run(runtime::Cluster& cluster, const RunPoint& point) const override {
    dvx::apps::BfsParams bp{
        .scale = static_cast<int>(point.params.at("scale")),
        .edge_factor = static_cast<int>(point.params.at("edge_factor")),
        .searches = static_cast<int>(point.params.at("searches")),
        .seed = static_cast<std::uint64_t>(point.params.at("seed")),
    };
    // Taken at execute time, not in plan(): planning builds nothing.
    const auto graph = graphs_.get({bp.scale, bp.edge_factor, bp.seed, point.nodes});
    const auto r = point.backend == Backend::kDv
                       ? dvx::apps::run_bfs_dv(cluster, bp, *graph)
                       : dvx::apps::run_bfs_mpi(cluster, bp, *graph);
    return {{"harmonic_mean_teps", r.harmonic_mean_teps},
            {"graph_edges", static_cast<double>(r.graph_edges)}};
  }

  std::vector<SweepTable> tables() const override {
    return {{"Fig 8 — harmonic-mean MTEPS vs nodes", "harmonic_mean_teps",
             [](double teps) { return teps / 1e6; }}};
  }
  std::string headline_metric() const override { return "harmonic_mean_teps"; }
  std::vector<RatioAnchor> anchors() const override {
    return {{RatioClaim::kAboveEverywhere,
             "DV harmonic-mean TEPS above IB at every node count"},
            {RatioClaim::kGapWidens, "DV/IB TEPS ratio grows with node count"}};
  }
  std::string note() const override {
    return "DV TEPS above IB at every node count, and the\n"
           "DV/IB ratio grows as nodes are added.\n";
  }

  /// What a graph is built from: its parameters and rank count.
  struct GraphKey {
    int scale = 0;
    int edge_factor = 0;
    std::uint64_t seed = 0;
    int ranks = 0;
    bool operator==(const GraphKey&) const = default;
  };

  /// Shared by the points (DESIGN.md §6.4): a graph is a pure function of
  /// its key, so which point builds it cannot move a result. A node
  /// count's points are adjacent in the plan, so a serial pass builds each
  /// graph once although the memo keeps only one.
  mutable Memo<GraphKey, dvx::apps::BfsGraph> graphs_{[](const GraphKey& k) {
    return dvx::apps::build_bfs_graph(
        {.scale = k.scale, .edge_factor = k.edge_factor, .seed = k.seed}, k.ranks);
  }};
};

}  // namespace

std::unique_ptr<Workload> make_bfs_workload() { return std::make_unique<BfsWorkload>(); }

}  // namespace dvx::exp

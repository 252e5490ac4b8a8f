// Figure 6 — GUPS at scale (paper §VI).
//
// (a) updates per second per processing element: ideally flat under weak
// scaling; the MPI/IB implementation declines steadily from 4 to 32 nodes
// while the Data Vortex implementation stays roughly flat.
// (b) aggregate MUPS: DV far above IB, with the gap widening with nodes.

#include "apps/gups.hpp"
#include "exp/node_sweep.hpp"

namespace dvx::exp {
namespace {

class GupsWorkload final : public NodeSweep {
 public:
  std::string name() const override { return "gups"; }
  std::string figure() const override { return "fig6"; }
  std::string title() const override {
    return "Figure 6 — GUPS (weak scaling, 1024-update buffers)";
  }
  std::string paper_anchor() const override {
    return "DV per-PE rate ~flat; IB declines with node count; aggregate gap widens";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"local_table_words", 1 << 16, 1 << 16, "GUPS table words per node"},
        {"updates_per_node", 1 << 16, 1 << 13, "updates issued per node (weak scaling)"},
        {"buffer_limit", 1024, 1024, "HPCC aggregation cap"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"roi_seconds", "s", "virtual ROI time of the timed pass"},
        {"gups", "GUPS", "aggregate giga-updates per second"},
        {"mups_per_pe", "MUPS", "mega-updates per second per processing element"},
    };
  }

  std::vector<int> default_nodes(bool) const override { return paper_node_counts(4); }

 private:
  MetricMap run(runtime::Cluster& cluster, const RunPoint& point) const override {
    dvx::apps::GupsParams gp{
        .local_table_words = static_cast<std::uint64_t>(point.params.at("local_table_words")),
        .updates_per_node = static_cast<std::uint64_t>(point.params.at("updates_per_node")),
        .buffer_limit = static_cast<int>(point.params.at("buffer_limit")),
    };
    const auto r = point.backend == Backend::kDv ? dvx::apps::run_gups_dv(cluster, gp)
                                                 : dvx::apps::run_gups_mpi(cluster, gp);
    return {{"roi_seconds", r.seconds},
            {"gups", r.gups()},
            {"mups_per_pe", r.mups_per_pe(point.nodes)}};
  }

  std::vector<SweepTable> tables() const override {
    return {{"Fig 6a — updates per second per PE (MUPS)", "mups_per_pe",
             [](double mups) { return mups; }},
            {"Fig 6b — aggregated updates per second (MUPS)", "gups",
             [](double gups) { return gups * 1e3; }}};
  }
  std::string headline_metric() const override { return "gups"; }
  std::vector<RatioAnchor> anchors() const override {
    return {{RatioClaim::kGapWidens, "aggregate DV/IB ratio grows with node count"},
            {RatioClaim::kAboveAtScale,
             "DV aggregate rate above IB at the largest sweep point"}};
  }
  std::string note() const override {
    return "IB per-PE MUPS decrease steadily 4 -> 32 nodes;\n"
           "DV stays ~constant (small dip 4 -> 8); the aggregate gap grows\n"
           "with node count.\n";
  }
};

}  // namespace

std::unique_ptr<Workload> make_gups_workload() { return std::make_unique<GupsWorkload>(); }

}  // namespace dvx::exp

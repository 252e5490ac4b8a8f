// Figure 9 — application speedup, Data Vortex vs MPI-over-InfiniBand
// (paper §VII).
//
// Three applications at 32 nodes:
//   SNAP      — best-effort port (aggregated puts + counters): paper 1.19x
//   Vorticity — aggressive restructuring (spectral solver whose transposes
//               scatter straight into VIC memory)
//   Heat      — aggressive restructuring (one DMA batch for all halos +
//               counter completion)
// The paper reports "between 2.46x and 3.41x" for Vorticity and Heat
// without binding either number to either application; EXPERIMENTS.md
// records the mapping this reproduction observes.

#include <ostream>

#include "apps/heat.hpp"
#include "apps/snap.hpp"
#include "apps/vorticity.hpp"
#include "exp/workload.hpp"
#include "runtime/cluster.hpp"
#include "runtime/constants.hpp"

namespace dvx::exp {
namespace {

namespace runtime = dvx::runtime;

// ParamMap "app" encoding.
enum App { kSnap = 0, kVorticity = 1, kHeat = 2 };
constexpr const char* kAppNames[3] = {"snap", "vorticity", "heat"};

class AppsWorkload final : public Workload {
 public:
  std::string name() const override { return "apps"; }
  std::string figure() const override { return "fig9"; }
  std::string title() const override {
    return "Figure 9 — application speedup w.r.t. MPI-over-Infiniband";
  }
  std::string paper_anchor() const override {
    return "SNAP 1.19x (best-effort port); Vorticity/Heat 2.46x-3.41x (restructured)";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"app", 0, 0, "which application: 0=SNAP 1=Vorticity 2=Heat"},
        {"snap_max_outer", 4, 2, "SNAP source (scattering) iterations"},
        {"vorticity_n", 256, 256, "Vorticity grid points per side"},
        {"vorticity_steps", 8, 3, "Vorticity RK2 time steps"},
        {"heat_n", 24, 24, "Heat global grid points per side"},
        {"heat_steps", 40, 10, "Heat diffusion steps"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {{"roi_seconds", "s", "virtual ROI time of the application run"}};
  }

  std::vector<int> default_nodes(bool) const override { return {32}; }

  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
        return true;
      case Backend::kMpiTorus:
        // Figure 9's headline numbers are speedups over the paper's
        // MPI-over-IB baseline; a torus baseline is a different figure.
        return false;
    }
    return false;
  }

  MetricMap execute(const RunPoint& point, std::ostream&) const override {
    runtime::Cluster cluster(cluster_config(point.backend, point.nodes));
    const ParamMap& params = point.params;
    const bool dv = point.backend == Backend::kDv;
    double seconds = 0.0;
    switch (static_cast<App>(static_cast<int>(params.at("app")))) {
      case kSnap: {
        dvx::apps::SnapParams sp{.max_outer = static_cast<int>(params.at("snap_max_outer"))};
        seconds = dv ? dvx::apps::run_snap_dv(cluster, sp).seconds
                     : dvx::apps::run_snap_mpi(cluster, sp).seconds;
        break;
      }
      case kVorticity: {
        dvx::apps::VorticityParams vp{
            .n = static_cast<int>(params.at("vorticity_n")),
            .steps = static_cast<int>(params.at("vorticity_steps"))};
        seconds = dv ? dvx::apps::run_vorticity_dv(cluster, vp).seconds
                     : dvx::apps::run_vorticity_mpi(cluster, vp).seconds;
        break;
      }
      case kHeat: {
        const int n = static_cast<int>(params.at("heat_n"));
        dvx::apps::HeatParams hp{.global_nx = n, .global_ny = n, .global_nz = n,
                                 .steps = static_cast<int>(params.at("heat_steps"))};
        seconds = dv ? dvx::apps::run_heat_dv(cluster, hp).seconds
                     : dvx::apps::run_heat_mpi(cluster, hp).seconds;
        break;
      }
    }
    return {{"roi_seconds", seconds}};
  }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    const auto backends = selected_backends(opt);
    for (const int nodes : node_counts(opt)) {
      for (int app = 0; app < 3; ++app) {
        params["app"] = app;
        for (const Backend b : backends) builder.add(b, nodes, params, kAppNames[app]);
      }
    }
    return builder.take();
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);
    const bool want_dv = selects(opt, Backend::kDv);
    const bool want_ib = selects(opt, Backend::kMpiIb);
    const double paper_speedup[3] = {runtime::paper::kSnapSpeedup,
                                     runtime::paper::kVorticitySpeedup,
                                     runtime::paper::kHeatSpeedup};
    const char* paper_label[3] = {"1.19", "3.41", "2.46"};

    for (const int nodes : node_counts(opt)) {
      std::vector<std::string> cols{"application"};
      if (want_dv) cols.push_back("DV time");
      if (want_ib) cols.push_back("MPI time");
      if (want_dv && want_ib) cols.insert(cols.end(), {"speedup", "paper"});
      runtime::Table t("Fig 9 — Data Vortex speedup over MPI/IB (" +
                           std::to_string(nodes) + " nodes)",
                       cols);
      for (int app = 0; app < 3; ++app) {
        const PointResult* dv =
            want_dv ? find_result(results, Backend::kDv, nodes, kAppNames[app]) : nullptr;
        const PointResult* mpi =
            want_ib ? find_result(results, Backend::kMpiIb, nodes, kAppNames[app])
                    : nullptr;
        std::vector<std::string> row{
            app == kSnap ? "SNAP" : (app == kVorticity ? "Vorticity" : "Heat")};
        if (dv) {
          row.push_back(runtime::fmt_us(dv->metrics.at("roi_seconds") * 1e6));
          sink.add(make_record(*dv));
        }
        if (mpi) {
          row.push_back(runtime::fmt_us(mpi->metrics.at("roi_seconds") * 1e6));
          sink.add(make_record(*mpi));
        }
        if (dv && mpi) {
          const double speedup =
              mpi->metrics.at("roi_seconds") / dv->metrics.at("roi_seconds");
          row.push_back(runtime::fmt(speedup));
          row.push_back(paper_label[app]);
          sink.add(make_derived_record(nodes, {{"speedup", speedup}}, kAppNames[app]));
          // The restructured apps must land loosely around the paper's
          // 2.46-3.41x band and SNAP near 1.19x; checked at the paper's 32
          // nodes. The detail states the bound the check tests, then the
          // paper's figure.
          if (nodes == 32) {
            const bool pass = app == kSnap ? (speedup > 1.0 && speedup < 1.5)
                                           : (speedup > 2.0 && speedup < 4.5);
            sink.add_anchor(make_anchor(
                std::string(kAppNames[app]) + "_speedup", speedup, paper_speedup[app],
                pass,
                app == kSnap
                    ? "checks 1.0 < speedup < 1.5; paper: 1.19x, a small gain for "
                      "the best-effort port"
                    : "checks 2.0 < speedup < 4.5; paper: the restructured apps "
                      "land in the 2.46-3.41x band"));
          }
        }
        t.row(std::move(row));
      }
      t.print(os);
    }
    os << "\npaper anchors: the best-effort SNAP port yields the smallest gain\n"
          "(1.19x); the two restructured applications land in the 2.5-3.5x\n"
          "band. The 2.46/3.41 assignment to Vorticity/Heat is this\n"
          "reproduction's reading of the unlabeled range in the text.\n";
  }
};

}  // namespace

std::unique_ptr<Workload> make_apps_workload() { return std::make_unique<AppsWorkload>(); }

}  // namespace dvx::exp

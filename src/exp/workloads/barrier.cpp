// Figure 4 — global-barrier latency at scale (paper §V).
//
// Three implementations: the Data Vortex API intrinsic (two reserved group
// counters, completed inside the VICs — nearly flat in node count), the
// in-house all-to-all "FastBarrier", and MPI over InfiniBand (grows
// markedly with node count; ~13 us at 32 nodes in the paper).

#include <ostream>

#include "dvapi/context.hpp"
#include "exp/workload.hpp"
#include "mpi/comm.hpp"
#include "runtime/cluster.hpp"

namespace dvx::exp {
namespace {

namespace sim = dvx::sim;
namespace runtime = dvx::runtime;
using sim::Coro;

double dv_barrier_us(int nodes, bool fast_barrier, int reps) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = nodes});
  double out = 0.0;
  cluster.run_dv([&](dvx::dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    // Warm-up (priming for FastBarrier), then timed repetitions.
    if (fast_barrier) {
      co_await ctx.fast_barrier();
    } else {
      co_await ctx.barrier();
    }
    const sim::Time t0 = node.now();
    for (int r = 0; r < reps; ++r) {
      if (fast_barrier) {
        co_await ctx.fast_barrier();
      } else {
        co_await ctx.barrier();
      }
    }
    if (ctx.rank() == 0) out = sim::to_us(node.now() - t0) / reps;
  });
  return out;
}

double mpi_barrier_us(int nodes, int reps) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = nodes});
  double out = 0.0;
  cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
    co_await comm.barrier();
    const sim::Time t0 = node.now();
    for (int r = 0; r < reps; ++r) co_await comm.barrier();
    if (comm.rank() == 0) out = sim::to_us(node.now() - t0) / reps;
  });
  return out;
}

class BarrierWorkload final : public Workload {
 public:
  std::string name() const override { return "barrier"; }
  std::string figure() const override { return "fig4"; }
  std::string title() const override {
    return "Figure 4 — global barrier latency at scale";
  }
  std::string paper_anchor() const override {
    return "DV barrier nearly flat (~1 us); MPI/IB grows to ~13 us at 32 nodes";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"reps", 10, 10, "timed barrier repetitions per point"},
        {"fast_barrier", 0, 0, "DV only: 1 = the all-to-all FastBarrier variant"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {{"latency_us", "us", "mean barrier latency"}};
  }

  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
        return true;
      case Backend::kMpiTorus:
        // The figure contrasts the DV intrinsic against the paper's IB
        // measurement; a torus barrier has no paper anchor to land on.
        return false;
    }
    return false;
  }

  MetricMap execute(const RunPoint& point, std::ostream&) const override {
    const int reps = static_cast<int>(point.params.at("reps"));
    if (point.backend == Backend::kMpiIb) {
      return {{"latency_us", mpi_barrier_us(point.nodes, reps)}};
    }
    const bool fast_barrier = point.params.at("fast_barrier") != 0;
    return {{"latency_us", dv_barrier_us(point.nodes, fast_barrier, reps)}};
  }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    const bool want_dv = selects(opt, Backend::kDv);
    const bool want_ib = selects(opt, Backend::kMpiIb);
    for (const int n : node_counts(opt)) {
      if (want_dv) {
        params["fast_barrier"] = 0;
        builder.add(Backend::kDv, n, params, "intrinsic");
        params["fast_barrier"] = 1;
        builder.add(Backend::kDv, n, params, "fast_barrier");
        params["fast_barrier"] = 0;
      }
      if (want_ib) builder.add(Backend::kMpiIb, n, params);
    }
    return builder.take();
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);
    const auto nodes = node_counts(opt);
    const bool want_dv = selects(opt, Backend::kDv);
    const bool want_ib = selects(opt, Backend::kMpiIb);

    std::vector<std::string> cols{"nodes"};
    if (want_dv) cols.insert(cols.end(), {"Data Vortex", "FastBarrier"});
    if (want_ib) cols.push_back("Infiniband");
    runtime::Table t("Fig 4 — barrier latency (us) vs nodes", cols);
    double dv_first = 0, dv_last = 0, mpi_first = 0, mpi_last = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int n = nodes[i];
      std::vector<std::string> row{std::to_string(n)};
      if (want_dv) {
        const PointResult* dv = find_result(results, Backend::kDv, n, "intrinsic");
        const PointResult* fb = find_result(results, Backend::kDv, n, "fast_barrier");
        sink.add(make_record(*dv));
        sink.add(make_record(*fb));
        row.push_back(runtime::fmt(dv->metrics.at("latency_us")));
        row.push_back(runtime::fmt(fb->metrics.at("latency_us")));
        if (i == 0) dv_first = dv->metrics.at("latency_us");
        dv_last = dv->metrics.at("latency_us");
      }
      if (want_ib) {
        const PointResult* mpi = find_result(results, Backend::kMpiIb, n);
        sink.add(make_record(*mpi));
        row.push_back(runtime::fmt(mpi->metrics.at("latency_us")));
        if (i == 0) mpi_first = mpi->metrics.at("latency_us");
        mpi_last = mpi->metrics.at("latency_us");
      }
      t.row(std::move(row));
    }
    t.print(os);
    os << "\npaper anchors: DV nearly constant with node count; MPI rises\n"
          "steeply past 8 nodes, reaching low-teens of microseconds at 32.\n";

    if (want_dv && want_ib && nodes.size() >= 2 && dv_first > 0 && mpi_first > 0) {
      sink.add_anchor(make_anchor("dv_barrier_flat", dv_last / dv_first, 1.0,
                                  dv_last / dv_first < 1.5,
                                  "DV latency growth across the sweep stays small"));
      sink.add_anchor(make_anchor("mpi_barrier_grows", mpi_last / mpi_first, 1.0,
                                  mpi_last / mpi_first > dv_last / dv_first,
                                  "MPI latency grows faster than DV across the sweep"));
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_barrier_workload() {
  return std::make_unique<BarrierWorkload>();
}

}  // namespace dvx::exp

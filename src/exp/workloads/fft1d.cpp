// Figure 7 — distributed FFT-1D aggregate GFLOPS (paper §VI).
//
// Six-step 1-D FFT; the three distributed transposes carry all of the
// communication. The Data Vortex folds the redistribution into the network
// operation (scatter into VIC memory with cached headers); MPI packs,
// alltoalls, and unpacks. Paper: DV above IB with a gap that widens with
// node count. (Paper size 2^33 points; reproduction default 2^20.)

#include <span>
#include <utility>

#include "apps/fft1d.hpp"
#include "exp/memo.hpp"
#include "exp/node_sweep.hpp"
#include "exp/pool.hpp"
#include "exp/workloads/fft1d.hpp"

namespace dvx::exp {
namespace {

class Fft1dWorkload final : public NodeSweep {
 public:
  Fft1dWorkload(FftInputBuild build_input, FftBuffersMake make_buffers)
      : inputs_(std::move(build_input)), buffers_(std::move(make_buffers)) {}

  std::string name() const override { return "fft1d"; }
  std::string figure() const override { return "fig7"; }
  std::string title() const override { return "Figure 7 — FFT-1D aggregate GFLOPS"; }
  std::string paper_anchor() const override {
    return "DV wins and the gap widens with nodes (paper ran 2^33 points; "
           "this reproduction defaults to 2^20)";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {{"log_size", 20, 16, "N = 2^log_size points"}};
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"roi_seconds", "s", "virtual ROI time of the transform"},
        {"gflops", "GFLOPS", "aggregate floating-point rate"},
    };
  }

 private:
  MetricMap run(runtime::Cluster& cluster, const RunPoint& point) const override {
    dvx::apps::FftParams fp{.log_size = static_cast<int>(point.params.at("log_size"))};
    // Taken at execute time, not in plan(): planning builds nothing.
    const auto input = inputs_.get(fp.log_size);
    const auto buffers = buffers_.take();
    buffers->resize(2 * input->size());  // a no-op on a set an earlier point sized
    const auto output = std::span(*buffers).first(input->size());
    const auto scratch = std::span(*buffers).last(input->size());
    const auto r = point.backend == Backend::kDv
                       ? dvx::apps::run_fft_dv(cluster, fp, *input, output, scratch)
                       : dvx::apps::run_fft_mpi(cluster, fp, *input, output, scratch);
    return {{"roi_seconds", r.seconds}, {"gflops", r.gflops()}};
  }

  std::vector<SweepTable> tables() const override {
    return {{"Fig 7 — aggregate GFLOPS vs nodes", "gflops",
             [](double gflops) { return gflops; }}};
  }
  std::string headline_metric() const override { return "gflops"; }
  // This reproduction observes a crossover at ~16 nodes (EXPERIMENTS.md);
  // the paper-regime anchor is the widening gap and a DV lead at 32.
  std::vector<RatioAnchor> anchors() const override {
    return {{RatioClaim::kGapWidens, "DV/IB GFLOPS ratio grows with node count"}};
  }
  std::string note() const override {
    return "both curves rise with node count; DV consistently\n"
           "above IB and the DV/IB ratio grows with nodes.\n";
  }

  /// Shared by the points (DESIGN.md §6.4): every point of a sweep has one
  /// log_size, so a sweep builds its input once.
  mutable Memo<int, std::vector<dvx::kernels::Complex>> inputs_;
  /// Lent to one point at a time: a serial sweep makes one buffer set and
  /// faults its pages in once, not at every point.
  mutable Pool<FftBuffers> buffers_;
};

}  // namespace

std::unique_ptr<Workload> make_fft1d_workload() {
  return make_fft1d_workload(dvx::apps::make_fft_input, [] { return FftBuffers{}; });
}

std::unique_ptr<Workload> make_fft1d_workload(FftInputBuild build_input,
                                              FftBuffersMake make_buffers) {
  return std::make_unique<Fft1dWorkload>(std::move(build_input), std::move(make_buffers));
}

}  // namespace dvx::exp

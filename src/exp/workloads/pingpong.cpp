// Figure 3 — ping-pong network bandwidth vs message size (paper §V).
//
// Reproduces both panels: (a) absolute bandwidth for the three Data Vortex
// send paths (DWr/NoCached, DWr/Cached, DMA/Cached) and MPI-over-IB;
// (b) the same as a percentage of each network's nominal peak (DV 4.4 GB/s,
// IB 6.8 GB/s). Paper anchors: DV DMA reaches 99.4% of peak at 256 Ki
// words; IB reaches only ~72%; direct writes plateau at the 0.5 GB/s PCIe
// lane limit; IB leads in the 32-128-word range and beyond 512 words.

#include <algorithm>
#include <iostream>
#include <vector>

#include "dvapi/collectives.hpp"
#include "dvapi/context.hpp"
#include "exp/workload.hpp"
#include "mpi/comm.hpp"
#include "runtime/cluster.hpp"
#include "runtime/constants.hpp"

namespace dvx::exp {
namespace {

namespace sim = dvx::sim;
namespace vic = dvx::vic;
namespace dvapi = dvx::dvapi;
namespace runtime = dvx::runtime;
using sim::Coro;

// DV send paths, in ParamMap "path" encoding order.
enum class Path { kDirect = 0, kCached = 1, kDma = 2 };
constexpr const char* kPathNames[3] = {"dwr_nocached", "dwr_cached", "dma_cached"};

/// One-way bandwidth of a ping-pong with `words`-word messages.
double pingpong_bw_mpi(std::int64_t words, int reps) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 2});
  double out = 0.0;
  cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
    std::vector<std::uint64_t> payload(static_cast<std::size_t>(words), 7);
    co_await comm.barrier();
    const sim::Time t0 = node.now();
    for (int r = 0; r < reps; ++r) {
      if (comm.rank() == 0) {
        co_await comm.send(1, 0, payload);
        auto back = co_await comm.recv(1, 1);
        payload = std::move(back.data);
      } else {
        auto msg = co_await comm.recv(0, 0);
        co_await comm.send(0, 1, std::move(msg.data));
      }
    }
    if (comm.rank() == 0) {
      const double rtts = sim::to_seconds(node.now() - t0) / reps;
      out = static_cast<double>(words * 8) / (rtts / 2.0);
    }
  });
  return out;
}

double pingpong_bw_dv(Path path, std::int64_t words, int reps) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 2});
  double out = 0.0;
  constexpr int kCtr = dvapi::kFirstFreeCounter;
  cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    const int peer = 1 - ctx.rank();
    std::vector<vic::Packet> batch(static_cast<std::size_t>(words));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].header = vic::Header{static_cast<std::uint16_t>(peer),
                                    vic::DestKind::kDvMemory,
                                    static_cast<std::uint8_t>(kCtr),
                                    dvapi::kFirstFreeDvWord + static_cast<std::uint32_t>(i)};
      batch[i].payload = i;
    }
    auto send_one = [&]() -> Coro<void> {
      switch (path) {
        case Path::kDirect: co_await ctx.send_direct_batch(batch); break;
        case Path::kCached: co_await ctx.send_cached_batch(batch); break;
        default: co_await ctx.send_dma_batch(batch); break;
      }
    };
    co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
    co_await ctx.barrier();
    const sim::Time t0 = node.now();
    for (int r = 0; r < reps; ++r) {
      if (ctx.rank() == 0) {
        co_await send_one();
        co_await ctx.counter_wait_zero(kCtr);
        co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
        // Copy the received words back to host memory (paper's rule: the
        // whole message must land in host memory each hop). Multi-buffered:
        // the drain DMA overlaps the next iteration's traffic; successive
        // drains queue on the engine, so sustained rates stay honest.
        std::vector<std::uint64_t> host(static_cast<std::size_t>(words));
        ctx.dma_read_dv_async(dvapi::kFirstFreeDvWord,
                              std::as_writable_bytes(std::span(host)));
      } else {
        co_await ctx.counter_wait_zero(kCtr);
        co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
        std::vector<std::uint64_t> host(static_cast<std::size_t>(words));
        ctx.dma_read_dv_async(dvapi::kFirstFreeDvWord,
                              std::as_writable_bytes(std::span(host)));
        co_await send_one();
      }
    }
    if (ctx.rank() == 0) {
      const double rtts = sim::to_seconds(node.now() - t0) / reps;
      out = static_cast<double>(words * 8) / (rtts / 2.0);
    }
    co_await ctx.barrier();
  });
  return out;
}

class PingpongWorkload final : public Workload {
 public:
  std::string name() const override { return "pingpong"; }
  std::string figure() const override { return "fig3"; }
  std::string title() const override {
    return "Figure 3 — ping-pong bandwidth vs message size";
  }
  std::string paper_anchor() const override {
    return "DV DMA/Cached hits 99.4% of 4.4 GB/s at 256Ki words; IB ~72% "
           "of 6.8 GB/s; direct writes capped by the 0.5 GB/s PCIe lane";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"max_log_words", 18, 14, "largest message is 2^max_log_words words"},
        {"reps", 3, 3, "timed ping-pong repetitions per point"},
        {"words", 0, 0, "message size of one point (set per point by the sweep)"},
        {"path", 2, 2, "DV send path: 0=DWr/NoCached 1=DWr/Cached 2=DMA/Cached"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"bytes_per_sec", "B/s", "one-way ping-pong bandwidth"},
        {"fraction_of_peak", "", "bandwidth over the network's nominal peak"},
    };
  }

  std::vector<int> default_nodes(bool) const override { return {2}; }

  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
        return true;
      case Backend::kMpiTorus:
        // The peak-fraction panel is defined against the two nominal peaks
        // the paper states; the torus has no paper peak to normalize by.
        return false;
    }
    return false;
  }

  MetricMap run_backend(Backend backend, int /*nodes*/,
                        const ParamMap& params) const override {
    const auto words = static_cast<std::int64_t>(params.at("words"));
    const int reps = static_cast<int>(params.at("reps"));
    double bw = 0.0;
    double peak = runtime::paper::kDvPeakBw;
    if (backend == Backend::kMpiIb) {
      bw = pingpong_bw_mpi(words, reps);
      peak = runtime::paper::kIbPeakBw;
    } else {
      bw = pingpong_bw_dv(static_cast<Path>(static_cast<int>(params.at("path"))), words,
                          reps);
    }
    return {{"bytes_per_sec", bw}, {"fraction_of_peak", bw / peak}};
  }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    const int max_log = static_cast<int>(params.at("max_log_words"));
    const auto backends = selected_backends(opt);
    const auto has = [&](Backend b) {
      return std::find(backends.begin(), backends.end(), b) != backends.end();
    };
    for (int lg = 0; lg <= max_log; lg += 2) {
      params["words"] = static_cast<double>(1LL << lg);
      if (has(Backend::kDv)) {
        for (int p = 0; p < 3; ++p) {
          params["path"] = p;
          builder.add(Backend::kDv, 2, params, kPathNames[p]);
        }
      }
      if (has(Backend::kMpiIb)) builder.add(Backend::kMpiIb, 2, params);
    }
    return builder.take();
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = opt.out ? *opt.out : std::cout;
    banner(os);
    const int max_log = static_cast<int>(default_params(opt.fast).at("max_log_words"));
    const auto backends = selected_backends(opt);
    const auto has = [&](Backend b) {
      return std::find(backends.begin(), backends.end(), b) != backends.end();
    };
    const bool dv = has(Backend::kDv);
    const bool ib = has(Backend::kMpiIb);

    std::vector<std::string> cols{"words"};
    if (dv) cols.insert(cols.end(), {"DWr/NoCached", "DWr/Cached", "DMA/Cached"});
    if (ib) cols.push_back("MPI");
    runtime::Table abs("Fig 3a — absolute ping-pong bandwidth (GB/s)", cols);
    runtime::Table rel("Fig 3b — percentage of nominal peak bandwidth", cols);
    double last_bw[4] = {0, 0, 0, 0};       // per series, at the largest size
    double last_frac[4] = {0, 0, 0, 0};
    std::size_t r = 0;  // mirrors plan order: DV path series, then MPI
    for (int lg = 0; lg <= max_log; lg += 2) {
      std::vector<std::string> abs_row{std::to_string(1LL << lg)};
      std::vector<std::string> rel_row{std::to_string(1LL << lg)};
      auto take = [&](int series) {
        const PointResult& point = results[r++];
        last_bw[series] = point.metrics.at("bytes_per_sec");
        last_frac[series] = point.metrics.at("fraction_of_peak");
        abs_row.push_back(runtime::fmt(last_bw[series] / 1e9, 3));
        rel_row.push_back(runtime::fmt(100 * last_frac[series], 1));
        sink.add(make_record(point));
      };
      if (dv) {
        for (int series = 0; series < 3; ++series) take(series);
      }
      if (ib) take(3);
      abs.row(std::move(abs_row));
      rel.row(std::move(rel_row));
    }
    abs.print(os);
    rel.print(os);
    os << "\npaper anchors: DV DMA 99.4% @256Ki words; IB ~72% @256Ki words;\n"
          "direct-write plateau ~0.5 GB/s; IB leads for 32-128 and >512 words.\n";

    // Anchors at the largest message measured. The peak-fraction claims are
    // only meaningful at the paper's 256 Ki-word point, i.e. not in fast mode.
    if (dv) {
      sink.add_anchor(make_anchor(
          "dv_dma_beats_pio_paths", last_bw[2], last_bw[1], last_bw[2] > last_bw[1],
          "DMA/Cached above DWr/Cached at the largest message"));
      sink.add_anchor(make_anchor(
          "direct_write_pcie_cap", last_bw[0], runtime::paper::kPcieDirectWriteBw,
          last_bw[0] <= 1.2 * runtime::paper::kPcieDirectWriteBw,
          "DWr/NoCached capped by the 0.5 GB/s PCIe lane"));
    }
    if (max_log >= 18) {
      if (dv) {
        sink.add_anchor(make_anchor("dv_dma_fraction_of_peak", last_frac[2],
                                    runtime::paper::kDvPeakFraction256k,
                                    last_frac[2] > 0.95,
                                    "paper: 99.4% of DV peak at 256 Ki words"));
      }
      if (ib) {
        sink.add_anchor(make_anchor("ib_fraction_of_peak", last_frac[3],
                                    runtime::paper::kIbPeakFraction256k,
                                    last_frac[3] < 0.85,
                                    "paper: IB only ~72% of its peak"));
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_pingpong_workload() {
  return std::make_unique<PingpongWorkload>();
}

}  // namespace dvx::exp

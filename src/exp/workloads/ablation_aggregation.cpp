// Ablation — how much the paper's "lessons learned" optimizations matter.
//
//  1. Source aggregation (GUPS): sweep the update-buffer size. Small
//     buffers mean one PCIe DMA per few packets — the I/O latency is not
//     amortized and the DV advantage collapses (paper §VI: batches "can be
//     aggregated for transfer across the PCIe bus").
//  2. Send-path choice (bulk puts): the same 64 KiB put issued through the
//     three API paths — the DMA/Cached path is the only one that feeds the
//     fabric at line rate (paper §V).

#include <ostream>
#include <vector>

#include "apps/gups.hpp"
#include "dvapi/collectives.hpp"
#include "dvapi/context.hpp"
#include "exp/workload.hpp"
#include "runtime/cluster.hpp"

namespace dvx::exp {
namespace {

namespace sim = dvx::sim;
namespace vic = dvx::vic;
namespace dvapi = dvx::dvapi;
namespace runtime = dvx::runtime;
using sim::Coro;

constexpr const char* kPathNames[3] = {"dwr_nocached", "dwr_cached", "dma_cached"};

double put_path_seconds(int which, std::int64_t words) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 2});
  double out = 0.0;
  constexpr int kCtr = dvapi::kFirstFreeCounter;
  cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    if (ctx.rank() == 1) {
      co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
    }
    co_await ctx.barrier();
    const sim::Time t0 = node.now();
    if (ctx.rank() == 0) {
      std::vector<vic::Packet> batch(static_cast<std::size_t>(words));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].header =
            vic::Header{1, vic::DestKind::kDvMemory, static_cast<std::uint8_t>(kCtr),
                        dvapi::kFirstFreeDvWord + static_cast<std::uint32_t>(i)};
        batch[i].payload = i;
      }
      switch (which) {
        case 0: co_await ctx.send_direct_batch(batch); break;
        case 1: co_await ctx.send_cached_batch(batch); break;
        default: co_await ctx.send_dma_batch(batch); break;
      }
    } else {
      co_await ctx.counter_wait_zero(kCtr);
      out = sim::to_seconds(node.now() - t0);
    }
    co_await ctx.barrier();
  });
  return out;
}

class AblationAggregationWorkload final : public Workload {
 public:
  std::string name() const override { return "ablation_aggregation"; }
  std::string figure() const override { return "ablation_aggregation"; }
  std::string title() const override {
    return "Ablation — aggregation and send-path choices";
  }
  std::string paper_anchor() const override {
    return "quantifies the paper's 'lessons learned'";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"local_table_words", 1 << 14, 1 << 14, "GUPS table words per node"},
        {"updates_per_node", 1 << 14, 1 << 12, "GUPS updates per node"},
        {"buffer_limit", 1024, 1024, "GUPS source-side batch size (swept)"},
        {"put_words", 64 * 1024, 64 * 1024, "words in the bulk-put comparison"},
        {"path", 2, 2, "DV send path for the put: 0/1/2 (swept)"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"aggregate_mups", "MUPS", "GUPS sweep: aggregate update rate"},
        {"put_seconds", "s", "put sweep: receiver-visible completion time"},
        {"put_bytes_per_sec", "B/s", "put sweep: effective bandwidth"},
    };
  }

  std::vector<int> default_nodes(bool) const override { return {16}; }

  // The ablation probes Data Vortex API choices; there is no network
  // comparison in it, so it only has a dv series.
  bool has_backend(Backend b) const override { return b == Backend::kDv; }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    const int nodes = one_node_count(opt, default_nodes(opt.fast).front());
    PlanBuilder builder(*this, opt);
    if (selected_backends(opt).empty()) return builder.take();  // dv filtered out
    ParamMap params = default_params(opt.fast);
    for (int buf : {1024, 128, 16}) {
      params["buffer_limit"] = buf;
      builder.add(Backend::kDv, nodes, params, "buffer_sweep");
    }
    params["buffer_limit"] = 1024;
    for (int p = 0; p < 3; ++p) {
      params["path"] = p;
      builder.add(Backend::kDv, 2, params, kPathNames[p]);
    }
    return builder.take();
  }

  // The buffer-sweep points run GUPS on the Data Vortex and the put-path
  // points time a bulk put; dispatch on the variant the plan assigned.
  MetricMap execute(const RunPoint& point, std::ostream&) const override {
    const ParamMap& params = point.params;
    if (point.variant == "buffer_sweep") {
      runtime::Cluster cluster(runtime::ClusterConfig{.nodes = point.nodes});
      dvx::apps::GupsParams gp{
          .local_table_words = static_cast<std::uint64_t>(params.at("local_table_words")),
          .updates_per_node = static_cast<std::uint64_t>(params.at("updates_per_node")),
          .buffer_limit = static_cast<int>(params.at("buffer_limit")),
      };
      return {{"aggregate_mups", dvx::apps::run_gups_dv(cluster, gp).gups() * 1e3}};
    }
    const auto words = static_cast<std::int64_t>(params.at("put_words"));
    const double s = put_path_seconds(static_cast<int>(params.at("path")), words);
    return {{"put_seconds", s},
            {"put_bytes_per_sec", static_cast<double>(words * 8) / s}};
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);
    if (results.empty()) {  // e.g. --backends without dv
      os << "\n(no points: this ablation only has a dv series)\n";
      return;
    }
    const int nodes = results.front().point.nodes;  // the buffer sweep's, planned first

    runtime::Table t1("GUPS-DV vs PCIe aggregation (" + std::to_string(nodes) +
                          " nodes): update-buffer sweep",
                      {"buffer (updates)", "aggregate MUPS", "vs 1024-buffer"});
    double base = 0.0, smallest = 0.0;
    const int bufs[3] = {1024, 128, 16};
    for (int i = 0; i < 3; ++i) {
      const PointResult& point = results[static_cast<std::size_t>(i)];
      const double mups = point.metrics.at("aggregate_mups");
      if (bufs[i] == 1024) base = mups;
      smallest = mups;
      t1.row({std::to_string(bufs[i]), runtime::fmt(mups), runtime::fmt(mups / base)});
      sink.add(make_record(point));
    }
    t1.print(os);

    runtime::Table t2("64 Ki-word put through each send path (receiver-visible time)",
                      {"path", "time", "effective bandwidth"});
    const char* names[3] = {"DWr/NoCached", "DWr/Cached", "DMA/Cached"};
    double path_bw[3] = {0, 0, 0};
    for (int p = 0; p < 3; ++p) {
      const PointResult& point = results[static_cast<std::size_t>(3 + p)];
      const double s = point.metrics.at("put_seconds");
      path_bw[p] = point.metrics.at("put_bytes_per_sec");
      t2.row({names[p], runtime::fmt_us(s * 1e6), runtime::fmt_gbs(path_bw[p])});
      sink.add(make_record(point));
    }
    t2.print(os);

    os << "\nreading: shrinking the source-side batch multiplies per-DMA\n"
          "setup costs into the update stream; PIO paths cap at the PCIe\n"
          "lane rate regardless of batching. Both effects motivate the\n"
          "paper's 'aggregation at source' restructuring.\n";

    sink.add_anchor(make_anchor("small_buffers_collapse_rate", smallest / base, 1.0,
                                smallest < 0.5 * base,
                                "16-update buffers lose >2x vs the 1024-update cap"));
    sink.add_anchor(make_anchor("dma_only_line_rate", path_bw[2], path_bw[1],
                                path_bw[2] > 2.0 * path_bw[1],
                                "DMA/Cached far above both PIO paths on a bulk put"));
  }
};

}  // namespace

std::unique_ptr<Workload> make_ablation_aggregation_workload() {
  return std::make_unique<AblationAggregationWorkload>();
}

}  // namespace dvx::exp

// Synthetic-traffic congestion study (DESIGN.md §8).
//
// Drives the four classic traffic patterns — uniform-random, hotspot,
// transpose-permutation, bit-reversal — through the networks, each point's
// backends replaying one offer stream on its node count: the
// cycle-accurate Data Vortex switch (measuring hops and deflections
// directly), the InfiniBand fat-tree model, and — when selected via
// --backends — the 3D-torus model (both measuring message latency
// inflation against each message alone on its idle route, so the
// contention ratio isolates queueing from path length). The headline
// anchor quantifies the paper's §II claim that deflection under contention
// costs "statistically two hops": the hotspot point's measured mean extra
// hops must straddle FabricParams::contended_extra_hops = 2.0.

#include <ostream>
#include <span>

#include "dvnet/fabric_model.hpp"
#include "dvnet/traffic.hpp"
#include "exp/workload.hpp"
#include "ib/topology.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "torus/fabric.hpp"

namespace dvx::exp {
namespace {

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;
namespace runtime = dvx::runtime;

/// Fixed generator seed: like the fabric ablation, the traffic study pins
/// its offered sequence so the measured contention point is reproducible.
constexpr std::uint64_t kTrafficSeed = 23;

constexpr dvnet::TrafficPattern kPatterns[] = {
    dvnet::TrafficPattern::kUniform,
    dvnet::TrafficPattern::kHotspot,
    dvnet::TrafficPattern::kTranspose,
    dvnet::TrafficPattern::kBitReverse,
};

/// Short network tag for the results table ("mpi"/"mpi-torus" record ids
/// stay the canonical to_string form).
const char* net_label(Backend b) {
  switch (b) {
    case Backend::kDv:
      return "dv";
    case Backend::kMpiIb:
      return "ib";
    case Backend::kMpiTorus:
      return "torus";
  }
  return "?";
}

dvnet::TrafficConfig config_from(const ParamMap& params) {
  dvnet::TrafficConfig cfg;
  cfg.pattern = static_cast<dvnet::TrafficPattern>(
      static_cast<int>(params.at("pattern")));
  cfg.offered_load = params.at("offered_load");
  cfg.hotspot_fraction = params.at("hotspot_fraction");
  return cfg;
}

class TrafficWorkload final : public Workload {
 public:
  std::string name() const override { return "traffic"; }
  std::string figure() const override { return "traffic"; }
  std::string title() const override {
    return "Synthetic traffic — congestion across patterns and networks";
  }
  std::string paper_anchor() const override {
    return "deflection costs ~2 extra hops under contention (paper §II)";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        // Calibrated so the hotspot point sits in the contended-but-stable
        // regime (hot-port offered rate ~0.77 of its ejection capacity):
        // measured mean extra hops land within [1.5, 2.5] in both modes.
        {"cycles", 4000, 1200, "switch cycles (DV) / injection rounds (MPI)"},
        {"offered_load", 0.08, 0.08, "injection probability per port per cycle"},
        {"hotspot_fraction", 0.3, 0.3, "hotspot: fraction of traffic to the hot port"},
        {"pattern", 0, 0, "traffic pattern index (swept 0..3, see variants)"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"delivered", "packets", "packets (DV) / messages (MPI) measured"},
        {"mean_hops", "hops",
         "mean hops per packet, cycle-accurate switch (DV) / links on each "
         "message's route (MPI)"},
        {"extra_hops", "hops", "mean hops minus the uncontended base (DV)"},
        {"deflections", "", "mean deflections per packet (DV)"},
        {"mean_latency_ns", "ns", "mean message latency (both networks)"},
        {"contention_ratio", "",
         "mean hops over the uncontended base (DV) / mean latency over each "
         "message's latency alone on the idle fabric (MPI)"},
    };
  }

  std::vector<int> default_nodes(bool) const override { return {32}; }

  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
      case Backend::kMpiTorus:
        return true;
    }
    return false;
  }

  MetricMap execute(const RunPoint& point, std::ostream&) const override {
    // One stream on the point's nodes: every backend replays the same offers.
    const auto cycles = static_cast<std::uint64_t>(point.params.at("cycles"));
    const auto offers =
        dvnet::synthetic_offers(config_from(point.params), point.nodes, cycles, kTrafficSeed);
    switch (point.backend) {
      case Backend::kDv:
        return run_dv(point.nodes, offers, cycles);
      case Backend::kMpiIb: {
        ib::Fabric fabric(point.nodes);
        return run_mpi(fabric, offers);
      }
      case Backend::kMpiTorus: {
        torus::Fabric fabric(point.nodes);
        return run_mpi(fabric, offers);
      }
    }
    return {};
  }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    const int nodes = one_node_count(opt, default_nodes(opt.fast).front());
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    const auto backends = selected_backends(opt);
    for (std::size_t i = 0; i < std::size(kPatterns); ++i) {
      params["pattern"] = static_cast<double>(i);
      const char* variant = dvnet::to_string(kPatterns[i]);
      for (const Backend b : backends) builder.add(b, nodes, params, variant);
    }
    return builder.take();
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);

    const int nodes = one_node_count(opt, default_nodes(opt.fast).front());
    runtime::Table t("synthetic traffic, " + std::to_string(nodes) + " ports/nodes",
                     {"pattern", "net", "delivered", "hops", "extra", "defl/pkt",
                      "latency (ns)", "vs uncontended"});
    double hotspot_extra = 0.0;
    bool saw_dv = false;
    for (const PointResult& point : results) {
      const bool dv = point.point.backend == Backend::kDv;
      t.row({point.point.variant, net_label(point.point.backend),
             runtime::fmt(point.metrics.at("delivered"), 0),
             runtime::fmt(point.metrics.at("mean_hops")),
             dv ? runtime::fmt(point.metrics.at("extra_hops")) : "-",
             dv ? runtime::fmt(point.metrics.at("deflections")) : "-",
             runtime::fmt(point.metrics.at("mean_latency_ns"), 1),
             runtime::fmt(point.metrics.at("contention_ratio"))});
      if (dv) saw_dv = true;
      if (dv && point.point.variant == "hotspot") {
        hotspot_extra = point.metrics.at("extra_hops");
      }
      sink.add(make_record(point));
    }
    t.print(os);
    os << "\nreading: under uniform and permutation traffic the Data Vortex\n"
          "traversal stays near its uncontended base, while converging hotspot\n"
          "traffic forces deflections — costing on the order of the two extra\n"
          "hops the paper quotes. Neither MPI fabric queues at this offered\n"
          "load: its mean latency is within a fraction of a percent of the\n"
          "same messages' idle-route latency. Their shared-link queueing\n"
          "shows in ablation_fabric's crossing-flow probe.\n";

    if (saw_dv) {
      const bool pass = hotspot_extra >= 1.5 && hotspot_extra <= 2.5;
      sink.add_anchor(make_anchor(
          "hotspot_extra_hops_straddles_penalty", hotspot_extra, 2.0, pass,
          "mean extra hops under hotspot contention within [1.5, 2.5] of the "
          "analytic contended_extra_hops = 2"));
    }
  }

 private:
  static MetricMap run_dv(int nodes, std::span<const dvnet::Offer> offers,
                          std::uint64_t cycles) {
    // The switch may have more ports than nodes; the spare ones stay idle.
    const dvnet::Geometry g = dvnet::Geometry::for_ports(nodes, 4);
    dvnet::CycleSwitch sw(g);
    const dvnet::TrafficResult r = dvnet::run_synthetic(sw, offers, cycles);
    const double base = dvnet::FabricParams{.geometry = g}.derived_base_hops();
    const double cycle_ns = sim::to_seconds(dvnet::FabricParams{}.cycle) * 1e9;
    return {{"delivered", static_cast<double>(r.delivered)},
            {"mean_hops", r.hops.mean()},
            {"extra_hops", r.hops.mean() - base},
            {"deflections", r.deflections.mean()},
            {"mean_latency_ns", r.latency.mean() * cycle_ns},
            {"contention_ratio", r.hops.mean() / base}};
  }

  static MetricMap run_mpi(net::Interconnect& fabric,
                           std::span<const dvnet::Offer> offers) {
    // 8-byte messages, round r at r × the NIC message-rate gap: the same
    // per-port offered rate the DV side sees, expressed in the MPI fabric's
    // natural unit.
    const auto gap = static_cast<sim::Duration>(1e12 / fabric.link().msg_rate);
    sim::RunningStats latency;
    for (const dvnet::Offer& o : offers) {
      const sim::Time now = static_cast<sim::Time>(o.round) * gap;
      const auto t = fabric.send_message(o.src, o.dst, 8, now);
      latency.add(static_cast<double>(t.first_arrival - now));
    }
    // Latency depends on the route (fat-tree: 2 or 4 links, torus: the
    // wraparound Manhattan distance), so a second pass sends each offer
    // alone on the reset fabric to measure its uncontended baseline — the
    // contention ratio then isolates link queueing from path length.
    sim::RunningStats base;
    sim::RunningStats hops;
    for (const dvnet::Offer& o : offers) {
      fabric.reset();
      const auto alone = fabric.send_message(o.src, o.dst, 8, 0);
      base.add(static_cast<double>(alone.first_arrival));
      hops.add(static_cast<double>(fabric.path_links(o.src, o.dst)));
    }
    return {{"delivered", static_cast<double>(offers.size())},
            {"mean_hops", hops.mean()},
            {"extra_hops", 0.0},
            {"deflections", 0.0},
            {"mean_latency_ns", latency.mean() / 1e3},
            {"contention_ratio", latency.mean() / base.mean()}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_traffic_workload() {
  return std::make_unique<TrafficWorkload>();
}

}  // namespace dvx::exp

// Ablation — cycle-accurate switch vs analytic fabric model (DESIGN.md §5),
// plus a three-way routing-model signature probe.
//
// Applications run on the O(1)-per-burst FabricModel; this workload
// validates that choice by comparing it against the cycle-accurate
// deflection-routing simulator on the same offered traffic: uncontended
// latency, latency under uniform load, and hotspot behaviour.
//
// When --backends explicitly selects networks, one "contention" point per
// backend measures what separates the three routing models:
//   * distance — farthest/nearest idle latency (torus pays per hop, the
//     fat-tree is 2-vs-4 links, DV is position-insensitive);
//   * crossing flows — slowdown of a victim message when a flow with
//     different endpoints shares a mid-path link (fat-tree up links and
//     torus ring links serialize; DV has no fixed path to share);
//   * hotspot — the Data Vortex absorbs converging traffic as deflections
//     (~2 extra hops, paper §II) instead of queueing delay.

#include <ostream>
#include <string>

#include "dvnet/cycle_switch.hpp"
#include "dvnet/fabric_model.hpp"
#include "dvnet/traffic.hpp"
#include "exp/workload.hpp"
#include "ib/topology.hpp"
#include "sim/stats.hpp"
#include "torus/fabric.hpp"

namespace dvx::exp {
namespace {

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;
namespace runtime = dvx::runtime;

struct LoadPoint {
  double cycle_latency;      // cycles, mean, cycle-accurate switch
  double cycle_deflections;  // mean deflections per packet
  double analytic_latency;   // cycles, FabricModel equivalent
};

LoadPoint measure(double load, std::uint64_t cycles) {
  const dvnet::Geometry g{8, 4};
  const auto offers =
      dvnet::synthetic_offers({.offered_load = load}, g.ports(), cycles, 7);
  LoadPoint out{0, 0, 0};
  // Cycle-accurate measurement.
  {
    dvnet::CycleSwitch sw(g);
    const dvnet::TrafficResult r = dvnet::run_synthetic(sw, offers, cycles);
    out.cycle_latency = r.latency.mean();
    out.cycle_deflections = r.deflections.mean();
  }
  // Analytic equivalent: the same offers, one round per word time; latency
  // in cycle units.
  {
    dvnet::FabricModel fm(dvnet::FabricParams{.geometry = g});
    sim::RunningStats lat;
    const auto word = fm.word_time();
    for (const dvnet::Offer& o : offers) {
      const sim::Time now = static_cast<sim::Time>(o.round) * word;
      const auto t = fm.send_burst(o.src, o.dst, 1, now);
      lat.add(static_cast<double>(t.first_arrival - now) / static_cast<double>(word));
    }
    out.analytic_latency = lat.mean();
  }
  return out;
}

// ---- three-way routing-model signatures (variant "contention") ----------

/// Bulk probe size: big enough that link serialization, not fixed
/// overheads, dominates the with/without-interferer comparison.
constexpr std::int64_t kProbeBytes = 64 * 1024;

/// Latency probe size: a single word, so fixed per-hop costs — not link
/// serialization — dominate the far-vs-near comparison.
constexpr std::int64_t kLatencyProbeBytes = 8;

struct Signatures {
  double near_far = 1.0;     // farthest / nearest idle latency
  double crossing = 1.0;     // victim slowdown from a crossing flow
  double uniform_defl = 0.0; // DV only: deflections/pkt, uniform traffic
  double hotspot_defl = 0.0; // DV only: deflections/pkt, hotspot traffic
  double hotspot_extra_hops = 0.0;  // DV only: mean hops above base
};

double switch_single_packet_cycles(const dvnet::Geometry& g, int dst) {
  dvnet::CycleSwitch sw(g);
  sw.inject(0, dst);
  sw.drain(100'000);
  return sw.latency_stats().mean();
}

Signatures signatures_dv(int nodes, std::uint64_t cycles) {
  const dvnet::Geometry g = dvnet::Geometry::for_ports(nodes, 4);
  Signatures out;
  out.near_far = switch_single_packet_cycles(g, g.ports() - 1) /
                 switch_single_packet_cycles(g, 1);
  // Crossing flows: the analytic model the applications run on serializes
  // only on endpoint ports, so disjoint-endpoint flows never interact —
  // the multipath/deflection assumption the cycle-accurate traffic
  // measurements below justify statistically.
  {
    dvnet::FabricModel alone(dvnet::FabricParams{.geometry = g});
    const sim::Time solo = alone.send_burst(0, 8, kProbeBytes / 8, 0).last_arrival;
    dvnet::FabricModel shared(dvnet::FabricParams{.geometry = g});
    shared.send_burst(1, 16, kProbeBytes / 8, 0);
    out.crossing =
        static_cast<double>(shared.send_burst(0, 8, kProbeBytes / 8, 0).last_arrival) /
        static_cast<double>(solo);
  }
  // Hotspot: same calibrated stable-regime config as the traffic figure
  // (hot-port offered rate ~0.77 of ejection capacity).
  dvnet::TrafficConfig uni{.pattern = dvnet::TrafficPattern::kUniform,
                           .offered_load = 0.08,
                           .hotspot_fraction = 0.3};
  dvnet::TrafficConfig hot = uni;
  hot.pattern = dvnet::TrafficPattern::kHotspot;
  const auto run = [&](const dvnet::TrafficConfig& cfg) {
    dvnet::CycleSwitch sw(g);
    const auto offers = dvnet::synthetic_offers(cfg, g.ports(), cycles, 29);
    return dvnet::run_synthetic(sw, offers, cycles);
  };
  out.uniform_defl = run(uni).deflections.mean();
  const dvnet::TrafficResult r = run(hot);
  out.hotspot_defl = r.deflections.mean();
  out.hotspot_extra_hops =
      r.hops.mean() - dvnet::FabricParams{.geometry = g}.derived_base_hops();
  return out;
}

/// Idle-fabric completion time of one message src -> dst.
double idle_latency(net::Interconnect& f, int src, int dst, std::int64_t bytes) {
  f.reset();
  return static_cast<double>(f.send_message(src, dst, bytes, 0).last_arrival);
}

/// Farthest / nearest idle latency of a one-word message from node 0, with
/// the first node of each route length as its representative (fat-tree: 2
/// links same-leaf, 4 across; torus: the wraparound Manhattan distance).
double near_far(net::Interconnect& f) {
  int near = 1, far = 1;
  for (int v = 1; v < f.nodes(); ++v) {
    if (f.path_links(0, v) < f.path_links(0, near)) near = v;
    if (f.path_links(0, v) > f.path_links(0, far)) far = v;
  }
  return idle_latency(f, 0, far, kLatencyProbeBytes) /
         idle_latency(f, 0, near, kLatencyProbeBytes);
}

Signatures signatures_ib(int nodes) {
  Signatures out;
  ib::Fabric probe(nodes);
  out.near_far = near_far(probe);
  // Crossing flows: victim 0 -> first cross-leaf node, interferer from the
  // same leaf into a third leaf. Distinct endpoints, shared leaf-0 up link.
  int leaf = nodes;
  for (int v = 1; v < nodes; ++v) {
    if (probe.path_links(0, v) > 2) {
      leaf = v;
      break;
    }
  }
  if (leaf < nodes) {
    const int other = 2 * leaf < nodes ? 2 * leaf : leaf;
    const double solo = idle_latency(probe, 0, leaf, kProbeBytes);
    probe.reset();
    probe.send_message(1, other, kProbeBytes, 0);
    out.crossing =
        static_cast<double>(probe.send_message(0, leaf, kProbeBytes, 0).last_arrival) /
        solo;
  }
  return out;
}

Signatures signatures_torus(int nodes) {
  Signatures out;
  torus::Fabric probe(nodes);
  out.near_far = near_far(probe);
  // Crossing flows along the longest ring: victim rides 2 hops, the
  // interferer (distinct endpoints) shares the middle link of its path.
  const auto& dims = probe.dims();
  int d = 0;
  for (int i = 1; i < 3; ++i) {
    if (dims[i] > dims[d]) d = i;
  }
  if (dims[d] >= 4) {
    const auto at = [&](int i) {
      std::array<int, 3> c = {0, 0, 0};
      c[static_cast<std::size_t>(d)] = i;
      return probe.node_at(c[0], c[1], c[2]);
    };
    const double solo = idle_latency(probe, at(0), at(2), kProbeBytes);
    probe.reset();
    probe.send_message(at(1), at(3), kProbeBytes, 0);
    out.crossing = static_cast<double>(
                       probe.send_message(at(0), at(2), kProbeBytes, 0).last_arrival) /
                   solo;
  }
  return out;
}

class AblationFabricWorkload final : public Workload {
 public:
  std::string name() const override { return "ablation_fabric"; }
  std::string figure() const override { return "ablation_fabric"; }
  std::string title() const override {
    return "Ablation — cycle-accurate switch vs analytic model";
  }
  std::string paper_anchor() const override {
    return "validates running applications on the O(1) FabricModel";
  }

  std::vector<ParamSpec> param_specs() const override {
    return {
        {"cycles", 2000, 400, "fabric cycles of offered traffic per load point"},
        {"offered_load", 0.10, 0.10, "packets/port/cycle of one point (swept)"},
    };
  }
  std::vector<MetricSpec> metric_specs() const override {
    return {
        {"cycle_latency", "cycles", "mean latency, cycle-accurate switch"},
        {"cycle_deflections", "", "mean deflections per packet"},
        {"analytic_latency", "cycles", "mean latency, analytic FabricModel"},
        {"latency_ratio", "", "analytic over cycle-accurate"},
        {"near_far_ratio", "", "contention probe: farthest/nearest idle latency"},
        {"crossing_interference", "",
         "contention probe: victim slowdown from a crossing flow"},
        {"uniform_deflections", "", "contention probe (DV): deflections/pkt, uniform"},
        {"hotspot_deflections", "", "contention probe (DV): deflections/pkt, hotspot"},
        {"hotspot_extra_hops", "", "contention probe (DV): hops above base, hotspot"},
    };
  }

  // The model-validation sweep is DV-only; the "contention" signature probe
  // (added when --backends explicitly selects networks) runs on all three.
  bool has_backend(Backend b) const override {
    switch (b) {
      case Backend::kDv:
      case Backend::kMpiIb:
      case Backend::kMpiTorus:
        return true;
    }
    return false;
  }
  std::vector<int> default_nodes(bool) const override { return {32}; }

  std::vector<RunPoint> plan(const RunOptions& opt) const override {
    // The validation sweep drives one 32-port switch, whatever --nodes says.
    const int nodes = fixed_node_count(opt, 32);
    PlanBuilder builder(*this, opt);
    ParamMap params = default_params(opt.fast);
    if (selects(opt, Backend::kDv)) {
      for (double load : {0.02, 0.05, 0.10, 0.15, 0.20}) {
        params["offered_load"] = load;
        builder.add(Backend::kDv, nodes, params);
      }
    }
    // The three-way signature probe only runs when the CLI asked for
    // specific backends; the default figure stays the dv model validation.
    if (!opt.backends.empty()) {
      params = default_params(opt.fast);
      for (const Backend b : selected_backends(opt)) {
        builder.add(b, nodes, params, "contention");
      }
    }
    return builder.take();
  }

  // The sweep points validate the analytic model on the Data Vortex and the
  // "contention" points measure fabric signatures; dispatch on the variant
  // the plan assigned.
  MetricMap execute(const RunPoint& point, std::ostream&) const override {
    const auto cycles = static_cast<std::uint64_t>(point.params.at("cycles"));
    if (point.variant != "contention") {
      const auto p = measure(point.params.at("offered_load"), cycles);
      return {{"cycle_latency", p.cycle_latency},
              {"cycle_deflections", p.cycle_deflections},
              {"analytic_latency", p.analytic_latency},
              {"latency_ratio", p.analytic_latency / p.cycle_latency}};
    }
    Signatures s;
    switch (point.backend) {
      case Backend::kDv:
        s = signatures_dv(point.nodes, cycles);
        break;
      case Backend::kMpiIb:
        s = signatures_ib(point.nodes);
        break;
      case Backend::kMpiTorus:
        s = signatures_torus(point.nodes);
        break;
    }
    return {{"near_far_ratio", s.near_far},
            {"crossing_interference", s.crossing},
            {"uniform_deflections", s.uniform_defl},
            {"hotspot_deflections", s.hotspot_defl},
            {"hotspot_extra_hops", s.hotspot_extra_hops}};
  }

  void report(const RunOptions& opt, const std::vector<PointResult>& results,
              runtime::ResultSink& sink) const override {
    std::ostream& os = banner(opt);

    runtime::Table t("uniform random traffic, 32-port (H=8, A=4) switch",
                     {"offered load", "cycle lat (cyc)", "defl/pkt", "analytic lat (cyc)",
                      "ratio"});
    bool all_within = true;
    bool have_sweep = false;
    for (const PointResult& point : results) {
      if (!point.point.variant.empty()) continue;
      have_sweep = true;
      const double ratio = point.metrics.at("latency_ratio");
      t.row({runtime::fmt(point.point.params.at("offered_load")),
             runtime::fmt(point.metrics.at("cycle_latency"), 1),
             runtime::fmt(point.metrics.at("cycle_deflections")),
             runtime::fmt(point.metrics.at("analytic_latency"), 1), runtime::fmt(ratio)});
      if (ratio < 0.5 || ratio > 2.0) all_within = false;
      sink.add(make_record(point));
    }
    if (have_sweep) {
      t.print(os);
      os << "\nreading: below saturation (~0.2 packets/port/fabric-cycle) the analytic\n"
            "model tracks the cycle-accurate switch within tens of percent while being\n"
            "orders of magnitude cheaper; in-fabric latency stays flat under load\n"
            "(deflection smoothing), which is what the constant-plus-penalty analytic\n"
            "form assumes. Applications never drive the per-port word rate past the\n"
            "PCIe-limited injection rates, so they sit in the validated regime.\n";

      sink.add_anchor(make_anchor("analytic_tracks_cycle_accurate",
                                  all_within ? 1.0 : 0.0, 1.0, all_within,
                                  "analytic/cycle-accurate latency ratio within 2x at "
                                  "every sub-saturation load"));
    }

    report_contention(results, os, sink);
  }

 private:
  void report_contention(const std::vector<PointResult>& results, std::ostream& os,
                         runtime::ResultSink& sink) const {
    std::vector<const PointResult*> cont;
    for (const PointResult& p : results) {
      if (p.point.variant == "contention") cont.push_back(&p);
    }
    if (cont.empty()) return;

    runtime::Table t(
        "three-way routing-model signatures (1-word latency / 64 KiB crossing probes)",
                     {"fabric", "far/near latency", "crossing-flow slowdown",
                      "hotspot defl/pkt"});
    for (const PointResult* p : cont) {
      const bool dv = p->point.backend == Backend::kDv;
      t.row({display_name(p->point.backend), runtime::fmt(p->metrics.at("near_far_ratio")),
             runtime::fmt(p->metrics.at("crossing_interference")),
             dv ? runtime::fmt(p->metrics.at("uniform_deflections")) + " -> " +
                      runtime::fmt(p->metrics.at("hotspot_deflections"))
                : "-"});
      sink.add(make_record(*p));
      switch (p->point.backend) {
        case Backend::kDv: {
          const double uni = p->metrics.at("uniform_deflections");
          const double hot = p->metrics.at("hotspot_deflections");
          sink.add_anchor(make_anchor("dv_deflects_under_hotspot", hot, uni, hot > uni,
                                      "converging traffic absorbed as deflections "
                                      "(~2 extra hops), not queueing"));
          break;
        }
        case Backend::kMpiIb:
          sink.add_anchor(make_anchor("fat_tree_shared_uplink_serializes",
                                      p->metrics.at("crossing_interference"), 2.0,
                                      p->metrics.at("crossing_interference") > 1.5,
                                      "flows with distinct endpoints serialize on a "
                                      "shared up link"));
          break;
        case Backend::kMpiTorus:
          sink.add_anchor(make_anchor("torus_latency_scales_with_distance",
                                      p->metrics.at("near_far_ratio"), 1.7,
                                      p->metrics.at("near_far_ratio") > 1.3,
                                      "idle latency grows with wraparound Manhattan "
                                      "distance"));
          break;
      }
    }
    t.print(os);
    os << "\nreading: the torus pays per hop (distance scaling) and serializes on\n"
          "dimension-order path links; the fat-tree is distance-flat but crossing\n"
          "flows queue on shared up/down links; the Data Vortex is insensitive to\n"
          "both — contention shows up as ~2 extra deflection hops under hotspot\n"
          "traffic instead of queueing delay.\n";
  }
};

}  // namespace

std::unique_ptr<Workload> make_ablation_fabric_workload() {
  return std::make_unique<AblationFabricWorkload>();
}

}  // namespace dvx::exp

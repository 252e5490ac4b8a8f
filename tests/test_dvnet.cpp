// Tests for the Data Vortex switch: geometry math, cycle-accurate deflection
// routing, the analytic fabric model, and their cross-validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "dvnet/cycle_switch.hpp"
#include "dvnet/fabric_model.hpp"
#include "dvnet/geometry.hpp"
#include "dvnet/traffic.hpp"
#include "sim/rng.hpp"

namespace dvnet = dvx::dvnet;
namespace sim = dvx::sim;

namespace {

TEST(Geometry, CylinderCountFollowsLog2H) {
  dvnet::Geometry g{8, 4};
  EXPECT_EQ(g.height_bits(), 3);
  EXPECT_EQ(g.cylinders(), 4);  // C = log2(H) + 1
  EXPECT_EQ(g.ports(), 32);
  EXPECT_EQ(g.nodes(), 32 * 4);  // A*H*C
}

TEST(Geometry, PortMappingRoundTrips) {
  dvnet::Geometry g{16, 3};
  for (int p = 0; p < g.ports(); ++p) {
    EXPECT_EQ(g.port_of(g.port_height(p), g.port_angle(p)), p);
  }
}

TEST(Geometry, ForPortsRoundsHeightUpToPowerOfTwo) {
  auto g = dvnet::Geometry::for_ports(32, 4);
  EXPECT_EQ(g.heights, 8);
  EXPECT_EQ(g.angles, 4);
  auto g2 = dvnet::Geometry::for_ports(33, 4);
  EXPECT_EQ(g2.heights, 16);
  EXPECT_GE(g2.ports(), 33);
}

TEST(Geometry, ValidateRejectsBadShapes) {
  EXPECT_THROW((dvnet::Geometry{6, 4}.validate()), std::invalid_argument);
  EXPECT_THROW((dvnet::Geometry{8, 0}.validate()), std::invalid_argument);
  EXPECT_THROW(dvnet::Geometry::for_ports(0), std::invalid_argument);
}

TEST(CycleSwitch, SinglePacketReachesItsDestination) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  sw.record_deliveries(true);  // the per-delivery log is opt-in
  sw.inject(0, 17, /*tag=*/99);
  ASSERT_TRUE(sw.drain());
  ASSERT_EQ(sw.deliveries().size(), 1u);
  const auto& d = sw.deliveries()[0];
  EXPECT_EQ(d.src_port, 0);
  EXPECT_EQ(d.dst_port, 17);
  EXPECT_EQ(d.tag, 99u);
  EXPECT_EQ(d.deflections, 0);  // empty fabric: no contention
  EXPECT_GE(d.hops, sw.geometry().height_bits());
}

TEST(CycleSwitch, SelfSendIsDelivered) {
  dvnet::CycleSwitch sw(dvnet::Geometry{4, 2});
  sw.record_deliveries(true);
  sw.inject(3, 3);
  ASSERT_TRUE(sw.drain());
  ASSERT_EQ(sw.deliveries().size(), 1u);
  EXPECT_EQ(sw.deliveries()[0].dst_port, 3);
}

TEST(CycleSwitch, InjectRejectsBadPorts) {
  dvnet::CycleSwitch sw(dvnet::Geometry{4, 2});
  EXPECT_THROW(sw.inject(-1, 0), std::out_of_range);
  EXPECT_THROW(sw.inject(0, 8), std::out_of_range);
}

struct SwitchShape {
  int heights;
  int angles;
};

class CycleSwitchProperty : public ::testing::TestWithParam<SwitchShape> {};

// Property: under uniform random traffic every injected packet is delivered
// exactly once, to the right port, and each output port ejects at most one
// packet per cycle.
TEST_P(CycleSwitchProperty, RandomTrafficLosslessAndRateLimited) {
  const auto shape = GetParam();
  dvnet::Geometry g{shape.heights, shape.angles};
  dvnet::CycleSwitch sw(g);
  sw.record_deliveries(true);
  sim::Xoshiro256 rng(1234);
  const int kPackets = 40 * g.ports();
  std::map<std::uint64_t, int> expected;  // tag -> dst
  for (int i = 0; i < kPackets; ++i) {
    const int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(g.ports())));
    const int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(g.ports())));
    sw.inject(src, dst, static_cast<std::uint64_t>(i));
    expected[static_cast<std::uint64_t>(i)] = dst;
  }
  ASSERT_TRUE(sw.drain(2'000'000));
  ASSERT_EQ(sw.deliveries().size(), static_cast<std::size_t>(kPackets));
  std::set<std::uint64_t> seen;
  std::map<std::pair<int, std::uint64_t>, int> ejections_per_port_cycle;
  for (const auto& d : sw.deliveries()) {
    EXPECT_TRUE(seen.insert(d.tag).second) << "duplicate delivery of tag " << d.tag;
    EXPECT_EQ(expected.at(d.tag), d.dst_port);
    const auto key = std::make_pair(d.dst_port, d.eject_cycle);
    EXPECT_LE(++ejections_per_port_cycle[key], 1);
  }
}

// Property: a full port permutation (everyone sends to a distinct target)
// drains without loss — the congestion-free claim for admissible traffic.
TEST_P(CycleSwitchProperty, PermutationTrafficDrains) {
  const auto shape = GetParam();
  dvnet::Geometry g{shape.heights, shape.angles};
  dvnet::CycleSwitch sw(g);
  const int n = g.ports();
  for (int burst = 0; burst < 8; ++burst) {
    for (int p = 0; p < n; ++p) {
      sw.inject(p, (p + 7 * burst + 1) % n, static_cast<std::uint64_t>(burst * n + p));
    }
  }
  ASSERT_TRUE(sw.drain(1'000'000));
  // Delivery log left off: the running totals alone prove losslessness.
  EXPECT_EQ(sw.delivered_total(), static_cast<std::uint64_t>(8 * n));
  EXPECT_TRUE(sw.deliveries().empty());
}

INSTANTIATE_TEST_SUITE_P(Shapes, CycleSwitchProperty,
                         ::testing::Values(SwitchShape{4, 2}, SwitchShape{8, 4},
                                           SwitchShape{16, 2}, SwitchShape{16, 4},
                                           SwitchShape{32, 4}, SwitchShape{8, 1}),
                         [](const auto& shape_info) {
                           return "H" + std::to_string(shape_info.param.heights) + "A" +
                                  std::to_string(shape_info.param.angles);
                         });

TEST(CycleSwitch, HotspotTrafficStillDrainsWithDeflections) {
  dvnet::Geometry g{8, 4};
  dvnet::CycleSwitch sw(g);
  // Everyone hammers port 5: ejection serialization forces deflections.
  for (int round = 0; round < 16; ++round) {
    for (int p = 0; p < g.ports(); ++p) sw.inject(p, 5);
  }
  ASSERT_TRUE(sw.drain(2'000'000));
  EXPECT_EQ(sw.delivered_total(), static_cast<std::uint64_t>(16 * g.ports()));
  EXPECT_GT(sw.deflection_stats().max(), 0.0);
}

TEST(CycleSwitch, LightLoadLatencyMatchesAnalyticBaseHops) {
  dvnet::Geometry g{8, 4};
  dvnet::CycleSwitch sw(g);
  sim::Xoshiro256 rng(7);
  // One packet at a time: measure uncontended latency.
  sim::RunningStats lat;
  for (int i = 0; i < 400; ++i) {
    const auto dst = static_cast<int>(rng.below(32));
    const auto src = static_cast<int>(rng.below(32));
    sw.inject(src, dst);
    ASSERT_TRUE(sw.drain());
  }
  lat = sw.latency_stats();
  dvnet::FabricParams fp{.geometry = g};
  const double analytic = fp.derived_base_hops();
  EXPECT_NEAR(lat.mean(), analytic, 0.4 * analytic)
      << "cycle-accurate mean latency " << lat.mean() << " cycles vs analytic "
      << analytic;
}

// Helper: run uniform random traffic at a given offered load (packets per
// port per fabric cycle) and return (sustained throughput, mean latency).
std::pair<double, double> run_uniform_load(double load, std::uint64_t cycles) {
  const dvnet::Geometry g{8, 4};
  dvnet::CycleSwitch sw(g);
  const auto offers =
      dvnet::synthetic_offers({.offered_load = load}, g.ports(), cycles, 99);
  const auto r = dvnet::run_synthetic(sw, offers, cycles);
  if (!r.drained) return {0.0, 0.0};
  if (r.delivered != offers.size()) return {0.0, 0.0};  // loss = failure
  const double thr = static_cast<double>(r.delivered) /
                     (static_cast<double>(sw.cycle()) * g.ports());
  return {thr, r.latency.mean()};
}

TEST(CycleSwitch, SustainedFullOfferedLoadIsLossless) {
  // 100% offered uniform load: a deflection fabric saturates well below one
  // packet per fabric slot (the electronic implementation compensates with
  // internal speedup over the port clock), but it must remain lossless and
  // keep a useful sustained rate.
  const auto [thr, lat] = run_uniform_load(1.0, 800);
  ASSERT_GT(thr, 0.0) << "drain failed or packets were lost";
  EXPECT_GT(thr, 0.15) << "sustained throughput collapsed";
  EXPECT_GT(lat, 0.0);
}

TEST(CycleSwitch, LatencyStaysFlatBeyondSaturation) {
  // The paper (and the original optical-switch studies) credit the Data
  // Vortex with "robust throughput and latency ... under nonuniform and
  // bursty traffic" thanks to inherent traffic smoothing: once injection
  // backpressure engages, in-fabric latency stays nearly constant instead of
  // diverging the way buffered fabrics do.
  const auto [thr_lo, lat_lo] = run_uniform_load(0.25, 800);
  const auto [thr_hi, lat_hi] = run_uniform_load(1.00, 800);
  ASSERT_GT(thr_lo, 0.0);
  ASSERT_GT(thr_hi, 0.0);
  EXPECT_LT(lat_hi, 2.0 * lat_lo)
      << "in-fabric latency should not blow up past saturation (smoothing)";
  EXPECT_GE(thr_hi, thr_lo * 0.9);  // throughput holds at saturation
}

TEST(FabricModel, UncontendedSingleWordLatency) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  const auto t = fm.send_burst(0, 9, 1, sim::us(1));
  EXPECT_EQ(t.first_arrival, t.last_arrival);
  EXPECT_EQ(t.first_arrival, sim::us(1) + fm.word_time() + fm.base_latency());
}

TEST(FabricModel, PortBandwidthMatchesNominal44GBs) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  EXPECT_NEAR(fm.port_bandwidth(), 4.4e9, 0.01e9);
  const std::int64_t kWords = 1 << 20;
  const auto t = fm.send_burst(0, 1, kWords, 0);
  const double bw = sim::rate_bytes_per_sec(kWords * 8, t.last_arrival);
  EXPECT_NEAR(bw, 4.4e9, 0.05e9);
}

TEST(FabricModel, InjectionPortSerializesConsecutiveBursts) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  const auto a = fm.send_burst(0, 1, 1000, 0);
  const auto b = fm.send_burst(0, 2, 1000, 0);  // same source, different dst
  EXPECT_GE(b.first_arrival, 1000 * fm.word_time());  // waits for port
  EXPECT_GT(b.last_arrival, a.last_arrival);
}

TEST(FabricModel, EjectionPortSerializesConvergingBursts) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  const auto a = fm.send_burst(0, 5, 1000, 0);
  const auto b = fm.send_burst(1, 5, 1000, 0);  // different source, same dst
  // Combined ejection cannot beat 2000 word times through one port.
  EXPECT_GE(std::max(a.last_arrival, b.last_arrival), 2000 * fm.word_time());
}

TEST(FabricModel, DisjointPairsDoNotInterfere) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  const auto a = fm.send_burst(0, 1, 1 << 16, 0);
  const auto b = fm.send_burst(2, 3, 1 << 16, 0);
  EXPECT_EQ(a.last_arrival, b.last_arrival);  // fully parallel paths
}

TEST(FabricModel, ContentionAddsDeflectionPenalty) {
  dvnet::FabricParams fp{.geometry = {8, 4}};
  dvnet::FabricModel fm(fp);
  const auto first = fm.send_burst(0, 1, 1, 0);
  // Immediately behind the first: the source port is still busy -> extra hops.
  const auto second = fm.send_burst(0, 1, 1, 0);
  const auto gap = second.first_arrival - first.first_arrival;
  EXPECT_GE(gap, fm.word_time());  // at least serialized
  const auto uncontended_gap = fm.word_time();
  EXPECT_GT(gap, uncontended_gap);  // plus the ~2-hop penalty
}

TEST(FabricModel, ZeroWordBurstIsFree) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  const auto t = fm.send_burst(0, 1, 0, sim::us(3));
  EXPECT_EQ(t.first_arrival, sim::us(3));
  EXPECT_EQ(t.last_arrival, sim::us(3));
  EXPECT_EQ(fm.words_sent(), 0u);
}

TEST(FabricModel, ResetClearsBacklog) {
  dvnet::FabricModel fm(dvnet::FabricParams{.geometry = {8, 4}});
  fm.send_burst(0, 1, 1 << 20, 0);
  fm.reset();
  EXPECT_EQ(fm.injection_free(0), 0);
  EXPECT_EQ(fm.ejection_free(1), 0);
  EXPECT_EQ(fm.words_sent(), 0u);
}

// -- synthetic traffic cross-checks ------------------------------------------

constexpr dvnet::TrafficPattern kAllPatterns[] = {
    dvnet::TrafficPattern::kUniform, dvnet::TrafficPattern::kHotspot,
    dvnet::TrafficPattern::kTranspose, dvnet::TrafficPattern::kBitReverse};

TEST(Traffic, OffersAreReproducibleOrderedAndInRange) {
  for (const auto pattern : kAllPatterns) {
    for (const int ports : {2, 6, 32}) {
      const dvnet::TrafficConfig cfg{.pattern = pattern, .offered_load = 0.3};
      const auto offers = dvnet::synthetic_offers(cfg, ports, 200, 5);
      ASSERT_FALSE(offers.empty());
      EXPECT_EQ(offers, dvnet::synthetic_offers(cfg, ports, 200, 5));
      EXPECT_NE(offers, dvnet::synthetic_offers(cfg, ports, 200, 6));
      for (std::size_t i = 0; i < offers.size(); ++i) {
        const dvnet::Offer& o = offers[i];
        EXPECT_LT(o.round, 200u);
        EXPECT_GE(o.src, 0);
        EXPECT_LT(o.src, ports);
        EXPECT_GE(o.dst, 0);
        EXPECT_LT(o.dst, ports);
        if (i == 0) continue;
        const dvnet::Offer& prev = offers[i - 1];
        EXPECT_GE(o.round, prev.round) << "offer " << i;
        if (o.round == prev.round) {
          EXPECT_GT(o.src, prev.src) << "offer " << i;
        }
      }
    }
  }
}

TEST(Traffic, UniformOfferCountMatchesTheOfferedLoad) {
  constexpr int kPorts = 32;
  constexpr std::uint64_t kRounds = 2000;
  constexpr double kLoad = 0.08;
  const auto offers =
      dvnet::synthetic_offers({.offered_load = kLoad}, kPorts, kRounds, 23);
  const double n = static_cast<double>(kPorts) * static_cast<double>(kRounds);
  const double sigma = std::sqrt(n * kLoad * (1.0 - kLoad));
  EXPECT_NEAR(static_cast<double>(offers.size()), n * kLoad, 5.0 * sigma);
}

TEST(Traffic, PermutationPatternsSendEachSourceToOneDestination) {
  for (const auto pattern :
       {dvnet::TrafficPattern::kTranspose, dvnet::TrafficPattern::kBitReverse}) {
    const auto offers =
        dvnet::synthetic_offers({.pattern = pattern, .offered_load = 1.0}, 32, 16, 1);
    ASSERT_EQ(offers.size(), 32u * 16u);  // full load offers on every port, every round
    std::map<int, int> dst_of;
    for (const dvnet::Offer& o : offers) {
      const auto it = dst_of.emplace(o.src, o.dst).first;
      EXPECT_EQ(it->second, o.dst) << "source " << o.src << " in round " << o.round;
    }
    EXPECT_EQ(dst_of.size(), 32u);
  }
}

TEST(Traffic, ReplayRefusesOffersOutOfRoundOrder) {
  dvnet::CycleSwitch sw(dvnet::Geometry{4, 2});
  const std::vector<dvnet::Offer> late = {{.round = 3, .src = 0, .dst = 1}};
  EXPECT_THROW(dvnet::run_synthetic(sw, late, 3), std::invalid_argument);
  const std::vector<dvnet::Offer> backwards = {{.round = 1, .src = 0, .dst = 1},
                                               {.round = 0, .src = 1, .dst = 2}};
  EXPECT_THROW(dvnet::run_synthetic(sw, backwards, 3), std::invalid_argument);
}

TEST(Traffic, UniformTrafficStaysNearTheUncontendedBase) {
  const dvnet::Geometry g = dvnet::Geometry::for_ports(32, 4);
  dvnet::CycleSwitch sw(g);
  dvnet::TrafficConfig cfg;
  cfg.pattern = dvnet::TrafficPattern::kUniform;
  cfg.offered_load = 0.08;
  const auto r =
      dvnet::run_synthetic(sw, dvnet::synthetic_offers(cfg, g.ports(), 4000, 23), 4000);
  ASSERT_GT(r.delivered, 0u);
  EXPECT_TRUE(r.drained);
  const double base = dvnet::FabricParams{.geometry = g}.derived_base_hops();
  // Benign traffic: measured traversal within one hop of the analytic mean.
  EXPECT_LT(std::abs(r.hops.mean() - base), 1.0);
}

TEST(Traffic, HotspotExtraHopsStraddleTheAnalyticDeflectionPenalty) {
  // The cycle-accurate switch and the analytic FabricModel were calibrated
  // independently; this pins the §II claim that ties them together. Under
  // the bench's calibrated hotspot point (hot-port offered rate ~0.77 of
  // its ejection capacity), measured mean extra hops must straddle
  // FabricParams::contended_extra_hops = 2.0.
  const dvnet::Geometry g = dvnet::Geometry::for_ports(32, 4);
  dvnet::CycleSwitch sw(g);
  dvnet::TrafficConfig cfg;
  cfg.pattern = dvnet::TrafficPattern::kHotspot;
  cfg.offered_load = 0.08;
  cfg.hotspot_fraction = 0.3;
  const auto r =
      dvnet::run_synthetic(sw, dvnet::synthetic_offers(cfg, g.ports(), 4000, 23), 4000);
  ASSERT_GT(r.delivered, 0u);
  const dvnet::FabricParams fp{.geometry = g};
  const double extra = r.hops.mean() - fp.derived_base_hops();
  EXPECT_GE(extra, fp.contended_extra_hops - 0.5);
  EXPECT_LE(extra, fp.contended_extra_hops + 0.5);
  // Deflections are what buys those hops: contention must show up here too.
  EXPECT_GT(r.deflections.mean(), 0.5);
}

}  // namespace

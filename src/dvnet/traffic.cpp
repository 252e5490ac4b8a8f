#include "dvnet/traffic.hpp"

#include <bit>
#include <stdexcept>

#include "sim/rng.hpp"

namespace dvx::dvnet {
namespace {

/// Index bits the permutation patterns operate on. Port counts are
/// heights * angles and not necessarily a power of two; out-of-range
/// permuted indices wrap, which keeps the traffic valid (if not a strict
/// permutation) for odd geometries.
int index_bits(int ports) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(ports - 1)));
}

int rotate_index(int src, int ports) {
  const int b = index_bits(ports);
  const int h = b / 2;
  if (h == 0) return src;
  const unsigned mask = (1u << b) - 1u;
  const unsigned u = static_cast<unsigned>(src);
  return static_cast<int>(((u << h | u >> (b - h)) & mask) % static_cast<unsigned>(ports));
}

int reverse_index(int src, int ports) {
  const int b = index_bits(ports);
  unsigned out = 0;
  for (int i = 0; i < b; ++i) {
    out = (out << 1) | ((static_cast<unsigned>(src) >> i) & 1u);
  }
  return static_cast<int>(out % static_cast<unsigned>(ports));
}

/// Destination port for one packet from `src` under `cfg`. Permutation
/// patterns ignore the RNG; random patterns consume from it.
int traffic_destination(const TrafficConfig& cfg, int src, int ports,
                        sim::Xoshiro256& rng) {
  switch (cfg.pattern) {
    case TrafficPattern::kUniform:
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
    case TrafficPattern::kHotspot:
      if (rng.chance(cfg.hotspot_fraction)) return cfg.hot_port;
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
    case TrafficPattern::kTranspose:
      return rotate_index(src, ports);
    case TrafficPattern::kBitReverse:
      return reverse_index(src, ports);
  }
  return src;
}

}  // namespace

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniform:
      return "uniform";
    case TrafficPattern::kHotspot:
      return "hotspot";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kBitReverse:
      return "bit_reverse";
  }
  return "?";
}

std::vector<Offer> synthetic_offers(const TrafficConfig& cfg, int ports,
                                    std::uint64_t rounds, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<Offer> offers;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int p = 0; p < ports; ++p) {
      if (rng.chance(cfg.offered_load)) {
        offers.push_back({r, p, traffic_destination(cfg, p, ports, rng)});
      }
    }
  }
  return offers;
}

TrafficResult run_synthetic(CycleSwitch& sw, std::span<const Offer> offers,
                            std::uint64_t cycles) {
  sw.clear_deliveries();
  const std::uint64_t delivered_before = sw.delivered_total();
  std::uint64_t c = 0;
  for (const Offer& o : offers) {
    if (o.round < c || o.round >= cycles) {
      throw std::invalid_argument("run_synthetic: rounds must ascend within [0, cycles)");
    }
    for (; c < o.round; ++c) sw.step();
    sw.inject(o.src, o.dst);
  }
  for (; c < cycles; ++c) sw.step();
  TrafficResult r;
  r.drained = sw.drain();
  r.delivered = sw.delivered_total() - delivered_before;
  r.hops = sw.hop_stats();
  r.deflections = sw.deflection_stats();
  r.latency = sw.latency_stats();
  return r;
}

}  // namespace dvx::dvnet

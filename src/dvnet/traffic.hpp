#pragma once
// Synthetic traffic patterns for the Data Vortex switch.
//
// The paper argues the fabric's value shows up under *irregular* traffic:
// deflection routing absorbs contention at the cost of "statistically two
// hops" (§II). These generators create the contention spectrum needed to
// measure that claim directly on the cycle-accurate switch — from benign
// uniform-random to a single-hot-port worst case. A pattern is drawn once,
// into a stream of offers that every network model replays (DESIGN.md §8.4).

#include <cstdint>
#include <span>
#include <vector>

#include "dvnet/cycle_switch.hpp"
#include "sim/stats.hpp"

namespace dvx::dvnet {

enum class TrafficPattern : std::uint8_t {
  kUniform,      ///< independent uniform destination per packet
  kHotspot,      ///< a fraction of traffic converges on one hot port
  kTranspose,    ///< fixed permutation: destination = bit-rotated source
  kBitReverse,   ///< fixed permutation: destination = bit-reversed source
};

const char* to_string(TrafficPattern p);

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::kUniform;
  /// Injection probability per port per round.
  double offered_load = 0.1;
  /// Hotspot only: fraction of packets aimed at `hot_port` (rest uniform).
  double hotspot_fraction = 0.5;
  int hot_port = 0;
};

/// One packet offered to a network: `src` hands it to the fabric at the
/// start of `round`, addressed to `dst`.
struct Offer {
  std::uint64_t round = 0;
  int src = 0;
  int dst = 0;

  bool operator==(const Offer&) const = default;
};

/// The offers `cfg` makes on `ports` ports over `rounds` rounds: per round,
/// per port in ascending order, a Bernoulli(offered_load) draw and, when it
/// hits, a destination draw. Deterministic for a given (cfg, ports, rounds,
/// seed).
std::vector<Offer> synthetic_offers(const TrafficConfig& cfg, int ports,
                                    std::uint64_t rounds, std::uint64_t seed);

struct TrafficResult {
  std::uint64_t delivered = 0;  ///< packets ejected by the end of the drain
  bool drained = false;         ///< false: drain hit its cycle budget
  sim::RunningStats hops;
  sim::RunningStats deflections;
  sim::RunningStats latency;    ///< inject->eject, in switch cycles
};

/// Replays `offers` on a fresh-statistics region of `sw`: injects round r
/// at cycle r, steps `cycles` cycles, then drains. Throws
/// std::invalid_argument when the rounds decrease or reach `cycles`.
TrafficResult run_synthetic(CycleSwitch& sw, std::span<const Offer> offers,
                            std::uint64_t cycles);

}  // namespace dvx::dvnet

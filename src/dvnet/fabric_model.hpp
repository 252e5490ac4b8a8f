#pragma once
// Fast analytic model of the Data Vortex fabric.
//
// Application-scale runs move millions of 8-byte packets; simulating each at
// cycle granularity would dominate wall-clock time without changing the
// outcome, because the fabric's externally visible behaviour is simple:
//   * each port injects and ejects at most one packet (8 B payload) per
//     switch cycle — the cycle time is chosen so one word/cycle equals the
//     4.4 GB/s nominal per-port bandwidth the paper reports;
//   * in-fabric latency is a small, nearly load-independent hop count
//     (deflection adds ~2 hops statistically under contention, per §II).
// FabricModel encodes exactly that: per-port next-free times enforce the
// serialization, a calibrated hop count supplies the latency. The
// `dvx_bench --figure ablation_fabric` study and dvnet tests cross-check
// this model against the cycle-accurate CycleSwitch.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dvnet/geometry.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dvx::dvnet {

struct FabricParams {
  Geometry geometry{};
  /// One 64-bit payload word per port per cycle; 8 B / 4.4 GB/s = 1.818 ns.
  sim::Duration cycle = sim::ns(8.0 / 4.4);
  /// Expected fabric traversal under light load, in hops (switch cycles).
  /// Derived from the routing rule: each of log2(H) levels costs 1 hop on a
  /// height-bit match and 2 on a mismatch (expected 1.5), plus half the ring
  /// circumference on the innermost cylinder, plus the ejection hop.
  /// dvnet tests validate this against the CycleSwitch measurement.
  double base_hops = 0.0;  // 0 = derive from geometry
  /// Statistical deflection penalty under contention (paper: "statistically
  /// by two hops").
  double contended_extra_hops = 2.0;

  double derived_base_hops() const {
    if (base_hops > 0.0) return base_hops;
    return 1.5 * geometry.height_bits() + geometry.angles / 2.0 + 1.0;
  }
};

/// Result of pushing a back-to-back burst of words through the fabric.
struct BurstTiming {
  sim::Time first_arrival;  ///< ejection completion of the first word
  sim::Time last_arrival;   ///< ejection completion of the last word
};

class FabricModel {
 public:
  explicit FabricModel(FabricParams params);

  const FabricParams& params() const noexcept { return params_; }
  int ports() const noexcept { return params_.geometry.ports(); }
  sim::Duration word_time() const noexcept { return params_.cycle; }

  /// Nominal per-port bandwidth in bytes/second (8 B per cycle).
  double port_bandwidth() const noexcept;

  /// Sends `words` fixed-size packets src -> dst, first injectable at
  /// `ready`. Serializes on the source injection port and the destination
  /// ejection port; adds hop latency (plus the deflection penalty when either
  /// port is already backlogged). Callers must invoke this in nondecreasing
  /// `ready` order, which the DES guarantees.
  BurstTiming send_burst(int src_port, int dst_port, std::int64_t words,
                         sim::Time ready);

  /// Pure latency of an uncontended single-word packet.
  sim::Duration base_latency() const noexcept;

  sim::Time injection_free(int port) const { return inj_free_.at(static_cast<std::size_t>(port)); }
  sim::Time ejection_free(int port) const { return ej_free_.at(static_cast<std::size_t>(port)); }

  /// Forgets all port backlog (fresh fabric).
  void reset();

  std::uint64_t words_sent() const noexcept { return words_sent_; }

 private:
  FabricParams params_;
  // obs instrumentation (null when nothing collects): burst/word tallies,
  // contended-burst count (each charged the statistical deflection penalty),
  // and the serialization accounting — time bursts waited on a busy
  // injection/ejection port and total port busy time.
  obs::Counter* obs_bursts_ = nullptr;
  obs::Counter* obs_words_ = nullptr;
  obs::Counter* obs_deflection_penalties_ = nullptr;
  obs::Counter* obs_inject_wait_ps_ = nullptr;
  obs::Counter* obs_eject_wait_ps_ = nullptr;
  obs::Counter* obs_port_busy_ps_ = nullptr;
  std::vector<sim::Time> inj_free_;
  std::vector<sim::Time> ej_free_;
  std::uint64_t words_sent_ = 0;
  // FIFO-order audit state (populated only in DVX_CHECK_LEVEL >= 2 builds):
  // first-arrival time of the latest burst per (src, dst) virtual channel.
  // Bursts on one VC must eject in injection order.
  std::map<std::pair<int, int>, sim::Time> vc_last_first_arrival_;
};

}  // namespace dvx::dvnet

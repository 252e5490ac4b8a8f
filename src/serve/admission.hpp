#pragma once
// Admission control for the serving layer (DESIGN.md §14): a per-tenant
// token bucket plus global queue-depth shedding, both OFF by default, with
// shed/accept counters. Everything is evaluated in virtual time, so the
// decisions are deterministic.

#include <cstdint>

#include "sim/time.hpp"

namespace dvx::serve {

struct AdmissionConfig {
  /// Per-tenant token bucket: refill at `bucket_rate_frac` times the
  /// tenant's own offered rate, capacity `bucket_burst` tokens.
  bool token_bucket = false;
  double bucket_rate_frac = 1.2;
  double bucket_burst = 16.0;
  /// Global (per-node) queue-depth shedding: reject when the node already
  /// holds `max_queue_depth` admitted-but-unfinished requests.
  bool queue_shed = false;
  int max_queue_depth = 64;

  bool any() const noexcept { return token_bucket || queue_shed; }
};

/// Deterministic virtual-time token bucket (starts full).
class TokenBucket {
 public:
  TokenBucket(double tokens_per_ps, double burst)
      : rate_(tokens_per_ps), burst_(burst), tokens_(burst) {}

  /// Refills to `now` and takes one token if a whole one is available.
  bool try_take(sim::Time now);

 private:
  double rate_;
  double burst_;
  double tokens_;
  sim::Time last_ = 0;
};

/// Per-tenant admission tallies; conservation (offered == accepted + shed)
/// is a level-1 DVX_CHECK invariant at session teardown.
struct AdmissionCounters {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_bucket = 0;
  std::uint64_t shed_queue = 0;

  std::uint64_t shed() const noexcept { return shed_bucket + shed_queue; }

  void merge(const AdmissionCounters& o) noexcept {
    offered += o.offered;
    accepted += o.accepted;
    shed_bucket += o.shed_bucket;
    shed_queue += o.shed_queue;
  }
};

}  // namespace dvx::serve

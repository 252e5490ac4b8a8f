#pragma once
// SLO accounting for the serving layer (DESIGN.md §14): per-tenant request
// latency tails from obs::Histogram with honest upper-bound quantiles, and
// the Jain fairness index over per-tenant service ratios.

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace dvx::serve {

/// Request-latency tail tracker. Values are recorded in nanoseconds; the
/// median uses the bucket-midpoint estimate, while the SLO tails (p99,
/// p999, pmax) use obs::Histogram::quantile_upper_bound, which clamps the
/// bucket upper edge to the exact maximum ever observed — a sparse tail can
/// therefore never report a latency no request actually reached.
class TailLatency {
 public:
  void record_ns(std::uint64_t ns) { hist_.observe(ns); }

  /// Folds another tracker in (exact buckets, pairwise-merged moments).
  /// Serve sessions keep per-rank trackers and fold them in rank order at
  /// session end.
  void merge(const TailLatency& other) { hist_.absorb(other.hist_); }

  std::uint64_t count() const noexcept { return hist_.stats().count(); }
  double mean_ns() const noexcept { return hist_.stats().mean(); }
  double p50_ns() const { return hist_.buckets().quantile(0.5); }
  double p99_ns() const { return hist_.quantile_upper_bound(0.99); }
  double p999_ns() const { return hist_.quantile_upper_bound(0.999); }
  double max_ns() const noexcept { return hist_.max_value(); }

  const obs::Histogram& histogram() const noexcept { return hist_; }

 private:
  obs::Histogram hist_;
};

/// Jain's fairness index over per-tenant allocations: (sum x)^2 / (n sum
/// x^2). 1.0 = perfectly fair, 1/n = one tenant takes everything. Empty or
/// all-zero input returns 1.0 (nothing to be unfair about).
double jain_index(const std::vector<double>& xs);

}  // namespace dvx::serve

#pragma once
// Streaming statistics used by network models, benches, and reports.

#include <cstdint>
#include <limits>
#include <vector>

namespace dvx::sim {

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double total() const noexcept { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram for latencies / sizes.
class LogHistogram {
 public:
  void add(std::uint64_t value);
  /// Folds another histogram in (bucketwise sum). Exact: the result equals
  /// replaying both add() streams in any order.
  void merge(const LogHistogram& other);
  std::uint64_t count() const noexcept { return total_; }
  /// Bucket b counts values in [2^b, 2^(b+1)) (bucket 0 holds 0 and 1).
  const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }
  /// Approximate p-quantile (q in [0,1]) from bucket midpoints. A midpoint
  /// can sit ABOVE every recorded sample of its bucket, so this estimate is
  /// for central quantiles; tail reporting (p99/p999) should use
  /// quantile_upper_bound and clamp to an exact max (obs::Histogram does).
  double quantile(double q) const;
  /// Upper bound of the p-quantile: the UPPER edge of the bucket holding
  /// the q-th sample. Guaranteed >= the true quantile (the midpoint
  /// estimate is not), which is the honest direction for SLO tails.
  double quantile_upper_bound(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Harmonic mean of a sample set (Graph500 reports harmonic-mean TEPS).
double harmonic_mean(const std::vector<double>& xs);

}  // namespace dvx::sim

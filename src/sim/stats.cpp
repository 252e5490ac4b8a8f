#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dvx::sim {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

void LogHistogram::add(std::uint64_t value) {
  const unsigned b = value < 2 ? 0u : static_cast<unsigned>(std::bit_width(value) - 1);
  if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Anchor the tail to the last bucket that actually has mass, not to
  // buckets_.size(): if the scan falls through (floating-point rounding of
  // `target`, or trailing buckets left empty by a future resize path), the
  // reported edge must still bound a recorded sample — the old fall-through
  // reported the vector's upper edge, which can lie above every sample.
  std::size_t last = buckets_.size();
  while (last > 0 && buckets_[last - 1] == 0) --last;
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (std::size_t b = 0; b < last; ++b) {
    if (buckets_[b] == 0) continue;  // never report a bucket with no mass
    const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
    // q == 0 (target already met): the lower edge of the first bucket with
    // mass, not the midpoint of whatever empty buckets precede it.
    if (target <= seen) return lo;
    seen += static_cast<double>(buckets_[b]);
    if (seen >= target) {
      const double hi = std::ldexp(1.0, static_cast<int>(b + 1));
      return (lo + hi) / 2.0;
    }
  }
  // Rounding pushed target past the accumulated mass: the upper edge of the
  // last non-empty bucket bounds every recorded sample.
  return std::ldexp(1.0, static_cast<int>(last));
}

double LogHistogram::quantile_upper_bound(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::size_t last = buckets_.size();
  while (last > 0 && buckets_[last - 1] == 0) --last;
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (std::size_t b = 0; b < last; ++b) {
    if (buckets_[b] == 0) continue;
    seen += static_cast<double>(buckets_[b]);
    // The q-th sample lies in this bucket: its upper edge bounds it. q == 0
    // lands here too (first non-empty bucket), which is still a bound.
    if (seen >= target) return std::ldexp(1.0, static_cast<int>(b + 1));
  }
  // Rounding pushed target past the accumulated mass; the upper edge of the
  // last non-empty bucket bounds every recorded sample.
  return std::ldexp(1.0, static_cast<int>(last));
}

double harmonic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double denom = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    denom += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / denom;
}

}  // namespace dvx::sim

#pragma once
// dvx::obs — deterministic metrics registry (DESIGN.md §8).
//
// The paper's contribution is *characterization*: it explains the GUPS/BFS
// wins via latency distributions and deflection behaviour, not just
// end-to-end numbers. This registry is how the simulator exposes those
// internals. Three metric kinds cover every instrumented site:
//   * Counter   — monotone event/byte/cycle tallies (deflections, DMA bytes);
//   * Gauge     — sampled level with min/mean/max/last (FIFO depth, switch
//                 occupancy) — the max doubles as a high-water mark;
//   * Histogram — sim::LogHistogram-backed distribution with exact running
//                 moments (packet hop counts, MPI message sizes).
// Metrics are identified by (name, labels); labels are an ordered map so a
// family ("dv.switch.deflections" by {cylinder, angle}) serializes in one
// deterministic order no matter when its members were created.
//
// Cost contract: instrumented components hold plain pointers that are null
// when nothing collects (see collector.hpp), so a disabled run pays one
// branch per site. A Registry constructed disabled hands out nullptr from
// the factories, which keeps attach code uniform. The registry is NOT
// thread-safe by design: every measurement point of the bench driver owns a
// private registry (exp layer), so under `--jobs N` no two threads ever
// share one — that is what makes metrics output byte-identical at any job
// count.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <variant>

#include "sim/stats.hpp"

namespace dvx::obs {

/// Ordered label set; deterministic serialization order comes for free.
using Labels = std::map<std::string, std::string>;

/// Monotone 64-bit tally.
class Counter {
 public:
  void add(std::uint64_t n) noexcept { value_ += n; }
  void inc() noexcept { ++value_; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Sampled level: last value plus running min/mean/max over all samples.
class Gauge {
 public:
  void sample(double v) noexcept {
    last_ = v;
    stats_.add(v);
  }
  double last() const noexcept { return last_; }
  /// max() is the high-water mark of everything ever sampled.
  const sim::RunningStats& stats() const noexcept { return stats_; }

 private:
  double last_ = 0.0;
  sim::RunningStats stats_;
};

/// Power-of-two bucketed distribution with exact running moments.
class Histogram {
 public:
  void observe(std::uint64_t v) {
    buckets_.add(v);
    stats_.add(static_cast<double>(v));
  }
  /// Folds another histogram in: exact bucket counts; the Welford moments
  /// merge pairwise (same result as RunningStats::merge elsewhere). Used by
  /// partitioned components that keep per-rank histograms and fold once at
  /// a deterministic point (rank order, run end).
  void absorb(const Histogram& other) {
    buckets_.merge(other.buckets_);
    stats_.merge(other.stats_);
  }
  const sim::LogHistogram& buckets() const noexcept { return buckets_; }
  const sim::RunningStats& stats() const noexcept { return stats_; }

  /// Honest tail quantile for SLO reporting (DESIGN.md §14): the bucket
  /// UPPER edge of the q-quantile, clamped to the exact maximum ever
  /// observed. Unlike the midpoint estimate of buckets().quantile(), the
  /// result both bounds the true quantile from above and never exceeds a
  /// value that was actually recorded — a p999 over a sparse tail (few
  /// samples in the top bucket) stays meaningful.
  double quantile_upper_bound(double q) const {
    if (stats_.count() == 0) return 0.0;
    return std::min(buckets_.quantile_upper_bound(q), stats_.max());
  }

  /// Exact largest observed value (not a bucket edge).
  double max_value() const noexcept { return stats_.max(); }

 private:
  sim::LogHistogram buckets_;
  sim::RunningStats stats_;
};

/// Owns every metric of one collection scope (one bench measurement point).
/// Factories are get-or-create: asking twice for the same (name, labels)
/// returns the same object, so independently attached components can share
/// a tally. Asking for an existing metric with a different kind throws.
class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Factories return nullptr when the registry is disabled.
  Counter* counter(std::string name, Labels labels = {});
  Gauge* gauge(std::string name, Labels labels = {});
  Histogram* histogram(std::string name, Labels labels = {});

  using Metric = std::variant<Counter, Gauge, Histogram>;
  using Key = std::pair<std::string, Labels>;

  /// All metrics in sorted (name, labels) order — the snapshot order.
  const std::map<Key, Metric>& metrics() const noexcept { return metrics_; }

  std::size_t size() const noexcept { return metrics_.size(); }

 private:
  template <typename T>
  T* get_or_create(std::string name, Labels labels);

  bool enabled_;
  // std::map: node-based, so returned pointers stay stable, and iteration
  // order is the sorted key order the snapshot serializer relies on.
  std::map<Key, Metric> metrics_;
};

}  // namespace dvx::obs

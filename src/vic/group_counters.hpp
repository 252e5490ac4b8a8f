#pragma once
// VIC group counters (paper §II/§III).
//
// A group counter counts down the words of an in-flight transfer: the
// receiver (or any VIC — counters are globally settable) presets it to the
// expected word count, arriving packets that name the counter decrement it,
// and the application waits for zero (with an optional timeout). The current
// VIC exposes 64 counters; #0 is reserved as a scratch counter and the last
// two are reserved for the intrinsic barrier.
//
// Timing model: operations are registered in nondecreasing *call* time (the
// DES guarantees this) but carry their own *effective* times — the virtual
// instant the packet reaches the counter. A waiter resumes at the settle
// time: the latest effective time among the operations that drove the value
// to zero. Decrementing a counter already at zero reproduces the documented
// hardware hazard ("the initial packet arrival is lost"): the decrement is
// dropped and counted in lost_decrements().

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dvx::vic {

inline constexpr int kNumGroupCounters = 64;
/// Counter #0 is the scratch counter ("does not need to be checked").
inline constexpr int kScratchCounter = 0;
/// The last two counters are reserved by the intrinsic barrier.
inline constexpr int kBarrierCounterA = kNumGroupCounters - 2;
inline constexpr int kBarrierCounterB = kNumGroupCounters - 1;
/// First counter id free for applications.
inline constexpr int kFirstUserCounter = 1;

/// Arrival times of consecutive words within one fabric burst of `span`
/// words: word k of a run that starts `offset` words into the burst lands
/// at first + (last - first) * (offset + k) / (span - 1), which is
/// nondecreasing in k. A single time converts to a one-word ramp.
struct ArrivalRamp {
  sim::Time first = 0;
  sim::Time last = 0;
  std::int64_t span = 1;
  std::int64_t offset = 0;

  ArrivalRamp(sim::Time at) : first(at), last(at) {}
  ArrivalRamp(sim::Time first_at, sim::Time last_at, std::int64_t burst_words,
              std::int64_t first_word)
      : first(first_at), last(last_at), span(burst_words), offset(first_word) {}

  sim::Time at(std::int64_t k) const noexcept {
    return span <= 1 ? first : first + (last - first) * (offset + k) / (span - 1);
  }
};

class GroupCounter {
 public:
  /// `node` labels wait metrics (the owning VIC's id); all 64 counters of a
  /// file share one (node-labeled) wait tally.
  explicit GroupCounter(sim::Engine& engine, int node = -1);

  /// Sets the counter to `v`, effective at time `at`.
  void set(sim::Time at, std::uint64_t v);

  /// Registers `n` packet arrivals, word k landing at `arrivals.at(k)`.
  /// Exactly what `n` one-word decrements in arrival order do: min(value, n)
  /// apply and the rest are lost; waiters are notified once, at the first
  /// word's settle time (the later notifies would find no waiters), and the
  /// settle time becomes the last applied word's arrival.
  void decrement(const ArrivalRamp& arrivals, std::uint64_t n = 1);

  /// Waits until the counter settles at zero. `timeout` < 0 waits forever.
  /// Returns true on zero, false on timeout (mirrors the dvapi call).
  sim::Coro<bool> wait_zero(sim::Duration timeout = -1);

  std::uint64_t value() const noexcept { return value_; }
  sim::Time settle_time() const noexcept { return settle_; }
  std::uint64_t lost_decrements() const noexcept { return lost_; }

 private:
  sim::Engine& engine_;
  sim::Condition cond_;
  // obs instrumentation (null when nothing collects): completed waits, time
  // spent blocked in wait_zero, and waits that timed out.
  obs::Counter* obs_waits_ = nullptr;
  obs::Counter* obs_wait_ps_ = nullptr;
  obs::Counter* obs_timeouts_ = nullptr;
  std::uint64_t value_ = 0;
  sim::Time settle_ = 0;
  std::uint64_t lost_ = 0;
};

/// The 64-counter file of one VIC.
class GroupCounterFile {
 public:
  explicit GroupCounterFile(sim::Engine& engine, int node = -1);
  GroupCounterFile(const GroupCounterFile&) = delete;
  GroupCounterFile& operator=(const GroupCounterFile&) = delete;

  GroupCounter& at(int id);
  const GroupCounter& at(int id) const;

 private:
  std::vector<std::unique_ptr<GroupCounter>> counters_;
};

}  // namespace dvx::vic

#pragma once
// Discrete-event simulation engine.
//
// Deterministic: events fire in (time, insertion-seq) order. Top-level
// simulated processes are Coro<void> coroutines registered through spawn();
// they suspend on awaitables (delay, conditions, communication ops) and the
// engine resumes them at the correct virtual time.
//
// Hot-path layout (DESIGN.md §10): the ready queue is an index-based 4-ary
// min-heap over 16-byte POD entries — sift operations move (time, key)
// pairs, never payloads. Payloads live in recycled side-slabs (one for
// coroutine handles, one for the rarer std::function callbacks) addressed by
// a slot id packed into the low bits of the comparison key, so steady-state
// dispatch performs zero heap allocations.
//
// One loop (DESIGN.md §12): run() pops and dispatches one event at a time
// until the heap drains. The fabric models resolve each transfer when it is
// handed to them, at the current time or in one event at its ready time
// (DESIGN.md §15), so the engine knows nothing about the networks.

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <vector>

#include "check/audit.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dvx::sim {

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current virtual time: the time of the event being dispatched.
  Time now() const noexcept { return now_; }

  /// Registers a top-level process; it starts at virtual time `start`
  /// (-1 = now).
  void spawn(Coro<void> coro, Time start = -1);

  /// Schedules a coroutine resume at absolute time t (must be >= the time of
  /// the last dispatched event).
  void schedule_handle(Time t, std::coroutine_handle<> h);

  /// Schedules a plain callback at absolute time t; same rule.
  void schedule(Time t, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the final virtual time.
  /// Rethrows the first exception that escaped any spawned process.
  Time run();

  /// True when every spawned process has run to completion.
  bool all_done() const noexcept;

  /// Total events dispatched (diagnostics).
  std::uint64_t events_processed() const noexcept { return events_; }

  /// Registers an invariant auditor; audit() runs every audit_interval()
  /// dispatched events and once when the event queue drains. Observational
  /// only — auditors must not mutate simulation state (DESIGN.md §7).
  void add_auditor(check::InvariantAuditor* auditor);
  /// Unregisters; no-op when the auditor was never added.
  void remove_auditor(check::InvariantAuditor* auditor) noexcept;

  /// Events between automatic audit sweeps; 0 disables the cadence (the
  /// drain-time sweep still runs). Defaults to check::default_audit_interval()
  /// — 4096 in DVX_CHECK_LEVEL >= 2 builds, 0 otherwise.
  void set_audit_interval(std::uint64_t events) noexcept { audit_interval_ = events; }
  std::uint64_t audit_interval() const noexcept { return audit_interval_; }

  /// Number of audit sweeps performed (each sweep visits every auditor).
  std::uint64_t audits_run() const noexcept { return audits_run_; }

  /// Awaitable: suspend the current coroutine for `d` of virtual time.
  auto delay(Duration d) {
    struct Awaiter {
      Engine& engine;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_handle(wake, h); }
      void await_resume() const noexcept {}
    };
    if (d < 0) d = 0;
    return Awaiter{*this, now() + d};
  }

  /// Awaitable: reschedule the current coroutine at absolute time t
  /// (clamped to now()). Used to resume a waiter at a computed arrival time.
  auto resume_at(Time t) {
    struct Awaiter {
      Engine& engine;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_handle(wake, h); }
      void await_resume() const noexcept {}
    };
    const Time now_t = now();
    if (t < now_t) t = now_t;
    return Awaiter{*this, t};
  }

  // Key-packing limits, public so overflow tests can probe the edges.
  static constexpr int kSlotBits = 25;  ///< 32M outstanding events per kind
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr int kKeyShift = kSlotBits + 1;
  /// Insertion sequences per busy period (the counter resets whenever the
  /// heap drains, so this bound is per uninterrupted run, not per Engine).
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kKeyShift);

  /// Test hook: forces the insertion-seq counter so the overflow guards can
  /// be exercised without dispatching 2^38 events. Never call outside
  /// tests — a forged counter breaks tie-break ordering with any events
  /// already in the heap.
  void set_next_seq_for_test(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  /// 16-byte heap entry. `key` packs (seq << kKeyShift) | kind | slot: seq in
  /// the high bits makes lexicographic (t, key) comparison reproduce the
  /// documented (time, insertion-seq) dispatch order, while the low bits
  /// locate the payload without a third word the sift would have to move.
  struct HeapEntry {
    Time t;
    std::uint64_t key;
  };
  static_assert(sizeof(HeapEntry) == 16);

  static constexpr std::uint64_t kCallbackBit = std::uint64_t{1} << kSlotBits;

  struct Root {
    Coro<void>::Handle handle{};
    bool done = false;
  };

  static bool entry_before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.key < b.key;
  }

  /// Backing-store allocator that hands out 64-byte-aligned blocks so the
  /// heap's cache-line geometry (see kHeapPad) survives vector growth.
  template <class T>
  struct CacheAlignedAlloc {
    using value_type = T;
    CacheAlignedAlloc() = default;
    template <class U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U>&) noexcept {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) noexcept {
      ::operator delete(p, std::align_val_t{64});
    }
    bool operator==(const CacheAlignedAlloc&) const noexcept { return true; }
  };

  /// The heap array starts with kHeapPad unused entries. With logical node i
  /// stored at heap_[i + kHeapPad], a node's 4-child group (logical 4i+1 ..
  /// 4i+4, i.e. byte offset 64(i+1) from the 64-byte-aligned base) occupies
  /// exactly one cache line, so each sift level costs one line instead of
  /// two straddled ones.
  static constexpr std::size_t kHeapPad = 3;

  bool heap_empty() const noexcept { return heap_.size() == kHeapPad; }
  void heap_push(Time t, std::uint64_t key);
  HeapEntry heap_pop();
  std::uint64_t make_key(bool callback, std::uint32_t slot);
  void push_event(Time t, bool callback, std::coroutine_handle<> h,
                  std::function<void()> fn);
  void dispatch_one();
  void run_audits();

  std::vector<HeapEntry, CacheAlignedAlloc<HeapEntry>> heap_;
  std::vector<std::coroutine_handle<>> handle_slab_;
  std::vector<std::uint32_t> handle_free_;
  std::vector<std::function<void()>> fn_slab_;
  std::vector<std::uint32_t> fn_free_;

  Time now_ = 0;                ///< time of the last dispatched event
  std::uint64_t next_seq_ = 0;  ///< insertion-seq counter
  std::uint64_t events_ = 0;    ///< events dispatched
  std::deque<Root> roots_;      // deque: &done must stay stable
  std::vector<check::InvariantAuditor*> auditors_;
  std::uint64_t audit_interval_ = 0;  // ctor sets the level-dependent default
  std::uint64_t audits_run_ = 0;
};

}  // namespace dvx::sim

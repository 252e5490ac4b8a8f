// Tests for the hot-path overhaul (DESIGN.md §10): the slab-backed 4-ary
// event heap must dispatch in exactly the documented (time, insertion-seq)
// order (DESIGN.md §12); steady-state dispatch and switch stepping must not
// touch the allocator; deep per-port backlogs must drain in bounded host
// time (the O(n) pop-front regression); and the delivery statistics must be
// exact whether or not the per-delivery log is recording.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>  // det-lint: allow(system_clock) -- host-time drain bound only
#include <cstdint>
#include <cstdlib>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "dvnet/cycle_switch.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;

// ---------------------------------------------------------------------------
// Global operator new/delete counting hooks. Every allocation in the test
// binary bumps the counter; the allocation-freedom tests snapshot it around
// a steady-state window and require a zero delta.

namespace {
std::uint64_t g_alloc_count = 0;
std::uint64_t allocation_count() noexcept { return g_alloc_count; }

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  ++g_alloc_count;
  if (n == 0) n = 1;
  n = (n + align - 1) / align * align;  // C11 aligned_alloc size contract
  if (void* p = std::aligned_alloc(align, n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// ---------------------------------------------------------------------------
// Scheduler equivalence: the engine's dispatch order must match a reference
// (time, insertion-seq) min-heap across randomized interleavings of plain
// callbacks, self-rescheduling callback chains, and coroutine delay chains.

constexpr int kChainFires = 24;
constexpr int kCoroHops = 24;

struct RefEvent {
  sim::Time t;
  std::uint64_t seq;
  int id;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

struct EqChain {
  sim::Engine* engine;
  sim::Xoshiro256 rng{0};
  int fires_left = 0;
  int id = 0;
  std::vector<int>* observed = nullptr;
};

void eq_chain_fire(EqChain* ch) {
  ch->observed->push_back(ch->id);
  if (--ch->fires_left == 0) return;
  const auto d = sim::ns(static_cast<double>(1 + ch->rng.below(64)));
  ch->engine->schedule(ch->engine->now() + d, [ch] { eq_chain_fire(ch); });
}

sim::Coro<void> eq_coro(sim::Engine& engine, sim::Xoshiro256 rng, int id,
                        std::vector<int>& observed) {
  for (int h = 0; h < kCoroHops; ++h) {
    observed.push_back(id);
    co_await engine.delay(sim::ns(static_cast<double>(1 + rng.below(64))));
  }
  observed.push_back(id);
}

TEST(SchedulerEquivalence, MatchesReferenceHeapAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    constexpr int kChains = 8;
    constexpr int kCoros = 6;
    constexpr int kOneShots = 32;

    // --- engine run ---
    sim::Engine engine;
    engine.set_audit_interval(0);
    std::vector<int> observed;
    std::vector<EqChain> chains(kChains);
    sim::Xoshiro256 setup(seed);

    // Interleave the three kinds of setup ops in a seeded random order so
    // the insertion-seq assignment itself is part of what the test varies.
    std::vector<int> ops;  // 0..kChains-1 chain, 100+j coro, 200+k one-shot
    for (int i = 0; i < kChains; ++i) ops.push_back(i);
    for (int j = 0; j < kCoros; ++j) ops.push_back(100 + j);
    for (int k = 0; k < kOneShots; ++k) ops.push_back(200 + k);
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[setup.below(i)]);
    }

    sim::Xoshiro256 times(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<sim::Time> oneshot_times(kOneShots);
    for (auto& t : oneshot_times) {
      t = sim::ns(static_cast<double>(times.below(512)));
    }

    for (const int op : ops) {
      if (op < 100) {
        EqChain& ch = chains[static_cast<std::size_t>(op)];
        ch.engine = &engine;
        ch.rng = sim::Xoshiro256(seed * 1000 + static_cast<std::uint64_t>(op));
        ch.fires_left = kChainFires;
        ch.id = op;
        ch.observed = &observed;
        const auto d = sim::ns(static_cast<double>(1 + ch.rng.below(64)));
        EqChain* p = &ch;
        engine.schedule(d, [p] { eq_chain_fire(p); });
      } else if (op < 200) {
        const int j = op - 100;
        engine.spawn(eq_coro(engine,
                             sim::Xoshiro256(seed * 2000 +
                                             static_cast<std::uint64_t>(j)),
                             1000 + j, observed));
      } else {
        const int k = op - 200;
        engine.schedule(oneshot_times[static_cast<std::size_t>(k)],
                        [k, &observed] { observed.push_back(2000 + k); });
      }
    }
    const std::uint64_t processed_before = engine.events_processed();
    engine.run();

    // --- reference model, mirroring the exact same schedule sequence ---
    std::vector<int> expected;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref;
    std::uint64_t ref_seq = 0;
    std::vector<sim::Xoshiro256> chain_rng;
    std::vector<int> chain_left;
    std::vector<sim::Xoshiro256> coro_rng(kCoros, sim::Xoshiro256(0));
    std::vector<int> coro_left(kCoros, 0);
    for (int i = 0; i < kChains; ++i) {
      chain_rng.emplace_back(seed * 1000 + static_cast<std::uint64_t>(i));
      chain_left.push_back(kChainFires);
    }
    for (const int op : ops) {
      if (op < 100) {
        auto& rng = chain_rng[static_cast<std::size_t>(op)];
        const auto d = sim::ns(static_cast<double>(1 + rng.below(64)));
        ref.push(RefEvent{d, ref_seq++, op});
      } else if (op < 200) {
        const int j = op - 100;
        coro_rng[static_cast<std::size_t>(j)] =
            sim::Xoshiro256(seed * 2000 + static_cast<std::uint64_t>(j));
        coro_left[static_cast<std::size_t>(j)] = kCoroHops;
        ref.push(RefEvent{0, ref_seq++, 1000 + j});  // spawn resume at t=0
      } else {
        ref.push(RefEvent{oneshot_times[static_cast<std::size_t>(op - 200)],
                          ref_seq++, 2000 + (op - 200)});
      }
    }
    std::uint64_t ref_processed = 0;
    while (!ref.empty()) {
      const RefEvent ev = ref.top();
      ref.pop();
      ++ref_processed;
      expected.push_back(ev.id);
      if (ev.id < 100) {  // chain: reschedules until its fires run out
        const auto i = static_cast<std::size_t>(ev.id);
        if (--chain_left[i] != 0) {
          const auto d = sim::ns(static_cast<double>(1 + chain_rng[i].below(64)));
          ref.push(RefEvent{ev.t + d, ref_seq++, ev.id});
        }
      } else if (ev.id < 2000) {  // coro: one wake per remaining hop
        const auto j = static_cast<std::size_t>(ev.id - 1000);
        if (coro_left[j]-- != 0) {
          const auto d = sim::ns(static_cast<double>(1 + coro_rng[j].below(64)));
          ref.push(RefEvent{ev.t + d, ref_seq++, ev.id});
        }
      }
    }

    EXPECT_EQ(observed, expected) << "seed " << seed;
    EXPECT_EQ(engine.events_processed() - processed_before, ref_processed)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Allocation freedom: once slabs, heap storage, and switch buffers are
// warmed, dispatching events and stepping the switch must never reach the
// allocator.

struct AllocChain {
  sim::Engine* engine;
  int n = 0;
  std::uint64_t at_warm = 0;
  std::uint64_t at_end = 0;
};
constexpr int kAllocWarm = 2000;
constexpr int kAllocTotal = 6000;

void alloc_chain_tick(AllocChain* st) {
  ++st->n;
  if (st->n == kAllocWarm) st->at_warm = allocation_count();
  if (st->n == kAllocTotal) {
    st->at_end = allocation_count();
    return;
  }
  st->engine->schedule(st->engine->now() + sim::ns(3), [st] { alloc_chain_tick(st); });
}

TEST(AllocationFree, EngineSteadyStateDispatch) {
  // The counting hook must actually be linked in, or the zero-delta
  // assertions below would pass vacuously.
  const std::uint64_t sanity = allocation_count();
  std::vector<int> probe(64);
  ASSERT_GT(allocation_count(), sanity);
  probe.clear();

  sim::Engine engine;
  engine.set_audit_interval(0);
  AllocChain st{&engine};
  AllocChain* p = &st;
  engine.schedule(sim::ns(1), [p] { alloc_chain_tick(p); });
  // A coroutine delay chain alongside, so the handle-slab path is inside
  // the measured window too. Its frame is allocated at spawn (warm-up).
  engine.spawn([](sim::Engine& eng) -> sim::Coro<void> {
    for (int h = 0; h < kAllocTotal; ++h) co_await eng.delay(sim::ns(2));
  }(engine));
  engine.run();
  ASSERT_EQ(st.n, kAllocTotal);
  EXPECT_EQ(st.at_end, st.at_warm)
      << "Engine::run() dispatch allocated in the steady-state window";
}

TEST(AllocationFree, CycleSwitchStepSteadyState) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  sim::Xoshiro256 rng(5);
  // Warm-up at full saturation: every buffer, slab, and worklist reaches a
  // high-water mark no sub-saturation steady state will exceed.
  for (int round = 0; round < 64; ++round) {
    for (int p = 0; p < ports; ++p) {
      sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
    }
    sw.step();
  }
  ASSERT_TRUE(sw.drain());
  const std::uint64_t before = allocation_count();
  for (int cyc = 0; cyc < 4096; ++cyc) {
    for (int p = 0; p < ports; ++p) {
      if (rng.chance(0.15)) {
        sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
      }
    }
    sw.step();
  }
  ASSERT_TRUE(sw.drain());
  EXPECT_EQ(allocation_count(), before)
      << "CycleSwitch::step() allocated in the steady-state window";
}

// ---------------------------------------------------------------------------
// Deep per-port backlog: with head-indexed ring queues a drain's cost is
// linear in the backlog. Before the rework, pop-front was an O(n) erase and
// this workload (tens of thousands of packets queued on two ports) took
// quadratic time in the queue depth.

TEST(CycleSwitchPerf, DeepPerPortBacklogDrainsInBoundedTime) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  sim::Xoshiro256 rng(11);
  constexpr int kPerPort = 1 << 15;
  const auto host_start = std::chrono::steady_clock::now();  // det-lint: allow(system_clock) -- host-time drain bound only
  for (int i = 0; i < kPerPort; ++i) {
    for (int p = 0; p < 2; ++p) {
      sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
    }
  }
  EXPECT_EQ(sw.queued(), static_cast<std::size_t>(2 * kPerPort));
  ASSERT_TRUE(sw.drain(500'000)) << "deep backlog failed to drain";
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // det-lint: allow(system_clock) -- host-time drain bound only
                                    host_start)
          .count();
  EXPECT_EQ(sw.queued(), 0u);
  EXPECT_EQ(sw.injected_total(), static_cast<std::uint64_t>(2 * kPerPort));
  EXPECT_EQ(sw.delivered_total(), sw.injected_total());
  // Generous for shared CI machines; the quadratic behavior this guards
  // against took minutes at this depth.
  EXPECT_LT(host_seconds, 30.0);
}

// ---------------------------------------------------------------------------
// queued() running counter and delivery-statistics exactness.

TEST(CycleSwitch, QueuedCounterTracksBacklog) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  for (int i = 0; i < 100; ++i) {
    sw.inject(i % ports, (i * 7) % ports);
  }
  EXPECT_EQ(sw.queued(), 100u);
  EXPECT_EQ(sw.injected_total(), 0u);  // still queued, not yet in the fabric
  sw.step();
  EXPECT_LT(sw.queued(), 100u);
  EXPECT_EQ(sw.queued() + sw.in_flight() + sw.delivered_total(), 100u);
  ASSERT_TRUE(sw.drain());
  EXPECT_EQ(sw.queued(), 0u);
  EXPECT_EQ(sw.delivered_total(), 100u);
}

void expect_stats_equal(const sim::RunningStats& a, const sim::RunningStats& b,
                        const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.total(), b.total()) << what;
}

TEST(CycleSwitch, StatsExactWithDeliveryLogDisabled) {
  dvnet::CycleSwitch logged(dvnet::Geometry{8, 4});
  dvnet::CycleSwitch bare(dvnet::Geometry{8, 4});
  logged.record_deliveries(true);
  EXPECT_TRUE(logged.deliveries_recorded());
  EXPECT_FALSE(bare.deliveries_recorded());

  const int ports = logged.geometry().ports();
  sim::Xoshiro256 rng(99);
  for (int cyc = 0; cyc < 2000; ++cyc) {
    for (int p = 0; p < ports; ++p) {
      if (rng.chance(0.3)) {
        const int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
        logged.inject(p, dst);
        bare.inject(p, dst);
      }
    }
    logged.step();
    bare.step();
  }
  ASSERT_TRUE(logged.drain());
  ASSERT_TRUE(bare.drain());

  ASSERT_EQ(logged.delivered_total(), bare.delivered_total());
  ASSERT_GT(logged.delivered_total(), 0u);
  EXPECT_EQ(logged.deliveries().size(), logged.delivered_total());
  EXPECT_TRUE(bare.deliveries().empty());

  // Identical traffic => bitwise-identical statistics, log or no log.
  expect_stats_equal(logged.latency_stats(), bare.latency_stats(), "latency");
  expect_stats_equal(logged.hop_stats(), bare.hop_stats(), "hops");
  expect_stats_equal(logged.deflection_stats(), bare.deflection_stats(),
                     "deflections");

  // The log replays to exactly the incremental statistics (same fold order).
  sim::RunningStats replay;
  for (const auto& d : logged.deliveries()) {
    replay.add(static_cast<double>(d.eject_cycle - d.inject_cycle));
  }
  expect_stats_equal(replay, logged.latency_stats(), "latency replay");

  // clear_deliveries resets both the log and the since-last-clear stats.
  logged.clear_deliveries();
  EXPECT_TRUE(logged.deliveries().empty());
  EXPECT_EQ(logged.latency_stats().count(), 0u);
  EXPECT_EQ(logged.hop_stats().count(), 0u);
}

}  // namespace

// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "check/check.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace sim = dvx::sim;
using sim::Coro;
using sim::Engine;

namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(sim::ns(1), 1000);
  EXPECT_EQ(sim::us(2), 2'000'000);
  EXPECT_EQ(sim::seconds(1), sim::kSecond);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::kSecond), 1.0);
  EXPECT_DOUBLE_EQ(sim::to_us(sim::us(3.5)), 3.5);
}

TEST(Time, TransferTimeRoundsUp) {
  // 1 byte at 1 GB/s = 1 ns exactly.
  EXPECT_EQ(sim::transfer_time(1, 1e9), sim::kNanosecond);
  // 1 byte at 3 GB/s is not integral; must round up, never to zero.
  EXPECT_GT(sim::transfer_time(1, 3e9), 0);
  EXPECT_EQ(sim::transfer_time(0, 1e9), 0);
  EXPECT_EQ(sim::transfer_time(-5, 1e9), 0);
}

TEST(Time, RateRoundTrip) {
  const auto d = sim::transfer_time(1 << 20, 4.4e9);
  EXPECT_NEAR(sim::rate_bytes_per_sec(1 << 20, d), 4.4e9, 1e4);
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine e;
  sim::Time seen = -1;
  e.spawn([](Engine& eng, sim::Time& out) -> Coro<void> {
    co_await eng.delay(sim::us(5));
    out = eng.now();
  }(e, seen));
  e.run();
  EXPECT_TRUE(e.all_done());
  EXPECT_EQ(seen, sim::us(5));
}

TEST(Engine, EventsFireInTimeThenSeqOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(sim::ns(10), [&] { order.push_back(2); });
  e.schedule(sim::ns(5), [&] { order.push_back(1); });
  e.schedule(sim::ns(10), [&] { order.push_back(3); });  // same time, later seq
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, MakeKeyGuardsSeqExhaustion) {
  // Force the insertion-seq counter to the edge of the representable range:
  // the last two representable keys must still schedule (and order)
  // correctly, the next one must abort loudly instead of silently wrapping
  // into the slot bits.
#if DVX_CHECK_LEVEL < 1
  GTEST_SKIP() << "the make_key guard is a DVX_CHECK, compiled out at level 0";
#endif
  Engine e;
  e.set_next_seq_for_test(Engine::kMaxSeq - 2);
  std::vector<int> order;
  e.schedule(sim::ns(5), [&] { order.push_back(1); });
  e.schedule(sim::ns(5), [&] { order.push_back(2); });  // same time, later seq
  EXPECT_THROW(e.schedule(sim::ns(7), [] {}), dvx::check::CheckError);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The drain reset the counter: scheduling works again without forgery.
  bool ran = false;
  e.schedule(e.now() + sim::ns(1), [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, WindowWidthIsTheNarrowestHookWidth) {
  Engine e;
  EXPECT_EQ(e.window_width(), 0);  // no hooks: unwindowed
  int wide = 0, narrow = 0;
  // A plain throw, so a width that is not positive is refused at every
  // check level.
  EXPECT_THROW(e.add_window_hook(&wide, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.add_window_hook(&wide, -1, [] {}), std::invalid_argument);
  EXPECT_EQ(e.window_width(), 0);
  e.add_window_hook(&wide, sim::ns(100), [&e, &wide] {
    ++wide;
    EXPECT_EQ(e.window_end() - e.now(), e.window_width());
  });
  EXPECT_EQ(e.window_width(), sim::ns(100));
  e.add_window_hook(&narrow, sim::ns(10), [&narrow] { ++narrow; });
  EXPECT_EQ(e.window_width(), sim::ns(10));
  // Events 0, 50 and 150 ns after now.
  auto schedule_three = [&e] {
    for (const double t : {0.0, 50.0, 150.0}) e.schedule(e.now() + sim::ns(t), [] {});
  };
  // Three 10-ns windows, each closed once by each hook.
  schedule_three();
  e.run();
  EXPECT_EQ(narrow, 3);
  EXPECT_EQ(wide, 3);
  // Without the narrow hook the width is 100 ns again: the first two
  // events share a window.
  e.remove_window_hook(&narrow);
  EXPECT_EQ(e.window_width(), sim::ns(100));
  schedule_three();
  e.run();
  EXPECT_EQ(narrow, 3);
  EXPECT_EQ(wide, 5);
  // Without hooks the engine is unwindowed again and closes no window.
  e.remove_window_hook(&wide);
  EXPECT_EQ(e.window_width(), 0);
  schedule_three();
  e.run();
  EXPECT_EQ(wide, 5);
}

TEST(Engine, NestedCoroutinesPropagateValues) {
  Engine e;
  int result = 0;
  auto leaf = [](Engine& eng) -> Coro<int> {
    co_await eng.delay(sim::ns(7));
    co_return 42;
  };
  e.spawn([](Engine& eng, auto leaf_fn, int& out) -> Coro<void> {
    const int a = co_await leaf_fn(eng);
    const int b = co_await leaf_fn(eng);
    out = a + b;
  }(e, leaf, result));
  const auto end = e.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(end, sim::ns(14));
}

TEST(Engine, ExceptionsFromProcessesSurfaceInRun) {
  Engine e;
  e.spawn([](Engine& eng) -> Coro<void> {
    co_await eng.delay(1);
    throw std::runtime_error("boom");
  }(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, ManyProcessesDeterministicFinishTime) {
  auto run_once = [] {
    Engine e;
    for (int i = 0; i < 64; ++i) {
      e.spawn([](Engine& eng, int id) -> Coro<void> {
        for (int k = 0; k < 10; ++k) co_await eng.delay(sim::ns(id + k));
      }(e, i));
    }
    return e.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, sim::ns(63 * 10 + 45));  // slowest process: sum of (63+k)
}

TEST(Condition, NotifyAllWakesEveryWaiterAtGivenTime) {
  Engine e;
  sim::Condition cond(e);
  std::vector<sim::Time> wakes;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](sim::Condition& c, Engine& eng, std::vector<sim::Time>& out) -> Coro<void> {
      co_await c.wait();
      out.push_back(eng.now());
    }(cond, e, wakes));
  }
  e.spawn([](sim::Condition& c, Engine& eng) -> Coro<void> {
    co_await eng.delay(sim::ns(50));
    c.notify_all(sim::ns(80));  // event happens later than "now"
  }(cond, e));
  e.run();
  ASSERT_EQ(wakes.size(), 3u);
  for (auto t : wakes) EXPECT_EQ(t, sim::ns(80));
}

TEST(Mailbox, DeliversAtArrivalTimeInArrivalOrder) {
  Engine e;
  sim::Mailbox<int> box(e);
  std::vector<std::pair<sim::Time, int>> got;
  e.spawn([](sim::Mailbox<int>& b, Engine& eng, auto& out) -> Coro<void> {
    for (int i = 0; i < 3; ++i) {
      const int v = co_await b.receive();
      out.emplace_back(eng.now(), v);
    }
  }(box, e, got));
  e.spawn([](sim::Mailbox<int>& b, Engine& eng) -> Coro<void> {
    co_await eng.delay(sim::ns(10));
    b.push(sim::ns(30), 1);  // arrives later
    b.push(sim::ns(15), 2);  // arrives sooner despite later push
    co_await eng.delay(sim::ns(90));
    b.push(eng.now(), 3);
  }(box, e));
  e.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(sim::ns(15), 2));
  EXPECT_EQ(got[1], std::make_pair(sim::ns(30), 1));
  EXPECT_EQ(got[2], std::make_pair(sim::ns(100), 3));
}

TEST(Rng, DeterministicAndUniform) {
  sim::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  sim::Xoshiro256 r(7);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedEnough) {
  sim::Xoshiro256 r(99);
  constexpr std::uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[r.below(kBound)];
  for (auto c : counts) EXPECT_NEAR(c, kN / kBound, kN / kBound * 0.1);
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  sim::RunningStats s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.total(), 15.0);
}

TEST(Stats, MergeEdgeCasesMatchOneShotAccumulation) {
  // Merging into an empty accumulator equals the one-shot result exactly.
  sim::RunningStats one_shot, empty, filled;
  for (double x : {4.0, -1.0, 2.5}) {
    one_shot.add(x);
    filled.add(x);
  }
  empty.merge(filled);
  EXPECT_EQ(empty.count(), one_shot.count());
  EXPECT_DOUBLE_EQ(empty.mean(), one_shot.mean());
  EXPECT_DOUBLE_EQ(empty.variance(), one_shot.variance());
  EXPECT_DOUBLE_EQ(empty.min(), one_shot.min());
  EXPECT_DOUBLE_EQ(empty.max(), one_shot.max());
  EXPECT_DOUBLE_EQ(empty.total(), one_shot.total());
  // Merging an empty accumulator is a no-op.
  sim::RunningStats nothing;
  filled.merge(nothing);
  EXPECT_EQ(filled.count(), one_shot.count());
  EXPECT_DOUBLE_EQ(filled.mean(), one_shot.mean());
  EXPECT_DOUBLE_EQ(filled.variance(), one_shot.variance());
  // Two empties stay empty (and harmless).
  nothing.merge(sim::RunningStats{});
  EXPECT_EQ(nothing.count(), 0u);
  EXPECT_DOUBLE_EQ(nothing.mean(), 0.0);
}

TEST(Stats, MergeEqualsSinglePass) {
  sim::Xoshiro256 r(5);
  sim::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3, 9);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, HarmonicMean) {
  EXPECT_DOUBLE_EQ(sim::harmonic_mean({2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(sim::harmonic_mean({1.0, 2.0, 4.0}), 3.0 / (1.0 + 0.5 + 0.25));
  EXPECT_DOUBLE_EQ(sim::harmonic_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(sim::harmonic_mean({1.0, 0.0}), 0.0);
}

TEST(Stats, LogHistogramBucketsAndQuantiles) {
  sim::LogHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.buckets()[0], 2u);  // 0,1
  EXPECT_EQ(h.buckets()[1], 2u);  // 2,3
  EXPECT_EQ(h.buckets()[2], 1u);  // 4
  EXPECT_GT(h.quantile(0.99), 500.0);
}

TEST(Stats, LogHistogramZeroQuantileSkipsEmptyLeadingBuckets) {
  // All mass in bucket 2 ([4,8)): q=0 must report that bucket's lower edge,
  // not the midpoint of the empty leading bucket 0.
  sim::LogHistogram h;
  h.add(4);
  h.add(5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 4.0);
  // Quantiles with mass behind them still use the bucket midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);
  // With mass in bucket 0, q=0 is that bucket's lower edge (zero).
  sim::LogHistogram h0;
  h0.add(1);
  EXPECT_DOUBLE_EQ(h0.quantile(0.0), 0.0);
  // An empty histogram stays at zero.
  EXPECT_DOUBLE_EQ(sim::LogHistogram{}.quantile(0.0), 0.0);
}

TEST(Stats, LogHistogramTailQuantileBoundedByLastNonEmptyBucket) {
  // Sparse inserts far apart: every quantile — q = 1.0 especially — must
  // land inside the last bucket that has mass, never at the upper edge of
  // the bucket vector (the old fall-through reported 2^size, an estimate
  // above every recorded sample).
  sim::LogHistogram h;
  h.add(1);                     // bucket 0: [0, 2)
  h.add(std::uint64_t{1} << 40);  // bucket 40: [2^40, 2^41)
  EXPECT_DOUBLE_EQ(h.quantile(1.0),
                   (std::ldexp(1.0, 40) + std::ldexp(1.0, 41)) / 2.0);
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_LE(h.quantile(q), std::ldexp(1.0, 41)) << "q = " << q;
  }
  // A single huge sample: the tail quantile is its bucket's midpoint.
  sim::LogHistogram g;
  g.add(std::uint64_t{1} << 62);
  EXPECT_DOUBLE_EQ(g.quantile(1.0),
                   (std::ldexp(1.0, 62) + std::ldexp(1.0, 63)) / 2.0);
}

TEST(Trace, SummaryAndRegularity) {
  sim::Tracer t(true);
  t.record_state(0, sim::NodeState::kCompute, 0, sim::ns(80));
  t.record_state(0, sim::NodeState::kSend, sim::ns(80), sim::ns(100));
  // Source 0 always sends to node 1 -> perfectly regular.
  for (int i = 0; i < 64; ++i) t.record_message(0, 1, i, i + 5, 8, 0);
  auto sum = t.state_summary();
  EXPECT_DOUBLE_EQ(sum[0].fraction(sim::NodeState::kCompute), 0.8);
  EXPECT_DOUBLE_EQ(t.destination_regularity(64), 1.0);
}

TEST(Trace, ScatteredTrafficHasLowRegularity) {
  sim::Tracer t(true);
  sim::Xoshiro256 r(3);
  constexpr int kNodes = 16;
  for (int i = 0; i < 64 * 32; ++i) {
    t.record_message(0, 1 + static_cast<int>(r.below(kNodes - 1)), i, i + 5, 8, 0);
  }
  // Uniform scatter over 15 destinations: max share in a 64-window is small.
  EXPECT_LT(t.destination_regularity(64), 0.25);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  sim::Tracer t(false);
  t.record_state(0, sim::NodeState::kCompute, 0, 100);
  t.record_message(0, 1, 0, 1, 8, 0);
  EXPECT_TRUE(t.states().empty());
  EXPECT_TRUE(t.messages().empty());
}

TEST(Trace, AsciiTimelineRenders) {
  sim::Tracer t(true);
  t.record_state(0, sim::NodeState::kCompute, 0, sim::ns(50));
  t.record_state(1, sim::NodeState::kWait, 0, sim::ns(50));
  const auto s = t.ascii_timeline(20);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find('.'), std::string::npos);
}

}  // namespace

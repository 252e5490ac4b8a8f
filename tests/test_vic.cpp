// Tests for the VIC substrate: packet codec, DV memory, group counters,
// surprise FIFO, PCIe link, DMA engines, and the assembled fabric.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "vic/vic.hpp"

namespace sim = dvx::sim;
namespace vic = dvx::vic;
using sim::Coro;
using sim::Engine;

namespace {

TEST(PacketCodec, RoundTripsRandomHeaders) {
  sim::Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    vic::Header h;
    h.dst_vic = static_cast<std::uint16_t>(rng.below(1 << 16));
    h.kind = static_cast<vic::DestKind>(rng.below(4));
    h.counter = static_cast<std::uint8_t>(rng.below(256));
    h.addr = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(vic::decode_header(vic::encode_header(h)), h);
  }
}

TEST(DvMemory, DefaultCapacityIs32MB) {
  vic::DvMemory m;
  EXPECT_EQ(m.bytes(), 32u << 20);
  EXPECT_EQ(m.words(), (32u << 20) / 8);
}

TEST(DvMemory, ReadWriteAndBounds) {
  vic::DvMemory m(128);
  m.write(5, 0xdeadbeef);
  EXPECT_EQ(m.read(5), 0xdeadbeefu);
  EXPECT_EQ(m.read(6), 0u);
  EXPECT_THROW(m.read(128), std::out_of_range);
  EXPECT_THROW(m.write(128, 1), std::out_of_range);
  EXPECT_THROW(vic::DvMemory(0), std::invalid_argument);
}

TEST(DvMemory, BlockOpsAndBounds) {
  vic::DvMemory m(64);
  const std::vector<std::uint64_t> src = {1, 2, 3, 4};
  m.write_block(10, src);
  std::vector<std::uint64_t> dst(4);
  m.read_block(10, dst);
  EXPECT_EQ(src, dst);
  std::vector<std::uint64_t> big(5);
  EXPECT_THROW(m.write_block(60, big), std::out_of_range);
}

TEST(DvMemory, SparseSegmentsMaterializeOnWrite) {
  vic::DvMemory m;  // full 32 MB card
  EXPECT_EQ(m.resident_segments(), 0u);
  EXPECT_EQ(m.read(3'000'000), 0u);  // untouched words read as zero
  EXPECT_EQ(m.resident_segments(), 0u);
  m.write(3'000'000, 7);
  EXPECT_EQ(m.resident_segments(), 1u);
  EXPECT_EQ(m.read(3'000'000), 7u);
}

TEST(DvMemory, BlockOpsCrossSegmentBoundaries) {
  vic::DvMemory m(vic::DvMemory::kSegmentWords * 2);
  std::vector<std::uint64_t> src(100);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = i + 1;
  const auto base = static_cast<std::uint32_t>(vic::DvMemory::kSegmentWords - 50);
  m.write_block(base, src);
  std::vector<std::uint64_t> dst(100);
  m.read_block(base, dst);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(m.resident_segments(), 2u);
}

TEST(GroupCounter, WaiterResumesAtSettleTime) {
  Engine e;
  vic::GroupCounter gc(e);
  sim::Time woke = -1;
  bool ok = false;
  e.spawn([](Engine& eng, vic::GroupCounter& c, sim::Time& t, bool& res) -> Coro<void> {
    c.set(eng.now(), 3);
    res = co_await c.wait_zero();
    t = eng.now();
  }(e, gc, woke, ok));
  e.spawn([](Engine& eng, vic::GroupCounter& c) -> Coro<void> {
    co_await eng.delay(sim::us(1));
    c.decrement(sim::us(5));          // registered now, lands later
    c.decrement(sim::us(2));
    c.decrement(sim::us(9));          // latest arrival dominates
  }(e, gc));
  e.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(woke, sim::us(9));
  EXPECT_EQ(gc.value(), 0u);
  EXPECT_EQ(gc.lost_decrements(), 0u);
}

TEST(GroupCounter, TimeoutExpires) {
  Engine e;
  vic::GroupCounter gc(e);
  bool ok = true;
  sim::Time woke = -1;
  e.spawn([](Engine& eng, vic::GroupCounter& c, bool& res, sim::Time& t) -> Coro<void> {
    c.set(eng.now(), 2);
    c.decrement(eng.now());  // only one of two arrives
    res = co_await c.wait_zero(sim::us(4));
    t = eng.now();
  }(e, gc, ok, woke));
  e.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(woke, sim::us(4));
  EXPECT_EQ(gc.value(), 1u);
}

TEST(GroupCounter, DecrementAgainstZeroIsLost) {
  // Reproduces the documented race: data packets arriving before the
  // "set group counter" control packet are lost, so the counter never
  // reaches the expected zero.
  Engine e;
  vic::GroupCounter gc(e);
  bool ok = true;
  e.spawn([](Engine& eng, vic::GroupCounter& c, bool& res) -> Coro<void> {
    c.decrement(eng.now());      // arrives before the set
    c.set(eng.now(), 1);         // now expects 1 packet that already came
    res = co_await c.wait_zero(sim::us(10));
  }(e, gc, ok));
  e.run();
  EXPECT_FALSE(ok) << "lost arrival must leave the counter nonzero";
  EXPECT_EQ(gc.lost_decrements(), 1u);
  EXPECT_EQ(gc.value(), 1u);
}

TEST(GroupCounter, BatchDecrementUsesLastArrival) {
  // A 100-word run landing from 1 us to 7 us: the waiter resumes when the
  // last word lands.
  Engine e;
  vic::GroupCounter gc(e);
  sim::Time woke = -1;
  e.spawn([](Engine& eng, vic::GroupCounter& c, sim::Time& t) -> Coro<void> {
    c.set(eng.now(), 100);
    c.decrement(vic::ArrivalRamp(sim::us(1), sim::us(7), 100, 0), 100);
    co_await c.wait_zero();
    t = eng.now();
  }(e, gc, woke));
  e.run();
  EXPECT_EQ(woke, sim::us(7));
}

TEST(GroupCounter, BatchDecrementSettlesOnLastAppliedWord) {
  // Words 60..99 of a 100-word burst against a counter expecting 25: the
  // 25th word zeroes it and sets the settle time; the other 15 are lost.
  Engine e;
  vic::GroupCounter gc(e);
  const vic::ArrivalRamp ramp(sim::us(1), sim::us(100), 100, 60);
  gc.set(0, 25);
  gc.decrement(ramp, 40);
  EXPECT_EQ(gc.value(), 0u);
  EXPECT_EQ(gc.lost_decrements(), 15u);
  EXPECT_EQ(gc.settle_time(), ramp.at(24));
  EXPECT_EQ(ramp.at(24), sim::us(1) + (sim::us(100) - sim::us(1)) * 84 / 99);
}

TEST(GroupCounterFile, ReservedIdsAndBounds) {
  Engine e;
  vic::GroupCounterFile file(e);
  EXPECT_NO_THROW(file.at(vic::kScratchCounter));
  EXPECT_NO_THROW(file.at(vic::kBarrierCounterA));
  EXPECT_NO_THROW(file.at(vic::kBarrierCounterB));
  EXPECT_THROW(file.at(64), std::out_of_range);
  EXPECT_THROW(file.at(-1), std::out_of_range);
  EXPECT_EQ(vic::kFirstUserCounter, 1);
}

TEST(SurpriseFifo, DepositBeforeThePreviousArrivalThrows) {
  Engine e;
  vic::SurpriseFifo fifo(e, 16);
  std::vector<std::uint64_t> got;
  e.spawn([](Engine& eng, vic::SurpriseFifo& f, auto& out) -> Coro<void> {
    f.deposit(sim::us(5), vic::Packet{{}, 50});
    f.deposit(sim::us(5), vic::Packet{{}, 51});  // equal arrival: accepted
    EXPECT_THROW(f.deposit(sim::us(2), vic::Packet{{}, 20}), std::logic_error);
    EXPECT_EQ(f.buffered(), 2u);
    EXPECT_EQ(f.total_deposited(), 2u);
    f.deposit(sim::us(8), vic::Packet{{}, 80});
    while (out.size() < 3) {
      auto batch = co_await f.wait_packets();
      for (const auto& p : batch) out.push_back(p.payload);
    }
    // The check follows the clamp: an arrival behind now lands at now,
    // level with the previous one, and is accepted.
    co_await eng.delay(sim::us(2));
    f.deposit(sim::us(10), vic::Packet{{}, 100});
    f.deposit(sim::us(1), vic::Packet{{}, 10});
    const auto last = f.poll();
    for (const auto& p : last) out.push_back(p.payload);
  }(e, fifo, got));
  e.run();
  EXPECT_TRUE(e.all_done());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{50, 51, 80, 100, 10}));
  EXPECT_EQ(fifo.total_drained(), 5u);
}

TEST(SurpriseFifo, PollOnlyReturnsVisiblePackets) {
  Engine e;
  vic::SurpriseFifo fifo(e, 16);
  e.spawn([](Engine& eng, vic::SurpriseFifo& f) -> Coro<void> {
    f.deposit(sim::us(1), vic::Packet{{}, 1});
    f.deposit(sim::us(100), vic::Packet{{}, 2});
    co_await eng.delay(sim::us(2));
    auto now_visible = f.poll();
    EXPECT_EQ(now_visible.size(), 1u);
    EXPECT_EQ(now_visible[0].payload, 1u);
    EXPECT_FALSE(f.ready());
    EXPECT_EQ(f.buffered(), 1u);
  }(e, fifo));
  e.run();
}

TEST(SurpriseFifo, OverflowDropsAndCounts) {
  Engine e;
  vic::SurpriseFifo fifo(e, 4);
  for (int i = 0; i < 10; ++i) fifo.deposit(0, vic::Packet{{}, 0});
  EXPECT_EQ(fifo.buffered(), 4u);
  EXPECT_EQ(fifo.dropped(), 6u);
  EXPECT_EQ(fifo.total_deposited(), 4u);
}

/// The FIFO's contract as a plain heap over (arrival, deposit seq), with the
/// same clamp-to-now and drop-when-full rules.
class ReferenceFifo {
 public:
  explicit ReferenceFifo(std::size_t capacity) : capacity_(capacity) {}

  void deposit(sim::Time now, sim::Time at, std::uint64_t payload) {
    if (heap_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    heap_.push(Entry{std::max(at, now), seq_++, payload});
  }
  std::vector<std::uint64_t> poll(sim::Time now) {
    std::vector<std::uint64_t> out;
    while (ready(now)) {
      out.push_back(heap_.top().payload);
      heap_.pop();
    }
    return out;
  }
  bool ready(sim::Time now) const { return !heap_.empty() && heap_.top().at <= now; }
  sim::Time earliest() const { return heap_.top().at; }
  std::size_t buffered() const { return heap_.size(); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Entry {
    sim::Time at;
    std::uint64_t seq;
    std::uint64_t payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::size_t capacity_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

std::vector<std::uint64_t> payloads(const std::vector<vic::Packet>& packets) {
  std::vector<std::uint64_t> out;
  for (const vic::Packet& p : packets) out.push_back(p.payload);
  return out;
}

class SurpriseFifoOrder : public ::testing::TestWithParam<std::uint64_t> {};

// One seeded stream of deposits, polls, waits and idle time, fed to the FIFO
// and to the reference heap: every output, visibility answer and wake-up
// time must agree. Like the fabric's ejections, the arrivals never go behind
// the previous one once clamped to now.
TEST_P(SurpriseFifoOrder, MatchesReferenceHeap) {
  constexpr std::size_t kCapacity = 48;
  Engine e;
  vic::SurpriseFifo fifo(e, kCapacity);
  ReferenceFifo ref(kCapacity);
  struct Coverage {
    int equal_time = 0, clamped = 0, polls = 0, waits = 0;
  } seen;
  e.spawn([](Engine& eng, vic::SurpriseFifo& f, ReferenceFifo& r, Coverage& cov,
             std::uint64_t seed) -> Coro<void> {
    sim::Xoshiro256 rng(seed);
    sim::Time last_at = 0;
    std::uint64_t next_payload = 0;
    for (int step = 0; step < 20000; ++step) {
      // Every thousand steps end in a flood of deposits with nothing
      // drained, so the FIFO fills and drops.
      const bool flood = step % 1000 >= 900;
      const std::uint64_t op = rng.below(flood ? 55 : 100);
      if (op < 55) {
        // Arrivals mostly run forward in small steps, sometimes jump ahead,
        // sometimes repeat the last one, and sometimes land behind now after
        // idling past the last one.
        const std::uint64_t kind = rng.below(10);
        const sim::Time from = std::max(last_at, eng.now());
        sim::Time at = last_at;
        if (kind < 5) {
          at = from + sim::ns(static_cast<double>(rng.below(20)));
        } else if (kind < 8) {
          at = from + sim::ns(static_cast<double>(rng.below(300)));
        } else if (kind < 9) {
          if (last_at > eng.now()) co_await eng.delay(last_at - eng.now());
          at = eng.now() - sim::ns(static_cast<double>(1 + rng.below(50)));
        }
        const sim::Time landed = std::max(at, eng.now());
        cov.equal_time += landed == last_at ? 1 : 0;
        cov.clamped += at < eng.now() ? 1 : 0;
        last_at = landed;
        f.deposit(at, vic::Packet{{}, next_payload});
        r.deposit(eng.now(), at, next_payload);
        ++next_payload;
      } else if (op < 80) {
        co_await eng.delay(sim::ns(static_cast<double>(rng.below(60))));
      } else if (op < 95) {
        ++cov.polls;
        EXPECT_EQ(payloads(f.poll()), r.poll(eng.now())) << "step " << step;
      } else if (f.buffered() > 0) {
        ++cov.waits;
        const sim::Time wake = r.ready(eng.now()) ? eng.now() : r.earliest();
        const auto got = payloads(co_await f.wait_packets());
        EXPECT_EQ(eng.now(), wake) << "step " << step;
        EXPECT_EQ(got, r.poll(eng.now())) << "step " << step;
      }
      EXPECT_EQ(f.ready(), r.ready(eng.now())) << "step " << step;
      EXPECT_EQ(f.buffered(), r.buffered()) << "step " << step;
      if (::testing::Test::HasFailure()) co_return;
    }
  }(e, fifo, ref, seen, GetParam()));
  e.run();
  EXPECT_EQ(fifo.dropped(), ref.dropped());
  EXPECT_EQ(fifo.total_deposited(), fifo.total_drained() + fifo.buffered());
  // The stream reached every path the contract covers.
  EXPECT_GT(seen.equal_time, 0);
  EXPECT_GT(seen.clamped, 0);
  EXPECT_GT(seen.polls, 0);
  EXPECT_GT(seen.waits, 0);
  EXPECT_GT(fifo.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurpriseFifoOrder, ::testing::Values(1u, 7u, 42u));

TEST(PcieLink, DirectionsAreIndependent) {
  vic::PcieLink link(vic::PcieParams{});
  const auto down = link.occupy(vic::PcieDir::kHostToVic, 1 << 20, 5.5e9, 0);
  const auto up = link.occupy(vic::PcieDir::kVicToHost, 1 << 20, 6.0e9, 0);
  EXPECT_NEAR(sim::to_seconds(down), (1 << 20) / 5.5e9, 1e-7);
  EXPECT_NEAR(sim::to_seconds(up), (1 << 20) / 6.0e9, 1e-7);
  // Neither waited for the other.
  EXPECT_LT(std::max(down, up), down + up);
}

TEST(PcieLink, DirectWriteMatches500MBs) {
  vic::PcieLink link(vic::PcieParams{});
  const std::int64_t bytes = 100 << 20;
  const auto t = link.direct_write(bytes, 0);
  EXPECT_NEAR(sim::rate_bytes_per_sec(bytes, t), 0.5e9, 0.01e9);
}

TEST(PcieLink, DirectReadSlowerThanWrite) {
  vic::PcieLink link(vic::PcieParams{});
  const auto w = link.direct_write(1 << 20, 0);
  vic::PcieLink link2(vic::PcieParams{});
  const auto r = link2.direct_read(1 << 20, 0);
  EXPECT_GT(r, w);
}

TEST(Dma, RatesAreSeveralTimesDirectPaths) {
  vic::PcieParams p{};
  vic::PcieLink link(p);
  vic::DmaEngine down(link, vic::PcieDir::kHostToVic);
  const std::int64_t bytes = 64 << 20;
  const auto res = down.transfer(bytes, 0);
  const double dma_bw = sim::rate_bytes_per_sec(bytes, res.complete - res.start);
  EXPECT_GT(dma_bw, 4.4e9);  // must be able to feed the fabric at line rate
  EXPECT_GT(dma_bw, 4 * 0.5e9);  // "up to 4x faster than direct writes"
}

TEST(Dma, TableRefillCostsExtraSetup) {
  vic::PcieParams p{};
  p.dma_entry_bytes = 64;
  p.dma_table_entries = 4;  // tiny table: 256 B per refill
  vic::PcieLink link(p);
  vic::DmaEngine eng(link, vic::PcieDir::kHostToVic);
  const auto one = eng.transfer(256, 0);
  vic::PcieLink link2(p);
  vic::DmaEngine eng2(link2, vic::PcieDir::kHostToVic);
  const auto two = eng2.transfer(512, 0);  // needs two refills
  const auto d1 = one.complete - one.start;
  const auto d2 = two.complete - two.start;
  EXPECT_GE(d2, 2 * d1 - sim::ns(1));  // two setups + double payload
}

TEST(Dma, InAndOutOverlap) {
  vic::PcieParams p{};
  vic::PcieLink link(p);
  vic::DmaEngine down(link, vic::PcieDir::kHostToVic);
  vic::DmaEngine up(link, vic::PcieDir::kVicToHost);
  const std::int64_t bytes = 32 << 20;
  const auto a = down.transfer(bytes, 0);
  const auto b = up.transfer(bytes, 0);
  // Overlapped: combined completion far less than serialized sum.
  EXPECT_LT(std::max(a.complete, b.complete),
            (a.complete - a.start) + (b.complete - b.start));
}

TEST(DvFabric, MemoryPacketWritesRemoteWordAndDecrementsCounter) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  dvx::dvnet::FabricModel ref(fabric.params().fabric);
  e.spawn([](Engine& eng, vic::DvFabric& f, dvx::dvnet::FabricModel& m) -> Coro<void> {
    f.vic(2).counters().at(5).set(eng.now(), 1);
    vic::Packet p;
    p.header = vic::Header{2, vic::DestKind::kDvMemory, 5, 1234};
    p.payload = 777;
    const sim::Time sent = eng.now();
    f.transmit(0, std::span<const vic::Packet>(&p, 1), sent);
    const auto want = m.send_burst(0, 2, 1, sent);
    EXPECT_GT(want.first_arrival, sent);
    const bool ok = co_await f.vic(2).counters().at(5).wait_zero();
    EXPECT_TRUE(ok);
    EXPECT_EQ(eng.now(), want.first_arrival);
    EXPECT_EQ(f.vic(2).memory().read(1234), 777u);
  }(e, fabric, ref));
  e.run();
  EXPECT_TRUE(e.all_done());
}

TEST(DvFabric, QueryTriggersHostFreeReply) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  e.spawn([](Engine& eng, vic::DvFabric& f) -> Coro<void> {
    f.vic(3).memory().write(50, 0xabcdef);
    // Query VIC 3, addr 50; reply goes to VIC 1's FIFO (not the sender!).
    vic::Packet q;
    q.header = vic::Header{3, vic::DestKind::kQuery, vic::kNoCounter, 50};
    q.payload = vic::encode_header(vic::Header{1, vic::DestKind::kFifo, vic::kNoCounter, 0});
    f.transmit(0, std::span<const vic::Packet>(&q, 1), eng.now());
    auto got = co_await f.vic(1).fifo().wait_packets();
    EXPECT_EQ(got.size(), 1u);  // ASSERT_* cannot be used in a coroutine
    if (!got.empty()) {
      EXPECT_EQ(got[0].payload, 0xabcdefu);
    }
  }(e, fabric));
  e.run();
  EXPECT_TRUE(e.all_done());
}

TEST(DvFabric, TransmitCoalescesRunsToSameDestination) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  constexpr int kCtr = 5;
  std::vector<vic::Packet> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(vic::Packet{vic::Header{1, vic::DestKind::kDvMemory, kCtr,
                                            static_cast<std::uint32_t>(i)},
                                static_cast<std::uint64_t>(i)});
  }
  sim::Time settled = -1;
  e.spawn([](Engine& eng, vic::DvFabric& f, const std::vector<vic::Packet>& b,
             sim::Time& out) -> Coro<void> {
    f.vic(1).counters().at(kCtr).set(eng.now(), 100);
    f.transmit(0, b, 0);
    EXPECT_TRUE(co_await f.vic(1).counters().at(kCtr).wait_zero());
    out = eng.now();
  }(e, fabric, batch, settled));
  e.run();
  // The last word lands where one 100-word burst ends.
  dvx::dvnet::FabricModel ref(fabric.params().fabric);
  const auto t = ref.send_burst(0, 1, 100, 0);
  EXPECT_EQ(settled, t.last_arrival);
  // 100 words through one port: ~100 word-times end to end.
  const auto wt = ref.word_time();
  EXPECT_GE(t.last_arrival - t.first_arrival, 99 * wt);
  EXPECT_LT(t.last_arrival, 120 * wt + ref.base_latency());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fabric.vic(1).memory().read(static_cast<std::uint32_t>(i)),
              static_cast<std::uint64_t>(i));
  }
}

TEST(DvFabric, IntrinsicBarrierIsNearlyFlatInNodeCount) {
  auto barrier_cost = [](int nodes) {
    Engine e;
    vic::DvFabric fabric(e, nodes);
      for (int r = 0; r < nodes; ++r) {
      e.spawn([](vic::DvFabric& f, int rank) -> Coro<void> {
        co_await f.intrinsic_barrier(rank);
      }(fabric, r));
    }
    return e.run();
  };
  const auto t2 = barrier_cost(2);
  const auto t32 = barrier_cost(32);
  EXPECT_GT(t2, 0);
  EXPECT_LT(sim::to_us(t32), 1.6) << "DV barrier should stay ~1us at 32 nodes";
  EXPECT_LT(static_cast<double>(t32) / static_cast<double>(t2), 1.4)
      << "barrier latency must be nearly flat in node count";
}

TEST(DvFabric, BarrierIsReusableAcrossPhases) {
  Engine e;
  vic::DvFabric fabric(e, 3);
  std::vector<sim::Time> done;
  for (int r = 0; r < 3; ++r) {
    e.spawn([](Engine& eng, vic::DvFabric& f, int rank, auto& out) -> Coro<void> {
      for (int phase = 0; phase < 3; ++phase) {
        co_await eng.delay(sim::us(rank + 1));
        co_await f.intrinsic_barrier(rank);
      }
      out.push_back(eng.now());
    }(e, fabric, r, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], done[1]);
  EXPECT_EQ(done[1], done[2]);
}

TEST(DvFabric, BarrierReleasesEveryRankAtTheLastArrivalPlusTheTreeLatency) {
  Engine e;
  vic::DvFabric fabric(e, 3);
  std::vector<int> woke;
  std::vector<sim::Time> at;
  // Rank 2 arrives first and rank 0 last, at 3 us; the last arrival waits
  // for the release too, and every rank wakes in rank order.
  for (int r = 0; r < 3; ++r) {
    e.spawn([](Engine& eng, vic::DvFabric& f, int rank, std::vector<int>& order,
               std::vector<sim::Time>& times) -> Coro<void> {
      co_await eng.delay(sim::us(3 - rank));
      co_await f.intrinsic_barrier(rank);
      order.push_back(rank);
      times.push_back(eng.now());
    }(e, fabric, r, woke, at));
  }
  e.run();
  const auto& p = fabric.params();
  // Three VICs: a two-level AND-tree.
  const sim::Time release = sim::us(3) + p.barrier_base + 2 * p.barrier_per_level;
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(at, std::vector<sim::Time>(3, release));
}

TEST(DvFabric, EarlierReadyBurstEjectsFirstWhateverTheCallOrder) {
  // A (VIC 0) hands over a chunk still crossing PCIe, ready three fabric
  // traversals ahead. B (VIC 1) transmits to the same destination two
  // traversals later, ready at once: earlier than A. The ejection port
  // serves bursts in ready order, so B's lands first.
  Engine e;
  vic::DvFabric fabric(e, 3);
  const sim::Duration traversal = fabric.model().base_latency();
  const vic::Header to2{2, vic::DestKind::kFifo, vic::kNoCounter, 0};
  const std::vector<vic::Packet> a(16, vic::Packet{to2, 0xA});
  const vic::Packet b{to2, 0xB};
  e.schedule(0, [&] { fabric.transmit(0, a, 3 * traversal); });
  e.schedule(2 * traversal, [&] {
    fabric.transmit(1, std::span<const vic::Packet>(&b, 1), e.now());
  });
  std::vector<vic::Packet> got;
  e.schedule(100 * traversal, [&] { got = fabric.vic(2).fifo().poll(); });
  e.run();
  ASSERT_EQ(got.size(), 17u);
  EXPECT_EQ(got.front().payload, 0xBu);
  EXPECT_EQ(got.back().payload, 0xAu);
}

TEST(DvFabric, DeferredTransmitReadsItsSpansAtReady) {
  // A transmit whose ready lies ahead keeps no copy: it reads the caller's
  // spans at ready, so what lands is what they hold then.
  Engine e;
  vic::DvFabric fabric(e, 2);
  const sim::Time ready = sim::us(1);
  vic::Packet p{vic::Header{1, vic::DestKind::kDvMemory, vic::kNoCounter, 100}, 1};
  const vic::Run run{1, vic::kNoCounter, 200, 2};
  std::vector<std::uint64_t> words = {1, 1};
  e.schedule(0, [&] {
    fabric.transmit(0, std::span<const vic::Packet>(&p, 1), ready);
    fabric.transmit(0, std::span<const vic::Run>(&run, 1), words, ready);
  });
  e.schedule(ready / 2, [&] {
    p.payload = 2;
    words[0] = 3;
    words[1] = 4;
  });
  e.run();
  EXPECT_EQ(fabric.vic(1).memory().read(100), 2u);
  EXPECT_EQ(fabric.vic(1).memory().read(200), 3u);
  EXPECT_EQ(fabric.vic(1).memory().read(201), 4u);
}

}  // namespace

// Tests for the dvapi programming model: send paths, remote memory,
// query/reply, counters, FIFO messaging, barriers, word collectives, and
// DV-memory runs checked against a per-word reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "dvapi/collectives.hpp"
#include "dvapi/context.hpp"
#include "obs/collector.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace sim = dvx::sim;
namespace vic = dvx::vic;
namespace dvapi = dvx::dvapi;
namespace dvnet = dvx::dvnet;
namespace obs = dvx::obs;
using sim::Coro;
using sim::Engine;

namespace {

/// Runs `body(ctx)` as one simulated process per rank over a fabric;
/// returns finish time.
template <typename Body>
sim::Time run_nodes(int nodes, Body body, vic::DvFabricParams params = {}) {
  Engine engine;
  vic::DvFabric fabric(engine, nodes, params);
  std::deque<dvapi::DvContext> ctxs;
  for (int r = 0; r < nodes; ++r) ctxs.emplace_back(engine, fabric, r);
  for (int r = 0; r < nodes; ++r) {
    engine.spawn(body(ctxs[static_cast<std::size_t>(r)]));
  }
  const auto t = engine.run();
  EXPECT_TRUE(engine.all_done()) << "some rank deadlocked";
  return t;
}

TEST(DvApi, PutMakesDataVisibleAfterCounterWait) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    constexpr std::uint32_t kAddr = 4096;
    if (ctx.rank() == 1) co_await ctx.counter_set_local(kCtr, 8);
    co_await ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::uint64_t> words = {10, 11, 12, 13, 14, 15, 16, 17};
      co_await ctx.put(1, kAddr, words, kCtr);
    } else {
      const bool ok = co_await ctx.counter_wait_zero(kCtr);
      EXPECT_TRUE(ok);
      std::vector<std::uint64_t> got(8);
      co_await ctx.dma_read_dv(kAddr, got);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 10u + i);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, QueryReadsRemoteWord) {
  run_nodes(3, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr std::uint32_t kAddr = 1000;
    if (ctx.rank() == 2) {
      const std::vector<std::uint64_t> words = {0xfeedface};
      co_await ctx.dma_write_dv(kAddr, words);
    }
    co_await ctx.barrier();
    if (ctx.rank() == 0) {
      const auto v = co_await ctx.query(2, kAddr);
      EXPECT_EQ(v, 0xfeedfaceu);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, FifoCarriesSurprseMessages) {
  run_nodes(4, [](dvapi::DvContext& ctx) -> Coro<void> {
    // Everyone sends its rank to rank 0's FIFO.
    if (ctx.rank() != 0) {
      co_await ctx.send_fifo(0, static_cast<std::uint64_t>(ctx.rank()));
    } else {
      std::uint64_t sum = 0;
      int got = 0;
      while (got < 3) {
        auto batch = co_await ctx.fifo_wait();
        for (const auto& p : batch) {
          sum += p.payload;
          ++got;
        }
      }
      EXPECT_EQ(sum, 1u + 2 + 3);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, RemoteCounterSetArrivesAsControlPacket) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    if (ctx.rank() == 0) {
      co_await ctx.counter_set_remote(1, kCtr, 0);  // release peer
    } else {
      const bool ok = co_await ctx.counter_wait_zero(kCtr, sim::ms(1));
      EXPECT_TRUE(ok);
    }
    co_await ctx.barrier();
  });
}

// --- send-path bandwidth ordering (the physics behind Fig. 3) --------------

double path_bandwidth(int which, std::int64_t words) {
  // Receiver-visible bandwidth: counter armed for `words` arrivals, timed
  // from the post-barrier instant to the counter settling at zero.
  double out = 0.0;
  run_nodes(2, [&out, which, words](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    if (ctx.rank() == 1) {
      co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
    }
    co_await ctx.barrier();
    const sim::Time t0 = ctx.engine().now();
    if (ctx.rank() == 0) {
      std::vector<vic::Packet> batch(static_cast<std::size_t>(words));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].header = vic::Header{1, vic::DestKind::kDvMemory,
                                      static_cast<std::uint8_t>(kCtr),
                                      static_cast<std::uint32_t>(4096 + i)};
        batch[i].payload = i;
      }
      switch (which) {
        case 0: co_await ctx.send_direct_batch(batch); break;
        case 1: co_await ctx.send_cached_batch(batch); break;
        default: co_await ctx.send_dma_batch(batch); break;
      }
    } else {
      EXPECT_TRUE(co_await ctx.counter_wait_zero(kCtr));
      out = sim::rate_bytes_per_sec(words * 8, ctx.engine().now() - t0);
    }
    co_await ctx.barrier();
  });
  return out;
}

TEST(DvApi, SendPathBandwidthOrderingMatchesPaper) {
  const std::int64_t kWords = 256 * 1024;
  const double direct = path_bandwidth(0, kWords);
  const double cached = path_bandwidth(1, kWords);
  const double dma = path_bandwidth(2, kWords);
  // Fig. 3a: DWr/NoCached < DWr/Cached << DMA/Cached.
  EXPECT_LT(direct, cached);
  EXPECT_LT(cached, dma);
  // Direct write limited by the PCIe lane: 16 B cross for 8 B of payload.
  EXPECT_NEAR(direct, 0.25e9, 0.03e9);
  EXPECT_NEAR(cached, 0.5e9, 0.05e9);
  // DMA path approaches the 4.4 GB/s network peak (99.4% at 256 Ki words).
  EXPECT_GT(dma, 0.97 * 4.4e9);
  EXPECT_LT(dma, 1.01 * 4.4e9);
}

TEST(DvApi, FastBarrierSynchronizesAndIsReusable) {
  std::vector<sim::Time> finish;
  std::vector<sim::Time> last_arrival;
  run_nodes(8, [&](dvapi::DvContext& ctx) -> Coro<void> {
    for (int phase = 0; phase < 4; ++phase) {
      // Stagger arrivals so the barrier actually has to wait.
      co_await ctx.engine().delay(sim::us(ctx.rank() == 3 ? 10 : 1));
      if (ctx.rank() == 3) last_arrival.push_back(ctx.engine().now());
      co_await ctx.fast_barrier();
    }
    finish.push_back(ctx.engine().now());
  });
  ASSERT_EQ(finish.size(), 8u);
  // No rank exits before the slowest rank arrived at the final phase.
  for (auto t : finish) EXPECT_GE(t, last_arrival.back());
  // Releases are not simultaneous (counters settle per rank as the
  // all-to-all words land) but the spread stays well under a microsecond.
  const auto [lo, hi] = std::minmax_element(finish.begin(), finish.end());
  EXPECT_LT(*hi - *lo, sim::us(1));
}

TEST(DvApi, FastBarrierCostsMoreThanIntrinsicAndGrowsWithNodes) {
  auto cost = [](int nodes, bool fast) {
    // Measure the second barrier (the first one pays priming).
    sim::Time mark = 0;
    const auto total = run_nodes(nodes, [&mark, fast](dvapi::DvContext& ctx) -> Coro<void> {
      if (fast) {
        co_await ctx.fast_barrier();
      } else {
        co_await ctx.barrier();
      }
      if (ctx.rank() == 0) mark = ctx.engine().now();
      if (fast) {
        co_await ctx.fast_barrier();
      } else {
        co_await ctx.barrier();
      }
    });
    return total - mark;
  };
  const auto intrinsic32 = cost(32, false);
  const auto fast8 = cost(8, true);
  const auto fast32 = cost(32, true);
  EXPECT_GT(fast32, intrinsic32);  // Fig. 4: FastBarrier above the intrinsic
  EXPECT_GT(fast32, fast8);        // all-to-all grows with node count
  EXPECT_LT(sim::to_us(fast32), 10.0);  // but stays in the microsecond range
}

TEST(DvApi, AlltoallWordsExchangesEveryPair) {
  run_nodes(6, [](dvapi::DvContext& ctx) -> Coro<void> {
    std::vector<std::uint64_t> send(6);
    for (int peer = 0; peer < 6; ++peer) {
      send[static_cast<std::size_t>(peer)] =
          static_cast<std::uint64_t>(ctx.rank() * 100 + peer);
    }
    const auto got = co_await dvapi::alltoall_words(ctx, send);
    for (int src = 0; src < 6; ++src) {
      EXPECT_EQ(got[static_cast<std::size_t>(src)],
                static_cast<std::uint64_t>(src * 100 + ctx.rank()));
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, AllreduceAndBroadcast) {
  run_nodes(5, [](dvapi::DvContext& ctx) -> Coro<void> {
    const auto sum =
        co_await dvapi::allreduce_sum(ctx, static_cast<std::uint64_t>(ctx.rank() + 1));
    EXPECT_EQ(sum, 15u);  // 1+2+3+4+5
    const auto mx =
        co_await dvapi::allreduce_max(ctx, static_cast<std::uint64_t>(ctx.rank() * 7));
    EXPECT_EQ(mx, 28u);
    const auto b = co_await dvapi::broadcast_word(
        ctx, ctx.rank() == 2 ? 0xabcull : 0ull, /*root=*/2);
    EXPECT_EQ(b, 0xabcu);
    co_await ctx.barrier();
  });
}

TEST(DvApi, AlltoallRejectsWrongArity) {
  run_nodes(3, [](dvapi::DvContext& ctx) -> Coro<void> {
    std::vector<std::uint64_t> bad(2);  // needs 3
    bool threw = false;
    try {
      co_await dvapi::alltoall_words(ctx, bad);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    co_await ctx.barrier();
  });
}

TEST(DvApi, AlltoallWordsRefusesRegionsThatWouldAlias) {
  // The two sense regions start 64 words apart. At 128 nodes a context's
  // first call still fits and the second would overlap it; at 256 nodes
  // even the first runs past the reserved words.
  for (const int nodes : {128, 256}) {
    run_nodes(nodes, [nodes](dvapi::DvContext& ctx) -> Coro<void> {
      const std::vector<std::uint64_t> send(static_cast<std::size_t>(nodes), 1);
      bool threw = false;
      try {
        const auto got = co_await dvapi::alltoall_words(ctx, send);
        EXPECT_EQ(got.size(), static_cast<std::size_t>(nodes));
        co_await dvapi::alltoall_words(ctx, send);
      } catch (const std::invalid_argument& e) {
        threw = std::string(e.what()).find("at most 64 nodes") != std::string::npos;
      }
      EXPECT_TRUE(threw) << nodes << " nodes";
      co_await ctx.barrier();
    });
  }
}

TEST(DvApi, MixedDestinationDmaBatchLandsEverywhere) {
  // "Aggregation at source": one DMA batch fans out to many nodes.
  run_nodes(8, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    co_await ctx.counter_set_local(kCtr, 7);  // expect one word from each peer
    co_await ctx.barrier();
    std::vector<vic::Packet> batch;
    for (int peer = 0; peer < 8; ++peer) {
      if (peer == ctx.rank()) continue;
      batch.push_back(vic::Packet{
          vic::Header{static_cast<std::uint16_t>(peer), vic::DestKind::kDvMemory,
                      static_cast<std::uint8_t>(kCtr),
                      static_cast<std::uint32_t>(2000 + ctx.rank())},
          static_cast<std::uint64_t>(ctx.rank() + 1)});
    }
    co_await ctx.send_dma_batch(batch);
    EXPECT_TRUE(co_await ctx.counter_wait_zero(kCtr));
    std::vector<std::uint64_t> got(8);
    co_await ctx.dma_read_dv(2000, got);
    for (int src = 0; src < 8; ++src) {
      if (src == ctx.rank()) continue;
      EXPECT_EQ(got[static_cast<std::size_t>(src)], static_cast<std::uint64_t>(src + 1));
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, PacketsSentAccounting) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    if (ctx.rank() == 0) {
      co_await ctx.send_fifo(1, 1);
      co_await ctx.send_fifo(1, 2);
      EXPECT_EQ(ctx.packets_sent(), 2u);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, PutRejectsUnknownCounterOrDestinationBeforePcie) {
  // A counter outside the file (other than kNoCounter) or a destination
  // outside the cluster throws before the send charges any PCIe time. The
  // int counter must not be cut to the header's 8 bits, where 262 would
  // name counter 6 and -1 would name kNoCounter.
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    if (ctx.rank() == 0) {
      constexpr std::uint32_t kAddr = 300;
      vic::GroupCounter& six = ctx.fabric().vic(1).counters().at(6);
      six.set(ctx.engine().now(), 3);
      const std::vector<std::uint64_t> words = {7, 8, 9};
      struct Target {
        int dst, counter;
      };
      const Target bad[] = {
          {1, 262}, {1, -1}, {1, vic::kNumGroupCounters}, {2, 6}, {-1, 6}};
      const sim::Time t0 = ctx.engine().now();
      int rejected = 0;
      for (const Target& t : bad) {
        try {
          co_await ctx.put(t.dst, kAddr, words, t.counter);
        } catch (const std::invalid_argument&) {
          ++rejected;
        }
      }
      EXPECT_EQ(rejected, 5);
      EXPECT_EQ(ctx.engine().now(), t0);
      EXPECT_EQ(ctx.vic().dma_to_vic().transactions(), 0u);
      EXPECT_EQ(ctx.packets_sent(), 0u);
      EXPECT_EQ(six.value(), 3u);

      co_await ctx.put(1, kAddr, words, vic::kNoCounter);
      co_await ctx.put(1, kAddr, words, 6);
      EXPECT_EQ(ctx.packets_sent(), 6u);
      EXPECT_TRUE(co_await six.wait_zero());
      EXPECT_EQ(six.lost_decrements(), 0u);
      EXPECT_EQ(ctx.fabric().vic(1).memory().read(kAddr + 2), 9u);
    }
    co_await ctx.barrier();
  });
}

// --- DV-memory runs against a per-word reference ----------------------------
//
// The same seeded traffic runs through the real stack (dvapi sends into a
// DvFabric, which delivers DV-memory runs) and through a reference written
// here the way the fabric delivered traffic one word at a time: every word
// is its own packet, applied with one DvMemory::write and one
// GroupCounter::decrement(at, 1). The reference paces sends as dvapi does
// (one DMA transfer handed to the fabric one 512-word DMA entry at a time,
// or PIO chunks) and resolves each at injection through its own
// FabricModel: at once when it is ready, else in one event at its ready
// time, and a query reply in one event when the query lands.

constexpr int kRefNodes = 4;
constexpr std::uint32_t kRefWords = 8192;  // DV-memory words traffic may touch
constexpr int kRefFirstCounter = 4;        // counters [4, 12) carry traffic
constexpr int kRefCounters = 8;
constexpr sim::Duration kRefTimeout = sim::us(400);

struct RefSend {
  enum class Path { kDmaRuns, kDmaPackets, kPioPackets };
  sim::Duration gap = 0;  // the sender idles this long first
  Path path = Path::kDmaRuns;
  std::vector<vic::Run> runs;  // kDmaRuns, over `payload`
  std::vector<std::uint64_t> payload;
  std::vector<vic::Packet> packets;  // the packet paths
};

struct RefTraffic {
  std::vector<std::uint64_t> presets;       // [node * kRefCounters + i]
  std::vector<std::vector<RefSend>> sends;  // per source rank
};

/// Everything the comparison looks at after a run.
struct RefOutcome {
  std::vector<std::vector<std::uint64_t>> memory;  // per node, [0, kRefWords)
  std::vector<std::uint64_t> counter_values, lost;
  std::vector<sim::Time> settle;
  std::vector<bool> woke_ok;
  std::vector<sim::Time> woke_at;
  std::vector<std::vector<std::uint64_t>> fifo;  // per node, drained payloads
  std::uint64_t bursts = 0, words = 0;
  std::uint64_t events = 0;
  sim::Time end = 0;
};

std::vector<std::uint64_t> payloads(const std::vector<vic::Packet>& packets) {
  std::vector<std::uint64_t> out;
  for (const vic::Packet& p : packets) out.push_back(p.payload);
  return out;
}

vic::Packet memory_packet(int dst, int counter, std::uint32_t addr, std::uint64_t v) {
  return vic::Packet{vic::Header{static_cast<std::uint16_t>(dst),
                                 vic::DestKind::kDvMemory,
                                 static_cast<std::uint8_t>(counter), addr},
                     v};
}

/// The per-word form of a run send: one kDvMemory packet per payload word.
std::vector<vic::Packet> packets_of(const RefSend& s) {
  std::vector<vic::Packet> out;
  std::size_t w = 0;
  for (const vic::Run& r : s.runs) {
    for (std::uint32_t k = 0; k < r.words; ++k) {
      out.push_back(memory_packet(r.dst, r.counter, r.addr + k, s.payload[w++]));
    }
  }
  return out;
}

/// Seeded traffic over every shape the run path must reproduce: counters
/// preset to zero (all words lost) or below their traffic (zero mid-run),
/// runs longer than a DMA entry, runs sharing a counter within one burst,
/// mixed destinations, and DV-memory packets among FIFO, query and
/// counter-set packets on the packet paths.
RefTraffic make_ref_traffic(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  auto below = [&](std::uint64_t n) { return static_cast<int>(rng.below(n)); };
  auto counter = [&] {
    return below(5) == 0 ? int{vic::kNoCounter} : kRefFirstCounter + below(kRefCounters);
  };
  RefTraffic t;
  for (int i = 0; i < kRefNodes * kRefCounters; ++i) {
    t.presets.push_back(below(4) == 0 ? 0 : 1 + rng.below(2500));
  }
  std::uint64_t value = 1;
  t.sends.resize(kRefNodes);
  for (auto& sends : t.sends) {
    for (int n = 0; n < 4; ++n) {
      RefSend s;
      s.gap = sim::ns(static_cast<double>(rng.below(3000)));
      if (below(2) == 0) {
        s.path = RefSend::Path::kDmaRuns;
        const int runs = 1 + below(6);
        for (int k = 0; k < runs; ++k) {
          vic::Run r{below(kRefNodes), counter(), 0,
                     static_cast<std::uint32_t>(below(3) == 0 ? 513 + below(1100)
                                                              : 1 + below(200))};
          if (k > 0 && below(3) == 0) {
            // Same destination and counter, elsewhere in memory: the two
            // runs share a burst and a counter but do not merge.
            r.dst = s.runs.back().dst;
            r.counter = s.runs.back().counter;
          }
          r.addr = static_cast<std::uint32_t>(rng.below(kRefWords - r.words));
          s.runs.push_back(r);
          for (std::uint32_t w = 0; w < r.words; ++w) s.payload.push_back(value++);
        }
      } else {
        s.path = below(2) == 0 ? RefSend::Path::kDmaPackets : RefSend::Path::kPioPackets;
        int dst = below(kRefNodes), ctr = counter();
        std::uint32_t addr = static_cast<std::uint32_t>(rng.below(kRefWords - 64));
        const int segments = 1 + below(12);
        for (int k = 0; k < segments; ++k) {
          const int kind = below(6);
          if (kind >= 3) {
            // Consecutive words, often resuming the last stretch right
            // after a packet of another kind.
            if (below(2) == 0) {
              dst = below(kRefNodes);
              ctr = counter();
              addr = static_cast<std::uint32_t>(rng.below(kRefWords - 64));
            }
            for (int w = 1 + below(8); w > 0 && addr < kRefWords; --w) {
              s.packets.push_back(memory_packet(dst, ctr, addr++, value++));
            }
            continue;
          }
          vic::Packet p;
          p.header.dst_vic = static_cast<std::uint16_t>(dst);
          if (kind == 0) {
            p.header.kind = vic::DestKind::kFifo;
            p.header.counter = static_cast<std::uint8_t>(counter());
            p.payload = value++;
          } else if (kind == 1) {
            p.header.kind = vic::DestKind::kGroupCounter;
            p.header.addr =
                static_cast<std::uint32_t>(kRefFirstCounter + below(kRefCounters));
            p.payload = rng.below(300);
          } else {
            p.header.kind = vic::DestKind::kQuery;
            p.header.addr = static_cast<std::uint32_t>(rng.below(kRefWords));
            p.payload = vic::encode_header(
                below(2) == 0
                    ? vic::Header{static_cast<std::uint16_t>(below(kRefNodes)),
                                  vic::DestKind::kFifo, vic::kNoCounter, 0}
                    : vic::Header{static_cast<std::uint16_t>(below(kRefNodes)),
                                  vic::DestKind::kDvMemory,
                                  static_cast<std::uint8_t>(counter()),
                                  static_cast<std::uint32_t>(rng.below(kRefWords))});
          }
          s.packets.push_back(p);
        }
      }
      sends.push_back(std::move(s));
    }
  }
  return t;
}

/// The real stack: dvapi contexts over a DvFabric.
class RealSide {
 public:
  RealSide(Engine& e, int nodes) : fabric_(e, nodes) {
    for (int r = 0; r < nodes; ++r) ctxs_.emplace_back(e, fabric_, r);
  }
  vic::GroupCounter& counter(int n, int c) { return fabric_.vic(n).counters().at(c); }
  vic::DvMemory& memory(int n) { return fabric_.vic(n).memory(); }
  vic::SurpriseFifo& fifo(int n) { return fabric_.vic(n).fifo(); }

  Coro<void> send(int src, const RefSend& s) {
    dvapi::DvContext& ctx = ctxs_[static_cast<std::size_t>(src)];
    switch (s.path) {
      case RefSend::Path::kDmaRuns: co_await ctx.send_dma_runs(s.runs, s.payload); break;
      case RefSend::Path::kDmaPackets: co_await ctx.send_dma_batch(s.packets); break;
      case RefSend::Path::kPioPackets: co_await ctx.send_direct_batch(s.packets); break;
    }
  }

 private:
  vic::DvFabric fabric_;
  std::deque<dvapi::DvContext> ctxs_;
};

/// The reference: the fabric and its VICs one word per packet.
class PerWordSide {
 public:
  explicit PerWordSide(Engine& e) : engine_(e) {
    for (int i = 0; i < kRefNodes; ++i) nodes_.push_back(std::make_unique<Node>(e, i));
  }
  PerWordSide(const PerWordSide&) = delete;
  PerWordSide& operator=(const PerWordSide&) = delete;

  vic::GroupCounter& counter(int n, int c) { return node(n).counters.at(c); }
  vic::DvMemory& memory(int n) { return node(n).memory; }
  vic::SurpriseFifo& fifo(int n) { return node(n).fifo; }
  std::uint64_t bursts() const { return bursts_; }
  std::uint64_t words() const { return words_; }

  /// dvapi's send paths: the host overhead, then DMA entries or PIO chunks,
  /// each resolved at the time it lands on the card.
  Coro<void> send(int src, const RefSend& s) {
    const std::vector<vic::Packet> packets =
        s.path == RefSend::Path::kDmaRuns ? packets_of(s) : s.packets;
    const std::span<const vic::Packet> all(packets);
    co_await engine_.delay(api_.host_op_overhead);
    vic::PcieLink& pcie = node(src).pcie;
    if (s.path == RefSend::Path::kPioPackets) {
      sim::Time last = engine_.now();
      const auto chunk = static_cast<std::size_t>(api_.pio_chunk_packets);
      for (std::size_t i = 0; i < packets.size(); i += chunk) {
        const std::size_t n = std::min(chunk, packets.size() - i);
        last = pcie.direct_write(static_cast<std::int64_t>(n) * vic::kPacketBytes,
                                 engine_.now());
        engine_.schedule(last, [this, src, part = all.subspan(i, n), last] {
          transmit(src, part, last);
        });
      }
      co_await engine_.resume_at(last);
      co_return;
    }
    const auto& pp = pcie.params();
    const auto res = node(src).dma.transfer(
        static_cast<std::int64_t>(packets.size()) * vic::kWordBytes, engine_.now());
    const auto entry = static_cast<std::size_t>(pp.dma_entry_bytes / vic::kWordBytes);
    sim::Time ready = res.start + pp.dma_setup;
    for (std::size_t i = 0; i < packets.size(); i += entry) {
      const std::size_t n = std::min(entry, packets.size() - i);
      ready += sim::transfer_time(static_cast<std::int64_t>(n) * vic::kWordBytes,
                                  pp.dma_to_vic_bw);
      co_await engine_.resume_at(ready);
      transmit(src, all.subspan(i, n), engine_.now());
    }
  }

 private:
  struct Node {
    Node(Engine& e, int id)
        : counters(e, id),
          fifo(e, vic::SurpriseFifo::kDefaultCapacity, id),
          pcie(vic::PcieParams{}),
          dma(pcie, vic::PcieDir::kHostToVic, id) {}
    vic::DvMemory memory;
    vic::GroupCounterFile counters;
    vic::SurpriseFifo fifo;
    vic::PcieLink pcie;
    vic::DmaEngine dma;
  };
  Node& node(int n) { return *nodes_[static_cast<std::size_t>(n)]; }

  void transmit(int src, std::span<const vic::Packet> packets, sim::Time ready) {
    for (std::size_t i = 0; i < packets.size();) {
      const int dst = packets[i].header.dst_vic;
      std::size_t j = i;
      while (j < packets.size() && packets[j].header.dst_vic == dst) ++j;
      const auto n = static_cast<std::int64_t>(j - i);
      const auto t = model_.send_burst(src, dst, n, ready);
      ++bursts_;
      words_ += static_cast<std::uint64_t>(n);
      for (std::size_t k = i; k < j; ++k) {
        const auto idx = static_cast<std::int64_t>(k - i);
        deliver(dst, packets[k],
                n == 1 ? t.first_arrival
                       : t.first_arrival +
                             (t.last_arrival - t.first_arrival) * idx / (n - 1));
      }
      i = j;
    }
  }

  void deliver(int dst, const vic::Packet& p, sim::Time at) {
    Node& n = node(dst);
    const vic::Header& h = p.header;
    switch (h.kind) {
      case vic::DestKind::kDvMemory: n.memory.write(h.addr, p.payload); break;
      case vic::DestKind::kFifo: n.fifo.deposit(at, p); break;
      case vic::DestKind::kGroupCounter:
        n.counters.at(static_cast<int>(h.addr)).set(at, p.payload);
        break;
      case vic::DestKind::kQuery: {
        const vic::Packet reply{vic::decode_header(p.payload), n.memory.read(h.addr)};
        engine_.schedule(at, [this, dst, reply, at] {
          transmit(dst, std::span<const vic::Packet>(&reply, 1), at);
        });
        break;
      }
    }
    if (h.counter != vic::kNoCounter && h.kind != vic::DestKind::kGroupCounter) {
      n.counters.at(h.counter).decrement(at, 1);
    }
  }

  Engine& engine_;
  // Four nodes fit the default switch, which DvFabric then keeps as is.
  dvnet::FabricModel model_{dvnet::FabricParams{}};
  dvapi::DvApiParams api_{};
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t bursts_ = 0, words_ = 0;
};

Coro<void> ref_waiter(Engine& e, vic::GroupCounter& c, RefOutcome& out,
                      std::size_t slot) {
  out.woke_ok[slot] = co_await c.wait_zero(kRefTimeout);
  out.woke_at[slot] = e.now();
}

template <typename Side>
Coro<void> ref_sender(Engine& e, Side& side, int src, const std::vector<RefSend>& sends) {
  for (const RefSend& s : sends) {
    co_await e.delay(s.gap);
    co_await side.send(src, s);
  }
}

/// Presets the counters, starts a waiter on each traffic counter and the
/// senders, runs `e` to the end and reads back what is compared.
template <typename Side>
RefOutcome run_traffic(Engine& e, Side& side, const RefTraffic& t) {
  RefOutcome out;
  out.woke_ok.assign(kRefNodes * kRefCounters, false);
  out.woke_at.assign(kRefNodes * kRefCounters, -1);
  for (int i = 0; i < kRefNodes * kRefCounters; ++i) {
    vic::GroupCounter& c =
        side.counter(i / kRefCounters, kRefFirstCounter + i % kRefCounters);
    c.set(0, t.presets[static_cast<std::size_t>(i)]);
    e.spawn(ref_waiter(e, c, out, static_cast<std::size_t>(i)));
  }
  for (int r = 0; r < kRefNodes; ++r) {
    e.spawn(ref_sender(e, side, r, t.sends[static_cast<std::size_t>(r)]));
  }
  out.end = e.run();
  out.events = e.events_processed();
  EXPECT_TRUE(e.all_done());
  for (int n = 0; n < kRefNodes; ++n) {
    out.memory.emplace_back(kRefWords);
    side.memory(n).read_block(0, out.memory.back());
    out.fifo.push_back(payloads(side.fifo(n).poll()));
    for (int c = 0; c < vic::kNumGroupCounters; ++c) {
      const vic::GroupCounter& gc = side.counter(n, c);
      out.counter_values.push_back(gc.value());
      out.settle.push_back(gc.settle_time());
      out.lost.push_back(gc.lost_decrements());
    }
  }
  return out;
}

class RunDelivery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunDelivery, MatchesPerWordReference) {
  const RefTraffic traffic = make_ref_traffic(GetParam());
  RefOutcome got;
  {
    obs::Collector collector;
    const obs::ScopedCollector scope(collector);
    Engine e;
    RealSide real(e, kRefNodes);
    got = run_traffic(e, real, traffic);
    for (const auto& [key, metric] : collector.registry.metrics()) {
      if (const auto* c = std::get_if<obs::Counter>(&metric)) {
        if (key.first == "dv.fabric.bursts") got.bursts = c->value();
        if (key.first == "dv.fabric.words") got.words = c->value();
      }
    }
  }
  RefOutcome want;
  {
    Engine e;
    PerWordSide ref(e);
    want = run_traffic(e, ref, traffic);
    want.bursts = ref.bursts();
    want.words = ref.words();
  }
  for (std::size_t n = 0; n < kRefNodes; ++n) {
    const auto& a = got.memory[n];
    const auto diff = std::mismatch(a.begin(), a.end(), want.memory[n].begin());
    EXPECT_TRUE(diff.first == a.end())
        << "node " << n << " DV memory differs at word " << (diff.first - a.begin());
    EXPECT_EQ(got.fifo[n], want.fifo[n]) << "node " << n << " FIFO";
  }
  EXPECT_EQ(got.counter_values, want.counter_values);
  EXPECT_EQ(got.settle, want.settle);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.woke_ok, want.woke_ok);
  EXPECT_EQ(got.woke_at, want.woke_at);
  EXPECT_EQ(got.bursts, want.bursts);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.end, want.end);

  // The traffic reached the shapes it is meant to cover.
  std::uint64_t lost = 0;
  for (const auto v : want.lost) lost += v;
  EXPECT_GT(lost, 0u) << "no decrement was lost";
  int long_runs = 0;
  for (const auto& sends : traffic.sends) {
    for (const RefSend& s : sends) {
      for (const vic::Run& r : s.runs) long_runs += r.words > 512 ? 1 : 0;
    }
  }
  EXPECT_GT(long_runs, 0) << "no run spans more than one DMA entry";
  EXPECT_GT(std::count(want.woke_ok.begin(), want.woke_ok.end(), true), 0);
  EXPECT_GT(std::count(want.woke_ok.begin(), want.woke_ok.end(), false), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunDelivery, ::testing::Values(1u, 7u, 42u, 99u));

}  // namespace

// Tests for the InfiniBand fabric model and MiniMPI.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ib/topology.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace sim = dvx::sim;
namespace ib = dvx::ib;
namespace mpi = dvx::mpi;
using sim::Coro;
using sim::Engine;

namespace {

// --- fabric timing -----------------------------------------------------------

TEST(IbFabric, LargeTransferEfficiencyNearPaperMeasured72Percent) {
  ib::Fabric fab(2);
  const std::int64_t bytes = 2 << 20;  // 256 Ki words
  const auto t = fab.send_message(0, 1, bytes, 0);
  const double bw = sim::rate_bytes_per_sec(bytes, t.last_arrival);
  // Paper Fig. 3b: IB reaches only ~72% of its 6.8 GB/s peak at this size.
  EXPECT_GT(bw, 0.60 * 6.8e9);
  EXPECT_LT(bw, 0.85 * 6.8e9);
}

TEST(IbFabric, SmallMessageLatencyIsMicrosecondScale) {
  ib::Fabric fab(2);
  const auto t = fab.send_message(0, 1, 64, 0);
  EXPECT_GT(t.last_arrival, sim::ns(500));
  EXPECT_LT(t.last_arrival, sim::us(3));
}

TEST(IbFabric, CrossLeafCostsMoreThanSameLeaf) {
  ib::Fabric fab(32);  // leaves of 8
  const auto same = fab.send_message(0, 1, 4096, 0);
  ib::Fabric fab2(32);
  const auto cross = fab2.send_message(0, 31, 4096, 0);
  EXPECT_GT(cross.last_arrival, same.last_arrival);
}

TEST(IbFabric, SharedSpineLinkCongests) {
  //

  // Two flows from different leaves to the same destination share the
  // spine->leaf and the destination down-link under static routing.
  ib::Fabric fab(32);
  const std::int64_t bytes = 1 << 20;
  const auto alone = fab.send_message(8, 0, bytes, 0);
  ib::Fabric fab2(32);
  const auto a = fab2.send_message(8, 0, bytes, 0);
  const auto b = fab2.send_message(16, 0, bytes, 0);
  const auto worst = std::max(a.last_arrival, b.last_arrival);
  EXPECT_GT(worst, alone.last_arrival + alone.last_arrival / 2)
      << "two converging flows should roughly halve per-flow bandwidth";
}

TEST(IbFabric, MessageRateGateLimitsTinyMessageRate) {
  ib::Fabric fab(2);
  sim::Time last = 0;
  const int kMsgs = 10000;
  for (int i = 0; i < kMsgs; ++i) last = fab.send_message(0, 1, 8, last).last_arrival;
  const double rate = kMsgs / sim::to_seconds(last);
  EXPECT_LT(rate, 110e6);  // "peak message rates of 100 Mref/s"
}

TEST(IbFabric, LoopbackUsesSharedMemory) {
  ib::Fabric fab(4);
  const auto self = fab.send_message(2, 2, 1 << 20, 0);
  const auto wire = fab.send_message(0, 1, 1 << 20, 0);
  EXPECT_LT(self.last_arrival, wire.last_arrival);
}

TEST(IbFabric, RejectsBadNodes) {
  ib::Fabric fab(4);
  EXPECT_THROW(fab.send_message(-1, 0, 8, 0), std::out_of_range);
  EXPECT_THROW(fab.send_message(0, 4, 8, 0), std::out_of_range);
  EXPECT_THROW(ib::Fabric(0), std::invalid_argument);
}

// --- MiniMPI harness ----------------------------------------------------------

template <typename Body>
sim::Time run_ranks(int n, Body body) {
  Engine engine;
  mpi::MpiWorld world(engine, std::make_unique<ib::Fabric>(n), n);
  for (int r = 0; r < n; ++r) engine.spawn(body(world.comm(r)));
  const auto t = engine.run();
  EXPECT_TRUE(engine.all_done()) << "a rank deadlocked";
  return t;
}

TEST(MiniMpi, BlockingSendRecvMovesData) {
  run_ranks(2, [](mpi::Comm comm) -> Coro<void> {
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> payload = {1, 2, 3};
      co_await comm.send(1, 7, std::move(payload));
    } else {
      auto msg = co_await comm.recv(0, 7);
      EXPECT_EQ(msg.src, 0);
      EXPECT_EQ(msg.tag, 7);
      EXPECT_EQ(msg.data, (std::vector<std::uint64_t>{1, 2, 3}));
    }
  });
}

TEST(MiniMpi, UnexpectedMessagesQueueUntilMatched) {
  run_ranks(2, [](mpi::Comm comm) -> Coro<void> {
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> a = {10};
      std::vector<std::uint64_t> b = {20};
      co_await comm.send(1, 1, std::move(a));
      co_await comm.send(1, 2, std::move(b));
    } else {
      co_await comm.engine().delay(sim::us(50));  // both already arrived
      auto second = co_await comm.recv(0, 2);     // match by tag out of order
      auto first = co_await comm.recv(0, 1);
      EXPECT_EQ(second.data.at(0), 20u);
      EXPECT_EQ(first.data.at(0), 10u);
    }
  });
}

TEST(MiniMpi, WildcardsMatchAnySourceAndTag) {
  run_ranks(4, [](mpi::Comm comm) -> Coro<void> {
    if (comm.rank() != 0) {
      std::vector<std::uint64_t> payload = {static_cast<std::uint64_t>(comm.rank())};
      co_await comm.send(0, 100 + comm.rank(), std::move(payload));
    } else {
      std::uint64_t sum = 0;
      for (int i = 0; i < 3; ++i) {
        auto msg = co_await comm.recv(mpi::kAnySource, mpi::kAnyTag);
        EXPECT_EQ(msg.tag, 100 + msg.src);
        sum += msg.data.at(0);
      }
      EXPECT_EQ(sum, 6u);
    }
  });
}

TEST(MiniMpi, RendezvousLargeMessage) {
  run_ranks(2, [](mpi::Comm comm) -> Coro<void> {
    const std::size_t kWords = 64 * 1024;  // 512 KB >> eager threshold
    if (comm.rank() == 0) {
      std::vector<std::uint64_t> big(kWords);
      std::iota(big.begin(), big.end(), 0);
      const sim::Time t0 = comm.engine().now();
      co_await comm.send(1, 3, std::move(big));
      // Rendezvous sender blocks for the full transfer, not just a copy.
      EXPECT_GT(comm.engine().now() - t0, sim::us(50));
    } else {
      auto msg = co_await comm.recv(0, 3);
      EXPECT_EQ(msg.data.size(), kWords);
      EXPECT_EQ(msg.data[12345], 12345u);
    }
  });
}

TEST(MiniMpi, RendezvousUnexpectedRtsThenLateRecv) {
  run_ranks(2, [](mpi::Comm comm) -> Coro<void> {
    const std::size_t kWords = 32 * 1024;
    if (comm.rank() == 0) {
      co_await comm.send(1, 9, std::vector<std::uint64_t>(kWords, 42));
    } else {
      co_await comm.engine().delay(sim::ms(1));  // RTS sits unexpected
      auto msg = co_await comm.recv(0, 9);
      EXPECT_EQ(msg.data.size(), kWords);
      EXPECT_EQ(msg.data.front(), 42u);
    }
  });
}

TEST(MiniMpi, IsendIrecvOverlap) {
  run_ranks(2, [](mpi::Comm comm) -> Coro<void> {
    const int peer = 1 - comm.rank();
    auto r = comm.irecv(peer, 5);
    auto s = comm.isend(peer, 5, {static_cast<std::uint64_t>(comm.rank())});
    co_await comm.wait(s);
    co_await comm.wait(r);
    EXPECT_EQ(r->msg.data.at(0), static_cast<std::uint64_t>(peer));
  });
}

TEST(MiniMpi, SendrecvSwapsWithoutDeadlock) {
  run_ranks(6, [](mpi::Comm comm) -> Coro<void> {
    const int n = comm.size();
    const int right = (comm.rank() + 1) % n;
    const int left = (comm.rank() - 1 + n) % n;
    std::vector<std::uint64_t> payload = {static_cast<std::uint64_t>(comm.rank())};
    auto msg = co_await comm.sendrecv(right, 4, std::move(payload), left, 4);
    EXPECT_EQ(msg.data.at(0), static_cast<std::uint64_t>(left));
  });
}

class MiniMpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpiCollectives, BarrierHoldsBackEarlyRanks) {
  const int n = GetParam();
  std::vector<sim::Time> exit_time;
  run_ranks(n, [&exit_time](mpi::Comm comm) -> Coro<void> {
    co_await comm.engine().delay(sim::us(comm.rank() == 0 ? 100 : 1));
    co_await comm.barrier();
    exit_time.push_back(comm.engine().now());
  });
  ASSERT_EQ(exit_time.size(), static_cast<std::size_t>(n));
  for (auto t : exit_time) EXPECT_GE(t, sim::us(100));
}

TEST_P(MiniMpiCollectives, BcastFromEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; ++root) {
    run_ranks(n, [root](mpi::Comm comm) -> Coro<void> {
      std::vector<std::uint64_t> data;
      if (comm.rank() == root) data = {7, 8, 9};
      auto out = co_await comm.bcast(std::move(data), root);
      EXPECT_EQ(out, (std::vector<std::uint64_t>{7, 8, 9}));
    });
  }
}

TEST_P(MiniMpiCollectives, AllreduceSumAndMax) {
  const int n = GetParam();
  run_ranks(n, [n](mpi::Comm comm) -> Coro<void> {
    const auto sum =
        co_await comm.allreduce_sum(static_cast<std::uint64_t>(comm.rank() + 1));
    EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n + 1) / 2);
    const auto mx =
        co_await comm.allreduce_max(static_cast<std::uint64_t>(comm.rank() * 3));
    EXPECT_EQ(mx, static_cast<std::uint64_t>(3 * (n - 1)));
    const double dsum = co_await comm.allreduce_sum_double(0.5 * (comm.rank() + 1));
    EXPECT_DOUBLE_EQ(dsum, 0.5 * n * (n + 1) / 2);
  });
}

TEST_P(MiniMpiCollectives, GatherCollectsAllBlocks) {
  const int n = GetParam();
  run_ranks(n, [n](mpi::Comm comm) -> Coro<void> {
    std::vector<std::uint64_t> mine = {static_cast<std::uint64_t>(comm.rank() * 11)};
    auto out = co_await comm.gather(std::move(mine), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(out.size(), static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)].at(0),
                  static_cast<std::uint64_t>(i * 11));
      }
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST_P(MiniMpiCollectives, AllgatherDeliversEveryBlockEverywhere) {
  const int n = GetParam();
  run_ranks(n, [n](mpi::Comm comm) -> Coro<void> {
    // Unequal block sizes: rank r contributes r+1 words.
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(comm.rank() + 1),
                                    static_cast<std::uint64_t>(comm.rank()));
    auto out = co_await comm.allgather(std::move(mine));
    EXPECT_EQ(out.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto& blk = out[static_cast<std::size_t>(i)];
      EXPECT_EQ(blk.size(), static_cast<std::size_t>(i + 1));
      for (auto v : blk) EXPECT_EQ(v, static_cast<std::uint64_t>(i));
    }
  });
}

TEST_P(MiniMpiCollectives, AlltoallPersonalizedExchange) {
  const int n = GetParam();
  run_ranks(n, [n](mpi::Comm comm) -> Coro<void> {
    std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      send[static_cast<std::size_t>(peer)] = {
          static_cast<std::uint64_t>(comm.rank() * 1000 + peer)};
    }
    auto out = co_await comm.alltoall(std::move(send));
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(out[static_cast<std::size_t>(src)].at(0),
                static_cast<std::uint64_t>(src * 1000 + comm.rank()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MiniMpiCollectives, ::testing::Values(1, 2, 3, 5, 8, 9),
                         ::testing::PrintToStringParamName());

TEST(MiniMpi, BarrierLatencyGrowsWithNodeCount) {
  auto cost = [](int n) {
    return run_ranks(n, [](mpi::Comm comm) -> Coro<void> { co_await comm.barrier(); });
  };
  const auto t2 = cost(2);
  const auto t32 = cost(32);
  // Fig. 4: MPI-over-IB barrier grows markedly with node count and sits in
  // the multi-microsecond range at 32 nodes.
  EXPECT_GT(t32, 2 * t2);
  EXPECT_GT(sim::to_us(t32), 5.0);
  EXPECT_LT(sim::to_us(t32), 30.0);
}

}  // namespace

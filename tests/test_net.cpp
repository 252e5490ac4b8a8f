// Property tests for the net::Interconnect seam and its two MPI-side
// implementations: the routing/contention behavior the seam refactor must
// preserve in ib::Fabric, mirrored for the new torus::Fabric.

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ib/topology.hpp"
#include "mpi/comm.hpp"
#include "net/interconnect.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "torus/fabric.hpp"

namespace sim = dvx::sim;
namespace net = dvx::net;
namespace ib = dvx::ib;
namespace torus = dvx::torus;
namespace mpi = dvx::mpi;

namespace {

/// First-arrival of one `bytes` message src -> dst on a fresh fabric.
sim::Time fresh_latency(net::Interconnect& fab, int src, int dst,
                        std::int64_t bytes) {
  fab.reset();
  return fab.send_message(src, dst, bytes, 0).first_arrival;
}

// --- ib::Fabric: properties the seam must preserve ---------------------------

TEST(IbSeam, PathLinksSameLeafVsCrossLeaf) {
  ib::Fabric fab(32);  // leaves of 8
  EXPECT_EQ(fab.path_links(0, 0), 0);
  EXPECT_EQ(fab.path_links(0, 7), 2);   // same leaf: up + down
  EXPECT_EQ(fab.path_links(0, 8), 4);   // cross leaf: up + 2 spine hops + down
  EXPECT_EQ(fab.path_links(31, 1), 4);
  EXPECT_THROW(fab.path_links(0, 32), std::out_of_range);
}

TEST(IbSeam, CrossLeafLatencyExceedsSameLeaf) {
  ib::Fabric fab(32);
  const auto near = fresh_latency(fab, 0, 7, 8);
  const auto far = fresh_latency(fab, 0, 8, 8);
  EXPECT_GT(far, near);
}

TEST(IbSeam, ConcurrentFlowsSharingDownLinkSerialize) {
  // Flows 1->0 and 2->0 share the leaf->node down link into 0; the second
  // message must wait out the first one's serialization there.
  ib::Fabric fab(32);
  const std::int64_t kBytes = 1 << 20;
  fab.reset();
  const auto alone = fab.send_message(2, 0, kBytes, 0).last_arrival;
  fab.reset();
  fab.send_message(1, 0, kBytes, 0);
  const auto contended = fab.send_message(2, 0, kBytes, 0).last_arrival;
  EXPECT_GT(contended, alone + sim::us(50));
  // A flow touching none of those links is unaffected.
  fab.reset();
  const auto disjoint_alone = fab.send_message(9, 10, kBytes, 0).last_arrival;
  fab.reset();
  fab.send_message(1, 0, kBytes, 0);
  EXPECT_EQ(fab.send_message(9, 10, kBytes, 0).last_arrival, disjoint_alone);
}

TEST(IbSeam, MessageRateGateSpacesTinySends) {
  ib::Fabric fab(2);
  const int kMsgs = 1000;
  sim::Time last = 0;
  for (int i = 0; i < kMsgs; ++i) {
    last = fab.send_message(0, 1, 8, 0).last_arrival;
  }
  // 100 M msgs/s => 10 ns spacing dominates 999 queued tiny messages.
  EXPECT_GE(last, sim::ns(10) * (kMsgs - 1));
}

TEST(IbSeam, SeamDispatchMatchesDirectCalls) {
  ib::Fabric direct(32);
  std::unique_ptr<net::Interconnect> seam = std::make_unique<ib::Fabric>(32);
  sim::Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng.below(32));
    const int dst = static_cast<int>(rng.below(32));
    const auto bytes = static_cast<std::int64_t>(rng.below(1 << 16)) + 1;
    const auto ready = static_cast<sim::Time>(i) * sim::ns(100);
    const auto a = direct.send_message(src, dst, bytes, ready);
    const auto b = seam->send_message(src, dst, bytes, ready);
    ASSERT_EQ(a.first_arrival, b.first_arrival);
    ASSERT_EQ(a.last_arrival, b.last_arrival);
  }
  EXPECT_EQ(direct.bytes_sent(), seam->bytes_sent());
}

// --- torus::Fabric: mirrored properties --------------------------------------

TEST(TorusFabric, AutoFactorizationIsNearCubic) {
  EXPECT_EQ(torus::Fabric(64).dims(), (std::array<int, 3>{4, 4, 4}));
  EXPECT_EQ(torus::Fabric(32).dims(), (std::array<int, 3>{2, 4, 4}));
  EXPECT_EQ(torus::Fabric(8).dims(), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(torus::Fabric(7).dims(), (std::array<int, 3>{1, 1, 7}));  // ring
}

TEST(TorusFabric, ValidatesConstruction) {
  EXPECT_THROW(torus::Fabric(0), std::invalid_argument);
  torus::TorusParams p;
  p.dims = {4, 4, 4};
  EXPECT_NO_THROW(torus::Fabric(64, p));
  EXPECT_THROW(torus::Fabric(32, p), std::invalid_argument);  // product mismatch
  p.dims = {4, 4, 0};
  EXPECT_THROW(torus::Fabric(64, p), std::invalid_argument);  // partial dims
  torus::Fabric ok(64);
  EXPECT_THROW(ok.send_message(0, 64, 8, 0), std::out_of_range);
}

TEST(TorusFabric, CoordsRoundTrip) {
  torus::Fabric fab(32);
  for (int n = 0; n < 32; ++n) {
    const auto c = fab.coords(n);
    EXPECT_EQ(fab.node_at(c[0], c[1], c[2]), n);
  }
}

TEST(TorusFabric, DimensionOrderPathLengths) {
  torus::Fabric fab(64);  // 4 x 4 x 4
  const int origin = fab.node_at(0, 0, 0);
  EXPECT_EQ(fab.hops(origin, origin), 0);
  EXPECT_EQ(fab.hops(origin, fab.node_at(1, 0, 0)), 1);
  EXPECT_EQ(fab.hops(origin, fab.node_at(3, 0, 0)), 1);  // wraparound -x
  EXPECT_EQ(fab.hops(origin, fab.node_at(2, 0, 0)), 2);  // half the ring
  EXPECT_EQ(fab.hops(origin, fab.node_at(1, 1, 0)), 2);
  EXPECT_EQ(fab.hops(origin, fab.node_at(2, 2, 2)), 6);  // torus diameter
  EXPECT_EQ(fab.dim_hops(origin, fab.node_at(3, 1, 2)),
            (std::array<int, 3>{1, 1, 2}));
}

TEST(TorusFabric, WraparoundSymmetry) {
  torus::Fabric fab(60);  // 3 x 4 x 5: odd and even rings
  for (int a = 0; a < 60; ++a) {
    for (int b = 0; b < 60; ++b) {
      EXPECT_EQ(fab.hops(a, b), fab.hops(b, a));
    }
  }
}

TEST(TorusFabric, LatencyScalesWithManhattanDistance) {
  torus::Fabric fab(64);
  const int origin = fab.node_at(0, 0, 0);
  const auto one = fresh_latency(fab, origin, fab.node_at(1, 0, 0), 8);
  const auto wrap = fresh_latency(fab, origin, fab.node_at(3, 0, 0), 8);
  const auto three = fresh_latency(fab, origin, fab.node_at(1, 1, 1), 8);
  const auto six = fresh_latency(fab, origin, fab.node_at(2, 2, 2), 8);
  EXPECT_EQ(one, wrap);  // both a single hop, one of them wrapped
  EXPECT_LT(one, three);
  EXPECT_LT(three, six);
}

TEST(TorusFabric, SharedLinkSerializesDisjointDoesNot) {
  // Dimension-order in 4x4x4: 0->(2,0,0) goes +x through (1,0,0) — the tie
  // at half the ring resolves positive — so it shares (1,0,0)'s +x link
  // with flow (1,0,0)->(2,0,0).
  torus::Fabric fab(64);
  const std::int64_t kBytes = 1 << 20;
  const int mid = fab.node_at(1, 0, 0);
  const int dst = fab.node_at(2, 0, 0);
  fab.reset();
  const auto alone = fab.send_message(mid, dst, kBytes, 0).last_arrival;
  fab.reset();
  fab.send_message(0, dst, kBytes, 0);
  EXPECT_GT(fab.send_message(mid, dst, kBytes, 0).last_arrival,
            alone + sim::us(50));
  // A flow on another y-row touches none of those links.
  const int a = fab.node_at(0, 1, 0);
  const int b = fab.node_at(1, 1, 0);
  fab.reset();
  const auto disjoint_alone = fab.send_message(a, b, kBytes, 0).last_arrival;
  fab.reset();
  fab.send_message(0, dst, kBytes, 0);
  EXPECT_EQ(fab.send_message(a, b, kBytes, 0).last_arrival, disjoint_alone);
}

TEST(TorusFabric, MessageRateGateSpacesTinySends) {
  torus::Fabric fab(8);
  const int kMsgs = 1000;
  sim::Time last = 0;
  for (int i = 0; i < kMsgs; ++i) {
    last = fab.send_message(0, 1, 8, 0).last_arrival;
  }
  EXPECT_GE(last, sim::ns(10) * (kMsgs - 1));
}

TEST(TorusFabric, LoopbackUsesSharedMemory) {
  torus::Fabric fab(8);
  const auto t = fab.send_message(3, 3, 1 << 20, 0);
  EXPECT_EQ(t.first_arrival, t.last_arrival);
  // 1 MiB at 8 GB/s host copy ~ 131 us; far below one network hop per MTU.
  EXPECT_LT(t.last_arrival, sim::us(200));
}

TEST(TorusFabric, LinkByteConservation) {
  // Every payload byte is serialized on exactly hops(src, dst) links.
  torus::Fabric fab(60);
  sim::Xoshiro256 rng(7);
  std::int64_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    const int src = static_cast<int>(rng.below(60));
    const int dst = static_cast<int>(rng.below(60));
    const auto bytes = static_cast<std::int64_t>(rng.below(1 << 15)) + 1;
    fab.send_message(src, dst, bytes, 0);
    if (src != dst) expected += bytes * fab.hops(src, dst);
  }
  EXPECT_EQ(fab.link_bytes(), expected);
  fab.reset();
  EXPECT_EQ(fab.link_bytes(), 0);
  EXPECT_EQ(fab.bytes_sent(), 0);
}

TEST(TorusFabric, EvenDimensionTieRoutesPositive) {
  // On an even-extent dimension, a distance of exactly dims[d]/2 is the same
  // length both ways. The documented tie-break is the positive direction —
  // this pins it as a property over every node and dimension of a 4x4x4
  // torus, so a future routing change cannot silently flip it (the links are
  // directional, so a flip would move contention without failing any
  // latency test).
  torus::Fabric fab(64);
  ASSERT_EQ(fab.dims(), (std::array<int, 3>{4, 4, 4}));
  std::vector<std::size_t> path;
  for (int node = 0; node < fab.nodes(); ++node) {
    const auto c = fab.coords(node);
    for (int d = 0; d < 3; ++d) {
      auto want = c;
      want[static_cast<std::size_t>(d)] = (c[static_cast<std::size_t>(d)] + 2) % 4;
      const int dst = fab.node_at(want[0], want[1], want[2]);
      path.clear();
      fab.build_path(node, dst, path);
      ASSERT_EQ(path.size(), 2u) << "node " << node << " dim " << d;
      // First hop: the source's own positive link in dimension d; second
      // hop: the positive link of the intermediate node.
      auto mid = c;
      mid[static_cast<std::size_t>(d)] = (c[static_cast<std::size_t>(d)] + 1) % 4;
      EXPECT_EQ(path[0], fab.link_id(node, d, /*positive=*/true))
          << "node " << node << " dim " << d;
      EXPECT_EQ(path[1],
                fab.link_id(fab.node_at(mid[0], mid[1], mid[2]), d,
                            /*positive=*/true))
          << "node " << node << " dim " << d;
    }
  }
  // Sanity that distances past the tie still take the genuinely shorter
  // (negative) direction: 3 hops positive is 1 hop negative.
  path.clear();
  fab.build_path(fab.node_at(0, 0, 0), fab.node_at(3, 0, 0), path);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], fab.link_id(fab.node_at(0, 0, 0), 0, /*positive=*/false));
}

// --- MiniMPI over the seam ---------------------------------------------------

TEST(NetSeam, MiniMpiRunsOverTorus) {
  sim::Engine engine;
  mpi::MpiWorld world(engine, std::make_unique<torus::Fabric>(8), 8);
  for (int r = 0; r < 8; ++r) {
    engine.spawn([](mpi::Comm comm) -> sim::Coro<void> {
      const int n = comm.size();
      const int right = (comm.rank() + 1) % n;
      const int left = (comm.rank() - 1 + n) % n;
      std::vector<std::uint64_t> payload = {static_cast<std::uint64_t>(comm.rank())};
      auto msg = co_await comm.sendrecv(right, 1, std::move(payload), left, 1);
      EXPECT_EQ(msg.data.at(0), static_cast<std::uint64_t>(left));
      co_await comm.barrier();
    }(world.comm(r)));
  }
  engine.run();
  EXPECT_TRUE(engine.all_done()) << "a rank deadlocked over the torus";
  EXPECT_GT(world.fabric().bytes_sent(), 0);
}

TEST(NetSeam, MpiWorldRejectsNullAndOversizedWorlds) {
  sim::Engine engine;
  EXPECT_THROW(mpi::MpiWorld(engine, nullptr, 4), std::invalid_argument);
  EXPECT_THROW(mpi::MpiWorld(engine, std::make_unique<torus::Fabric>(2), 4),
               std::invalid_argument);
}

}  // namespace

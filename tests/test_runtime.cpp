// Tests for the runtime layer: cost model, cluster harness, reporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dvapi/collectives.hpp"
#include "runtime/cluster.hpp"
#include "runtime/constants.hpp"
#include "runtime/report.hpp"

namespace sim = dvx::sim;
namespace runtime = dvx::runtime;
using sim::Coro;

namespace {

TEST(CostModel, RatesMatchParams) {
  runtime::CostModel cm;
  EXPECT_EQ(cm.flops(2.4e10), sim::kSecond);
  EXPECT_EQ(cm.stream_bytes(5.0e10), sim::kSecond);
  // 8 random accesses resolve concurrently at MLP 8 -> one latency.
  EXPECT_EQ(cm.random_accesses(8), sim::ns(95));
  EXPECT_EQ(cm.flops(0), 0);
  EXPECT_EQ(cm.flops(-5), 0);
}

TEST(Cluster, DvProgramRunsOnAllRanks) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4});
  int visits = 0;
  const auto res = cluster.run_dv(
      [&visits](dvx::dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
        ++visits;
        node.roi_begin();
        co_await node.compute_flops(1e6);
        co_await ctx.barrier();
        node.roi_end();
      });
  EXPECT_EQ(visits, 4);
  EXPECT_GT(res.roi, 0);
  EXPECT_GE(res.finished, res.roi);
}

TEST(Cluster, MpiProgramRunsOnAllRanks) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4});
  const auto res =
      cluster.run_mpi([](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
        node.roi_begin();
        const auto sum = co_await comm.allreduce_sum(1);
        EXPECT_EQ(sum, 4u);
        node.roi_end();
      });
  EXPECT_GT(res.roi, 0);
}

TEST(Cluster, SameProgramIsDeterministicAcrossRuns) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 8});
  auto program = [](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
    node.roi_begin();
    for (int i = 0; i < 3; ++i) co_await comm.barrier();
    node.roi_end();
  };
  const auto a = cluster.run_mpi(program);
  const auto b = cluster.run_mpi(program);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.roi, b.roi);
}

TEST(Cluster, ComputeChargesShowUpInTrace) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 2, .trace = true});
  cluster.run_dv([](dvx::dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    co_await node.compute_stream(1e6);
    co_await ctx.barrier();
  });
  const auto sum = cluster.tracer().state_summary();
  EXPECT_GT(sum.at(0).per_state[static_cast<int>(sim::NodeState::kCompute)], 0);
  EXPECT_GT(sum.at(1).per_state[static_cast<int>(sim::NodeState::kBarrier)], 0);
}

TEST(Cluster, ShardMapIsDeterministicBalancedAndComplete) {
  // The node -> shard map is a pure function: contiguous balanced blocks,
  // every shard non-empty whenever shards <= nodes.
  for (const auto& [nodes, shards] : {std::pair{32, 4}, {7, 3}, {5, 5},
                                      {64, 1}, {3, 8}}) {
    const auto map = runtime::Cluster::shard_map(nodes, shards);
    ASSERT_EQ(static_cast<int>(map.size()), nodes);
    std::vector<int> count(static_cast<std::size_t>(shards), 0);
    for (int r = 0; r < nodes; ++r) {
      ASSERT_GE(map[static_cast<std::size_t>(r)], 0);
      ASSERT_LT(map[static_cast<std::size_t>(r)], shards);
      if (r > 0) {  // contiguous blocks: the map is nondecreasing
        EXPECT_GE(map[static_cast<std::size_t>(r)],
                  map[static_cast<std::size_t>(r - 1)]);
      }
      ++count[static_cast<std::size_t>(map[static_cast<std::size_t>(r)])];
    }
    if (shards <= nodes) {
      const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
      EXPECT_GT(*lo, 0) << nodes << "/" << shards;
      EXPECT_LE(*hi - *lo, 1) << nodes << "/" << shards;  // balanced
    }
    EXPECT_EQ(map, runtime::Cluster::shard_map(nodes, shards));
  }
}

TEST(Cluster, ResolveShardingWindowsEveryPositiveLookahead) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.engine_threads = 4;
  const auto plan = runtime::Cluster::resolve_sharding(cfg, sim::ns(10));
  EXPECT_EQ(plan.shards, 4);
  EXPECT_EQ(plan.threads, 4);
  EXPECT_EQ(plan.lookahead, sim::ns(10));
  // More threads than nodes: shards clamp to the node count.
  cfg.engine_threads = 64;
  EXPECT_EQ(runtime::Cluster::resolve_sharding(cfg, sim::ns(10)).shards, 8);
  // A fabric without a positive lookahead cannot be windowed, so its plan
  // is rejected.
  cfg.engine_threads = 4;
  EXPECT_THROW(runtime::Cluster::resolve_sharding(cfg, 0), std::invalid_argument);
  EXPECT_THROW(runtime::Cluster::resolve_sharding(cfg, -1), std::invalid_argument);
}

// The tentpole contract of ISSUE 10: the virtual-time trajectory of a real
// multi-rank program is identical at shards = 1 and shards = 4 on every
// fabric backend. (The full byte-identity of sweeps, metrics and traces is
// covered end-to-end by test_obs and the CI diff job; this pins the
// per-backend RunResult equivalence at unit-test cost.)
TEST(Cluster, ShardedTrajectoryMatchesSerialOnEveryFabric) {
  auto mpi_program = [](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
    node.roi_begin();
    const int rank = comm.rank();
    const int peer = rank ^ 1;
    if (peer < comm.size()) {
      for (int i = 0; i < 4; ++i) {
        co_await node.compute_flops(1e5 * (1 + rank % 3));
        const std::uint64_t payload = static_cast<std::uint64_t>(rank * 100 + i);
        if (rank < peer) {
          co_await comm.send(peer, i, std::vector<std::uint64_t>(1, payload));
          co_await comm.allreduce_sum(payload);
        } else {
          const auto got = co_await comm.recv(peer, i);
          co_await comm.allreduce_sum(got.data.front());
        }
      }
    }
    co_await comm.barrier();
    node.roi_end();
  };
  auto dv_program = [](dvx::dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    node.roi_begin();
    for (int i = 0; i < 4; ++i) {
      co_await node.compute_flops(1e5 * (1 + ctx.rank() % 3));
      const int dst = (ctx.rank() + 1 + i) % ctx.nodes();
      co_await ctx.send_fifo(dst, static_cast<std::uint64_t>(ctx.rank() * 1000 + i));
      co_await ctx.barrier();
    }
    node.roi_end();
  };
  auto run = [&](runtime::MpiFabric fabric, bool dv, int threads) {
    runtime::ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.engine_threads = threads;
    cfg.mpi_fabric = fabric;
    runtime::Cluster cluster(cfg);
    return dv ? cluster.run_dv(dv_program) : cluster.run_mpi(mpi_program);
  };
  for (const bool dv : {true, false}) {
    for (const auto fabric : {runtime::MpiFabric::kIb, runtime::MpiFabric::kTorus}) {
      const auto serial = run(fabric, dv, 1);
      const auto sharded = run(fabric, dv, 4);
      EXPECT_EQ(serial.finished, sharded.finished)
          << (dv ? "dv" : runtime::to_string(fabric));
      EXPECT_EQ(serial.roi, sharded.roi)
          << (dv ? "dv" : runtime::to_string(fabric));
      if (dv) break;  // run_dv ignores mpi_fabric; once is enough
    }
  }
}

TEST(Report, TableAlignsAndCsvRoundTrips) {
  runtime::Table t("demo", {"nodes", "GUPS"});
  t.row({"4", "0.12"}).row({"32", "1.20"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("32"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "nodes,GUPS\n4,0.12\n32,1.20\n");
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(Report, Formatters) {
  EXPECT_EQ(runtime::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(runtime::fmt_gbs(4.4e9), "4.400 GB/s");
  EXPECT_EQ(runtime::fmt_us(12.5), "12.50 us");
}

TEST(PaperConstants, SanityAgainstModelDefaults) {
  // The encoded defaults must reproduce the paper's headline rates.
  dvx::dvnet::FabricModel fm(dvx::dvnet::FabricParams{.geometry = {8, 4}});
  EXPECT_NEAR(fm.port_bandwidth(), runtime::paper::kDvPeakBw, 0.05e9);
  dvx::vic::PcieParams pcie;
  EXPECT_DOUBLE_EQ(pcie.direct_write_bw, runtime::paper::kPcieDirectWriteBw);
  dvx::ib::IbParams ibp;
  EXPECT_DOUBLE_EQ(ibp.link_bw, runtime::paper::kIbPeakBw);
}

}  // namespace

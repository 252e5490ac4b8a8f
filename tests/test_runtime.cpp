// Tests for the runtime layer: cost model, cluster harness, reporters.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
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

// Cross-layer integration and property tests: distributed transpose
// identities, collective stress under sense reversal, determinism across
// the whole stack, tracer plumbing, and model cross-validation.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/fft1d.hpp"
#include "apps/gups.hpp"
#include "apps/transpose.hpp"
#include "dvapi/collectives.hpp"
#include "dvnet/cycle_switch.hpp"
#include "dvnet/fabric_model.hpp"
#include "runtime/cluster.hpp"
#include "kernels/fft.hpp"
#include "sim/rng.hpp"

namespace sim = dvx::sim;
namespace apps = dvx::apps;
namespace dvapi = dvx::dvapi;
namespace runtime = dvx::runtime;

using sim::Coro;

namespace {

runtime::Cluster make_cluster(int nodes, bool trace = false) {
  return runtime::Cluster(runtime::ClusterConfig{.nodes = nodes, .trace = trace});
}

std::vector<dvx::kernels::Complex> random_matrix(std::int64_t elems, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<dvx::kernels::Complex> m(static_cast<std::size_t>(elems));
  for (auto& z : m) z = dvx::kernels::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return m;
}

class TransposeProperty : public ::testing::TestWithParam<int> {};

// Property: transposing twice returns the original distribution, on both
// backends, for non-square shapes.
TEST_P(TransposeProperty, DoubleTransposeIsIdentity) {
  const int p = GetParam();
  const std::int64_t rows = 16 * p, cols = 8 * p;

  // MPI backend.
  {
    auto cluster = make_cluster(p);
    double err = 0.0;
    cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 100 + static_cast<unsigned>(comm.rank()));
      auto t = co_await apps::transpose_mpi(comm, node, mine, rows, cols, 1);
      auto tt = co_await apps::transpose_mpi(comm, node, t, cols, rows, 2);
      err = std::max(err, dvx::kernels::max_abs_diff(tt, mine));
    });
    EXPECT_EQ(err, 0.0) << "MPI double transpose must be exact";
  }
  // Data Vortex backend.
  {
    auto cluster = make_cluster(p);
    double err = 0.0;
    cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 100 + static_cast<unsigned>(ctx.rank()));
      auto t = co_await apps::transpose_dv(ctx, node, mine, rows, cols,
                                           dvapi::kFirstFreeDvWord,
                                           dvapi::kFirstFreeCounter);
      auto tt = co_await apps::transpose_dv(ctx, node, t, cols, rows,
                                            dvapi::kFirstFreeDvWord,
                                            dvapi::kFirstFreeCounter);
      err = std::max(err, dvx::kernels::max_abs_diff(tt, mine));
    });
    EXPECT_EQ(err, 0.0) << "DV double transpose must be exact";
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, TransposeProperty, ::testing::Values(1, 2, 4, 8),
                         ::testing::PrintToStringParamName());

// Property: both backends compute the same transpose bit-for-bit.
TEST(TransposeProperty, BackendsAgreeExactly) {
  const int p = 4;
  const std::int64_t rows = 32, cols = 64;
  std::vector<std::vector<dvx::kernels::Complex>> mpi_out(p), dv_out(p);
  {
    auto cluster = make_cluster(p);
    cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 7 + static_cast<unsigned>(comm.rank()));
      mpi_out[static_cast<std::size_t>(comm.rank())] =
          co_await apps::transpose_mpi(comm, node, mine, rows, cols, 1);
    });
  }
  {
    auto cluster = make_cluster(p);
    cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 7 + static_cast<unsigned>(ctx.rank()));
      dv_out[static_cast<std::size_t>(ctx.rank())] = co_await apps::transpose_dv(
          ctx, node, mine, rows, cols, dvapi::kFirstFreeDvWord,
          dvapi::kFirstFreeCounter);
    });
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(dvx::kernels::max_abs_diff(mpi_out[static_cast<std::size_t>(r)],
                                         dv_out[static_cast<std::size_t>(r)]),
              0.0);
  }
}

// Stress the sense-reversal collectives: many back-to-back collectives with
// skewed rank timing must neither deadlock nor mix phases.
TEST(Collectives, SenseReversalSurvivesSkewedStress) {
  auto cluster = make_cluster(8);
  cluster.run_dv([](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
    sim::Xoshiro256 rng(static_cast<std::uint64_t>(ctx.rank()) + 17);
    for (int round = 0; round < 50; ++round) {
      co_await node.engine().delay(sim::ns(static_cast<double>(rng.below(3000))));
      const auto sum = co_await dvapi::allreduce_sum(
          ctx, static_cast<std::uint64_t>(round * 8 + ctx.rank()));
      // sum of round*8 + r for r in 0..7 = 64*round + 28
      EXPECT_EQ(sum, static_cast<std::uint64_t>(64 * round + 28)) << "round " << round;
      if (round % 7 == 0) co_await ctx.fast_barrier();
      if (round % 11 == 0) co_await ctx.barrier();
    }
  });
}

// Determinism across the full stack: two identical GUPS runs give identical
// virtual times and identical results.
TEST(Determinism, FullStackGupsIsBitStable) {
  apps::GupsParams gp{.local_table_words = 1 << 12, .updates_per_node = 1 << 12};
  auto c1 = make_cluster(8);
  auto c2 = make_cluster(8);
  const auto a = apps::run_gups_dv(c1, gp);
  const auto b = apps::run_gups_dv(c2, gp);
  EXPECT_EQ(a.seconds, b.seconds);
  const auto am = apps::run_gups_mpi(c1, gp);
  const auto bm = apps::run_gups_mpi(c2, gp);
  EXPECT_EQ(am.seconds, bm.seconds);
}

// Tracer plumbing: a traced DV FFT run produces compute and send intervals
// for every rank.
TEST(Tracing, DvRunsProduceStateIntervals) {
  runtime::Cluster cluster(runtime::ClusterConfig{.nodes = 4, .trace = true});
  apps::FftParams fp{.log_size = 12};
  apps::run_fft_dv(cluster, fp);
  const auto summary = cluster.tracer().state_summary();
  ASSERT_EQ(summary.size(), 4u);
  for (const auto& [rank, s] : summary) {
    EXPECT_GT(s.per_state[static_cast<int>(sim::NodeState::kCompute)], 0)
        << "rank " << rank;
    EXPECT_GT(s.per_state[static_cast<int>(sim::NodeState::kSend)], 0)
        << "rank " << rank;
  }
}

// Model cross-validation (the assertion version of `dvx_bench --figure
// ablation_fabric`):
// at light load the analytic model's base latency is within 40% of the
// cycle-accurate switch.
TEST(ModelValidation, AnalyticLatencyTracksCycleSwitchAtLightLoad) {
  dvx::dvnet::Geometry g{8, 4};
  dvx::dvnet::CycleSwitch sw(g);
  sim::Xoshiro256 rng(11);
  for (int i = 0; i < 500; ++i) {
    sw.inject(static_cast<int>(rng.below(32)), static_cast<int>(rng.below(32)));
    ASSERT_TRUE(sw.drain());
  }
  const double cyc = sw.latency_stats().mean();
  dvx::dvnet::FabricModel fm(dvx::dvnet::FabricParams{.geometry = g});
  const double analytic =
      static_cast<double>(fm.base_latency()) / static_cast<double>(fm.word_time());
  EXPECT_NEAR(analytic, cyc, 0.4 * cyc);
}

// The GUPS aggregation ablation, as a regression property: bigger source
// batches can never be slower in the model.
TEST(Ablation, SourceAggregationMonotonicallyHelpsGups) {
  apps::GupsParams base{.local_table_words = 1 << 12, .updates_per_node = 1 << 12};
  double prev = 0.0;
  for (int buf : {16, 128, 1024}) {
    auto cluster = make_cluster(8);
    auto gp = base;
    gp.buffer_limit = buf;
    const double gups = apps::run_gups_dv(cluster, gp).gups();
    EXPECT_GT(gups, prev) << "buffer " << buf;
    prev = gups;
  }
}

}  // namespace

// Cross-layer integration and property tests: distributed transpose
// identities, collective stress under sense reversal, determinism across
// the whole stack, tracer plumbing, and model cross-validation.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

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

using dvx::kernels::Complex;
using sim::Coro;

namespace {

runtime::Cluster make_cluster(int nodes, bool trace = false) {
  return runtime::Cluster(runtime::ClusterConfig{.nodes = nodes, .trace = trace});
}

std::vector<Complex> random_matrix(std::int64_t elems, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<Complex> m(static_cast<std::size_t>(elems));
  for (auto& z : m) {
    const double im = rng.uniform(-1, 1);
    const double re = rng.uniform(-1, 1);
    z = Complex(re, im);
  }
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
      std::vector<Complex> t(mine.size()), tt(mine.size());
      apps::TransposeBlocks blocks;
      co_await apps::transpose_mpi(comm, node, mine, rows, cols, t, blocks);
      co_await apps::transpose_mpi(comm, node, t, cols, rows, tt, blocks);
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
      std::vector<Complex> t(mine.size()), tt(mine.size());
      co_await apps::transpose_dv(ctx, node, mine, rows, cols, dvapi::kFirstFreeDvWord,
                                  dvapi::kFirstFreeCounter, t);
      co_await apps::transpose_dv(ctx, node, t, cols, rows, dvapi::kFirstFreeDvWord,
                                  dvapi::kFirstFreeCounter, tt);
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
  std::vector<std::vector<Complex>> mpi_out(p, std::vector<Complex>(cols / p * rows));
  auto dv_out = mpi_out;
  {
    auto cluster = make_cluster(p);
    cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 7 + static_cast<unsigned>(comm.rank()));
      apps::TransposeBlocks blocks;
      co_await apps::transpose_mpi(comm, node, mine, rows, cols,
                                   mpi_out[static_cast<std::size_t>(comm.rank())],
                                   blocks);
    });
  }
  {
    auto cluster = make_cluster(p);
    cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
      const auto mine =
          random_matrix(rows / p * cols, 7 + static_cast<unsigned>(ctx.rank()));
      co_await apps::transpose_dv(ctx, node, mine, rows, cols, dvapi::kFirstFreeDvWord,
                                  dvapi::kFirstFreeCounter,
                                  dv_out[static_cast<std::size_t>(ctx.rank())]);
    });
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(dvx::kernels::max_abs_diff(mpi_out[static_cast<std::size_t>(r)],
                                         dv_out[static_cast<std::size_t>(r)]),
              0.0);
  }
}

// Property: each backend writes out[cl*rows + gr] = in[gr][rank*cols_block + cl]
// for every element. The per-rank blocks, 13 x 7, are not multiples of the
// copy tile, and the second transpose reuses the first one's output buffer,
// so an element that either pass skips keeps a wrong value.
TEST(TransposeProperty, MatchesExplicitReferenceIntoReusedOutput) {
  constexpr int p = 3;
  constexpr std::int64_t rows = 39, cols = 21;
  constexpr std::int64_t rows_local = rows / p, cols_block = cols / p;
  const std::vector<std::vector<Complex>> inputs = {random_matrix(rows * cols, 41),
                                                    random_matrix(rows * cols, 42)};
  const auto slice = [&](const std::vector<Complex>& m, int rank) {
    const auto first = m.begin() + rank * rows_local * cols;
    return std::vector<Complex>(first, first + rows_local * cols);
  };
  // Elements of `rank`'s output that differ from the reference.
  const auto mismatches = [&](const std::vector<Complex>& m, int rank,
                              const std::vector<Complex>& out) {
    std::int64_t bad = 0;
    for (std::int64_t cl = 0; cl < cols_block; ++cl) {
      for (std::int64_t gr = 0; gr < rows; ++gr) {
        bad += out[static_cast<std::size_t>(cl * rows + gr)] !=
               m[static_cast<std::size_t>(gr * cols + rank * cols_block + cl)];
      }
    }
    return bad;
  };

  std::int64_t mpi_bad = 0;
  {
    auto cluster = make_cluster(p);
    cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
      std::vector<Complex> out(cols_block * rows);
      apps::TransposeBlocks blocks;
      for (const auto& m : inputs) {
        const auto mine = slice(m, comm.rank());
        co_await apps::transpose_mpi(comm, node, mine, rows, cols, out, blocks);
        mpi_bad += mismatches(m, comm.rank(), out);
      }
    });
  }
  std::int64_t dv_bad = 0;
  {
    auto cluster = make_cluster(p);
    cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
      std::vector<Complex> out(cols_block * rows);
      for (const auto& m : inputs) {
        const auto mine = slice(m, ctx.rank());
        co_await apps::transpose_dv(ctx, node, mine, rows, cols, dvapi::kFirstFreeDvWord,
                                    dvapi::kFirstFreeCounter, out);
        dv_bad += mismatches(m, ctx.rank(), out);
      }
    });
  }
  EXPECT_EQ(mpi_bad, 0) << "MPI transpose misplaced elements";
  EXPECT_EQ(dv_bad, 0) << "DV transpose misplaced elements";
}

// The output must hold exactly (cols/P)*rows elements and may not share the
// input's storage: both backends reject it before any word moves.
TEST(TransposeProperty, OutputOfAnotherSizeOrSharingTheInputIsRejected) {
  constexpr int p = 2;
  constexpr std::int64_t rows = 8, cols = 4;
  constexpr std::size_t in = rows / p * cols, out = cols / p * rows;
  // The input is the front of one buffer; the output is [first, first + size)
  // of the same buffer.
  struct Case {
    const char* what;
    std::size_t first, size;
  };
  const Case cases[] = {
      {"the input itself", 0, out},
      {"overlapping the input's tail", in / 2, out},
      {"one element short", in, out - 1},
      {"one element long", in, out + 1},
  };
  for (const Case& c : cases) {
    {
      auto cluster = make_cluster(p);
      EXPECT_THROW(
          cluster.run_mpi([&](dvx::mpi::Comm comm, runtime::NodeCtx& node) -> Coro<void> {
            auto buffer = random_matrix(in + out + 1, 5);
            apps::TransposeBlocks blocks;
            co_await apps::transpose_mpi(comm, node, std::span(buffer).first(in), rows, cols,
                                         std::span(buffer).subspan(c.first, c.size), blocks);
          }),
          std::invalid_argument)
          << c.what;
    }
    {
      auto cluster = make_cluster(p);
      EXPECT_THROW(
          cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> Coro<void> {
            auto buffer = random_matrix(in + out + 1, 5);
            co_await apps::transpose_dv(ctx, node, std::span(buffer).first(in), rows, cols,
                                        dvapi::kFirstFreeDvWord, dvapi::kFirstFreeCounter,
                                        std::span(buffer).subspan(c.first, c.size));
          }),
          std::invalid_argument)
          << c.what;
    }
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
  std::vector<Complex> output(std::size_t{1} << fp.log_size), scratch(output.size());
  apps::run_fft_dv(cluster, fp, apps::make_fft_input(fp.log_size), output, scratch);
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
    const auto dst = static_cast<int>(rng.below(32));
    const auto src = static_cast<int>(rng.below(32));
    sw.inject(src, dst);
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

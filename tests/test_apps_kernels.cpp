// End-to-end tests of the kernel applications (GUPS, FFT-1D, BFS) on BOTH
// network backends: numerics verified, plus DV-vs-MPI cross-checks and the
// paper's qualitative performance relations; and the inputs the runners
// take: the FFT input and the BFS graph, with the runners' checks of both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/bfs_common.hpp"
#include "apps/fft1d.hpp"
#include "apps/fft1d_common.hpp"
#include "apps/gups.hpp"
#include "kernels/csr.hpp"
#include "kernels/kronecker.hpp"
#include "runtime/cluster.hpp"
#include "sim/rng.hpp"

namespace apps = dvx::apps;
namespace kernels = dvx::kernels;
namespace runtime = dvx::runtime;

namespace {

runtime::Cluster make_cluster(int nodes) {
  return runtime::Cluster(runtime::ClusterConfig{.nodes = nodes});
}

TEST(GupsApp, DvVerifiesByXorInvolution) {
  auto cluster = make_cluster(4);
  apps::GupsParams gp{.local_table_words = 1 << 12,
                      .updates_per_node = 1 << 12,
                      .verify = true};
  const auto res = apps::run_gups_dv(cluster, gp);
  EXPECT_EQ(res.errors, 0u);
  EXPECT_GT(res.gups(), 0.0);
  EXPECT_GT(res.seconds, 0.0);
}

TEST(GupsApp, MpiVerifiesByXorInvolution) {
  auto cluster = make_cluster(4);
  apps::GupsParams gp{.local_table_words = 1 << 12,
                      .updates_per_node = 1 << 12,
                      .verify = true};
  const auto res = apps::run_gups_mpi(cluster, gp);
  EXPECT_EQ(res.errors, 0u);
  EXPECT_GT(res.gups(), 0.0);
}

TEST(GupsApp, DataVortexBeatsMpiAndGapWidens) {
  // Fig. 6: DV GUPS above MPI, and the advantage grows with node count.
  apps::GupsParams gp{.local_table_words = 1 << 12, .updates_per_node = 1 << 13};
  auto c4 = make_cluster(4);
  auto c16 = make_cluster(16);
  const double dv4 = apps::run_gups_dv(c4, gp).gups();
  const double ib4 = apps::run_gups_mpi(c4, gp).gups();
  const double dv16 = apps::run_gups_dv(c16, gp).gups();
  const double ib16 = apps::run_gups_mpi(c16, gp).gups();
  EXPECT_GT(dv4, ib4);
  EXPECT_GT(dv16, ib16);
  EXPECT_GT(dv16 / ib16, dv4 / ib4) << "performance gap should widen with nodes";
}

TEST(GupsApp, RejectsNonPowerOfTwoNodes) {
  auto cluster = make_cluster(3);
  EXPECT_THROW(apps::run_gups_dv(cluster, {}), std::invalid_argument);
  EXPECT_THROW(apps::run_gups_mpi(cluster, {}), std::invalid_argument);
}

class FftAppBackends : public ::testing::TestWithParam<int> {};

TEST_P(FftAppBackends, DistributedMatchesSerialSixStep) {
  const int nodes = GetParam();
  apps::FftParams fp{.log_size = 12, .verify = true};
  const auto input = apps::make_fft_input(fp.log_size);
  const auto serial = kernels::six_step_fft(input, 64, 64);
  // The distributed six-step does the serial one's arithmetic in the same
  // order, so the two agree bit for bit. The output and scratch start as
  // NaN or as zeros: a run writes every element before reading it, so what
  // they held before, as a pooled buffer holds an earlier point's, cannot
  // move a bit.
  struct Backend {
    const char* name;
    bool dv;
    runtime::MpiFabric fabric;
  };
  const Backend backends[] = {{"dv", true, runtime::MpiFabric::kIb},
                              {"mpi-ib", false, runtime::MpiFabric::kIb},
                              {"mpi-torus", false, runtime::MpiFabric::kTorus}};
  for (const double fill : {std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    for (const Backend& b : backends) {
      runtime::Cluster cluster(runtime::ClusterConfig{.nodes = nodes, .mpi_fabric = b.fabric});
      std::vector<kernels::Complex> output(input.size(), kernels::Complex(fill, fill));
      std::vector<kernels::Complex> scratch(output);
      const auto res = b.dv ? apps::run_fft_dv(cluster, fp, input, output, scratch)
                            : apps::run_fft_mpi(cluster, fp, input, output, scratch);
      EXPECT_EQ(res.max_error, 0.0) << b.name << ", fill " << fill;
      EXPECT_GT(res.gflops(), 0.0) << b.name << ", fill " << fill;
      EXPECT_EQ(std::memcmp(output.data(), serial.data(), serial.size() * sizeof(serial[0])),
                0)
          << b.name << ", fill " << fill;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, FftAppBackends, ::testing::Values(1, 2, 4, 8, 16, 32),
                         ::testing::PrintToStringParamName());

// The FFT input names its two draws, so their order does not rest on the
// unspecified order of argument evaluation: on every compiler the first
// draw is the imaginary part, as GCC has always evaluated it.
TEST(FftApp, InputPointDrawsTheImaginaryPartFirst) {
  for (const std::uint64_t i : {0ULL, 1ULL, 12345ULL, (1ULL << 20) - 1}) {
    dvx::sim::Xoshiro256 rng(dvx::sim::mix64(i + 0x5eed));
    const double first = rng.uniform(-1, 1);
    const double second = rng.uniform(-1, 1);
    EXPECT_EQ(apps::fft_detail::input_point(i), kernels::Complex(second, first))
        << "point " << i;
  }
}

TEST(FftApp, InputHoldsInputPointAtEveryIndex) {
  for (const int log_size : {0, 1, 7, 14}) {
    const auto input = apps::make_fft_input(log_size);
    ASSERT_EQ(input.size(), std::size_t{1} << log_size);
    for (std::size_t i = 0; i < input.size(); ++i) {
      ASSERT_EQ(input[i], apps::fft_detail::input_point(i)) << "point " << i;
    }
  }
  EXPECT_THROW(apps::make_fft_input(-1), std::invalid_argument);
  EXPECT_THROW(apps::make_fft_input(63), std::invalid_argument);
}

TEST(FftApp, RunnersRejectAnInputOfAnotherSize) {
  using kernels::Complex;
  auto cluster = make_cluster(2);
  const apps::FftParams fp{.log_size = 10};
  constexpr std::size_t kN = 1024;
  const auto input = apps::make_fft_input(10);
  const auto shorter = apps::make_fft_input(9);
  const auto longer = apps::make_fft_input(11);
  std::vector<Complex> output(kN), scratch(kN), small(kN - 1), large(kN + 1);
  // One buffer that the overlapping cases carve up: [0, 2N) is the input,
  // N/2 into it a span that overlaps it, and [2N, 3N) a span of its own.
  std::vector<Complex> shared(3 * kN);
  const std::span<Complex> all(shared);
  const std::span<const Complex> shared_input = all.first(kN);
  struct Case {
    const char* what;
    std::span<const Complex> input;
    std::span<Complex> output, scratch;
  };
  const Case cases[] = {
      {"a shorter input", shorter, output, scratch},
      {"a longer input", longer, output, scratch},
      {"a shorter output", input, small, scratch},
      {"a longer output", input, large, scratch},
      {"a shorter scratch", input, output, small},
      {"a longer scratch", input, output, large},
      {"the output as scratch", input, output, output},
      {"an output that overlaps the scratch", input, all.subspan(kN, kN),
       all.subspan(kN + kN / 2, kN)},
      {"an output that overlaps the input", shared_input, all.subspan(kN / 2, kN),
       all.subspan(2 * kN, kN)},
      {"a scratch that overlaps the input", shared_input, all.subspan(2 * kN, kN),
       all.subspan(kN / 2, kN)},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(apps::run_fft_dv(cluster, fp, c.input, c.output, c.scratch),
                 std::invalid_argument)
        << c.what;
    EXPECT_THROW(apps::run_fft_mpi(cluster, fp, c.input, c.output, c.scratch),
                 std::invalid_argument)
        << c.what;
  }
}

TEST(FftApp, DataVortexWinsAtScale) {
  // Fig. 7: DV aggregate GFLOPS above MPI at larger node counts.
  apps::FftParams fp{.log_size = 16};
  const auto input = apps::make_fft_input(fp.log_size);
  auto c16 = make_cluster(16);
  std::vector<kernels::Complex> output(input.size()), scratch(input.size());
  const auto dv = apps::run_fft_dv(c16, fp, input, output, scratch);
  const auto mpi = apps::run_fft_mpi(c16, fp, input, output, scratch);
  EXPECT_GT(dv.gflops(), mpi.gflops());
}

TEST(BfsApp, BothBackendsProduceValidTrees) {
  apps::BfsParams bp{.scale = 10, .edge_factor = 8, .searches = 2, .validate = true};
  auto cluster = make_cluster(4);
  const apps::BfsGraph graph = apps::build_bfs_graph(bp, 4);
  const auto dv = apps::run_bfs_dv(cluster, bp, graph);
  EXPECT_TRUE(dv.validated) << dv.validation_error;
  EXPECT_GT(dv.harmonic_mean_teps, 0.0);
  const auto mpi = apps::run_bfs_mpi(cluster, bp, graph);
  EXPECT_TRUE(mpi.validated) << mpi.validation_error;
  EXPECT_GT(mpi.harmonic_mean_teps, 0.0);
}

TEST(BfsApp, SingleNodeStillWorks) {
  apps::BfsParams bp{.scale = 9, .edge_factor = 8, .searches = 1, .validate = true};
  auto cluster = make_cluster(1);
  const auto dv = apps::run_bfs_dv(cluster, bp, apps::build_bfs_graph(bp, 1));
  EXPECT_TRUE(dv.validated) << dv.validation_error;
}

TEST(BfsApp, DataVortexBeatsMpiAtScale) {
  // Fig. 8: DV TEPS consistently above MPI.
  apps::BfsParams bp{.scale = 12, .edge_factor = 8, .searches = 2};
  auto c8 = make_cluster(8);
  const apps::BfsGraph graph = apps::build_bfs_graph(bp, 8);
  const auto dv = apps::run_bfs_dv(c8, bp, graph);
  const auto mpi = apps::run_bfs_mpi(c8, bp, graph);
  EXPECT_GT(dv.harmonic_mean_teps, mpi.harmonic_mean_teps);
}

TEST(BfsApp, RunnersRejectAGraphBuiltForAnotherRankCount) {
  const apps::BfsParams bp{.scale = 9, .edge_factor = 8, .searches = 1};
  const apps::BfsGraph two = apps::build_bfs_graph(bp, 2);
  auto c4 = make_cluster(4);
  EXPECT_THROW(apps::run_bfs_dv(c4, bp, two), std::invalid_argument);
  EXPECT_THROW(apps::run_bfs_mpi(c4, bp, two), std::invalid_argument);
}

TEST(BfsApp, RunnersRejectAGraphBuiltFromAnotherSeed) {
  const apps::BfsParams bp{.scale = 9, .edge_factor = 8, .searches = 1, .seed = 2};
  apps::BfsParams other = bp;
  other.seed = 3;
  const apps::BfsGraph graph = apps::build_bfs_graph(other, 4);
  auto c4 = make_cluster(4);
  EXPECT_THROW(apps::run_bfs_dv(c4, bp, graph), std::invalid_argument);
  EXPECT_THROW(apps::run_bfs_mpi(c4, bp, graph), std::invalid_argument);
}

TEST(BfsApp, DataVortexValidatesAt64Nodes) {
  // 64 nodes is the largest count whose two collective regions stay apart.
  const apps::BfsParams bp{
      .scale = 10, .edge_factor = 8, .searches = 1, .validate = true};
  auto c64 = make_cluster(64);
  const auto dv = apps::run_bfs_dv(c64, bp, apps::build_bfs_graph(bp, 64));
  EXPECT_TRUE(dv.validated) << dv.validation_error;
}

TEST(BfsApp, DataVortexRefusesMoreThan64Nodes) {
  // BFS calls the DV word collectives once per level, so above 64 nodes its
  // second call would alias the first one's region; it is refused instead
  // of tripping the candidate conservation check.
  const apps::BfsParams bp{.scale = 10, .edge_factor = 8, .searches = 1};
  auto c128 = make_cluster(128);
  EXPECT_THROW(apps::run_bfs_dv(c128, bp, apps::build_bfs_graph(bp, 128)),
               std::invalid_argument);
}

TEST(GupsApp, DataVortexStillRunsAt128Nodes) {
  // GUPS makes one word collective per run, which fits above 64 nodes.
  auto c128 = make_cluster(128);
  const auto res = apps::run_gups_dv(
      c128, {.local_table_words = 1 << 8, .updates_per_node = 1 << 8, .verify = true});
  EXPECT_EQ(res.errors, 0u);
  EXPECT_GT(res.gups(), 0.0);
}

TEST(BfsDistribution, MatchesCsrAtEveryRankCount) {
  // Each rank's adjacency must hold every vertex's neighbours in the order
  // a whole-graph CSR built from the same edge list gives them.
  const kernels::KroneckerParams kp{.scale = 15, .edge_factor = 16, .seed = 2};
  const kernels::KroneckerGenerator gen(kp);
  const kernels::Csr full(gen.vertices(), gen.slice(0, gen.edges()));
  for (const int ranks : {1, 2, 8, 32}) {
    const auto graphs = apps::bfs_detail::build_distribution(kp, ranks);
    ASSERT_EQ(graphs.size(), static_cast<std::size_t>(ranks));
    const std::uint64_t vpr = gen.vertices() / static_cast<std::uint64_t>(ranks);
    for (std::uint64_t v = 0; v < gen.vertices(); ++v) {
      const auto& g = graphs[v / vpr];
      ASSERT_EQ(g.first_vertex, v - v % vpr);
      const auto local = g.neighbors(v % vpr);
      const auto reference = full.neighbors(v);
      ASSERT_TRUE(std::equal(local.begin(), local.end(), reference.begin(),
                             reference.end()))
          << "vertex " << v << " at " << ranks << " ranks";
    }
  }
}

TEST(BfsRoots, GivesUpWhenTooFewDistinctRoots) {
  // A 4-vertex, 4-edge graph has at most 4 distinct non-loop sources, and
  // the probe sequence visits every edge index. Asking for exactly as many
  // roots as there are sources succeeds; asking for one more must throw
  // rather than probe forever.
  const kernels::KroneckerGenerator gen({.scale = 2, .edge_factor = 1});
  std::set<std::uint64_t> sources;
  for (const kernels::Edge& e : gen.slice(0, gen.edges())) {
    if (e.u != e.v) sources.insert(e.u);
  }
  const int distinct = static_cast<int>(sources.size());
  const auto roots = apps::bfs_detail::pick_roots(gen, distinct);
  EXPECT_EQ(std::set<std::uint64_t>(roots.begin(), roots.end()), sources);
  EXPECT_THROW(apps::bfs_detail::pick_roots(gen, distinct + 1), std::runtime_error);
}

}  // namespace

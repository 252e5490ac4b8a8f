// Tests for the computational kernels: FFT, Kronecker generator, CSR/BFS,
// GUPS table, and stencil helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <set>

#include "kernels/csr.hpp"
#include "kernels/fft.hpp"
#include "kernels/gups_table.hpp"
#include "kernels/kronecker.hpp"
#include "kernels/stencil.hpp"
#include "sim/rng.hpp"

namespace kernels = dvx::kernels;
namespace sim = dvx::sim;
using kernels::Complex;

namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) {
    const double im = rng.uniform(-1, 1);
    const double re = rng.uniform(-1, 1);
    x = Complex(re, im);
  }
  return v;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = 1u << GetParam();
  auto sig = random_signal(n, 7);
  auto expect = kernels::naive_dft(sig);
  kernels::fft(sig);
  EXPECT_LT(kernels::max_abs_diff(sig, expect), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, ForwardInverseRoundTrips) {
  const std::size_t n = 1u << GetParam();
  const auto orig = random_signal(n, 11);
  auto sig = orig;
  kernels::fft(sig);
  kernels::fft(sig, /*inverse=*/true);
  EXPECT_LT(kernels::max_abs_diff(sig, orig), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes, ::testing::Values(0, 1, 2, 4, 6, 8, 10),
                         ::testing::PrintToStringParamName());

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> v(6);
  EXPECT_THROW(kernels::fft(v), std::invalid_argument);
}

TEST(Fft, SixStepEqualsDirectFft) {
  for (auto [n1, n2] : {std::pair{4, 8}, std::pair{8, 8}, std::pair{16, 4}}) {
    const auto orig = random_signal(static_cast<std::size_t>(n1 * n2), 23);
    auto direct = orig;
    kernels::fft(direct);
    const auto six = kernels::six_step_fft(orig, n1, n2);
    EXPECT_LT(kernels::max_abs_diff(six, direct), 1e-9 * n1 * n2)
        << "n1=" << n1 << " n2=" << n2;
  }
}

TEST(Fft, SixStepInverseRoundTrips) {
  const int n1 = 8, n2 = 16;
  const auto orig = random_signal(static_cast<std::size_t>(n1 * n2), 31);
  const auto f = kernels::six_step_fft(orig, n1, n2);
  const auto b = kernels::six_step_fft(f, n1, n2, /*inverse=*/true);
  EXPECT_LT(kernels::max_abs_diff(b, orig), 1e-10 * n1 * n2);
}

TEST(Fft, TransposeRoundTrips) {
  const auto m = random_signal(12, 3);
  const auto t = kernels::transpose(m, 3, 4);
  const auto tt = kernels::transpose(t, 4, 3);
  EXPECT_LT(kernels::max_abs_diff(tt, m), 0.0 + 1e-300);
  EXPECT_THROW(kernels::transpose(m, 5, 4), std::invalid_argument);
}

TEST(Fft, FlopConventionIs5NLogN) {
  EXPECT_DOUBLE_EQ(kernels::fft_flops(1 << 10), 5.0 * 1024 * 10);
  EXPECT_DOUBLE_EQ(kernels::fft_flops(1), 0.0);
}

// x_j = W_n^{-k0*j} (exponent reduced mod n) transforms to n at bin k0 and
// 0 elsewhere, exactly, so the error of a full-size transform is measurable.
std::vector<Complex> pure_tone(std::int64_t n, std::int64_t k0) {
  std::vector<Complex> x(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    x[static_cast<std::size_t>(j)] = kernels::twiddle(k0, j, n, /*inverse=*/true);
  }
  return x;
}

std::vector<Complex> spike(std::int64_t n, std::int64_t k0, double height) {
  std::vector<Complex> x(static_cast<std::size_t>(n));
  x[static_cast<std::size_t>(k0)] = height;
  return x;
}

TEST(Fft, PureToneIsExactToRoundingAtFullSize) {
  for (const int log_n : {16, 20}) {
    const std::int64_t n = std::int64_t{1} << log_n;
    const double bound = 1e-14 * static_cast<double>(n);
    const std::int64_t k0 = 0x2f1b7 % n;
    const auto tone = pure_tone(n, k0);
    auto x = tone;
    kernels::fft(x);
    EXPECT_LT(kernels::max_abs_diff(x, spike(n, k0, static_cast<double>(n))), bound)
        << "forward n=2^" << log_n;
    // The inverse divides by n; scale its error back to the forward's.
    auto back = spike(n, k0, static_cast<double>(n));
    kernels::fft(back, /*inverse=*/true);
    EXPECT_LT(static_cast<double>(n) * kernels::max_abs_diff(back, tone), bound)
        << "inverse n=2^" << log_n;
  }
  const std::int64_t n = std::int64_t{1} << 20;
  const std::int64_t k0 = 0x2f1b7 % n;
  const auto six = kernels::six_step_fft(pure_tone(n, k0), 1024, 1024);
  EXPECT_LT(kernels::max_abs_diff(six, spike(n, k0, static_cast<double>(n))),
            1e-14 * static_cast<double>(n));
}

TEST(Fft, BatchRowsAreBitIdenticalToSingleRows) {
  constexpr std::int64_t kLen = 1024;
  constexpr std::int64_t kRows = 8;
  for (const bool inverse : {false, true}) {
    const auto orig = random_signal(static_cast<std::size_t>(kLen * kRows), 41);
    auto batch = orig;
    kernels::fft_rows(batch, kLen, inverse);
    auto single = orig;
    for (std::int64_t r = 0; r < kRows; ++r) {
      kernels::fft(std::span<Complex>(single).subspan(static_cast<std::size_t>(r * kLen),
                                                      static_cast<std::size_t>(kLen)),
                   inverse);
    }
    EXPECT_EQ(std::memcmp(batch.data(), single.data(), batch.size() * sizeof(Complex)), 0)
        << "inverse=" << inverse;
  }
  std::vector<Complex> ragged(12);
  EXPECT_THROW(kernels::fft_rows(ragged, 8), std::invalid_argument);
}

/// The stage-by-stage radix-2 loop fft_rows ran before it fused stage
/// pairs: the reference its output must equal bit for bit.
void reference_fft_rows(std::span<Complex> data, std::int64_t n, bool inverse) {
  const auto len = static_cast<std::size_t>(n);
  std::vector<Complex> w(len / 2);
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double ang = (inverse ? 1.0 : -1.0) * 2.0 * std::numbers::pi *
                       static_cast<double>(k) / static_cast<double>(n);
    w[k] = Complex(std::cos(ang), std::sin(ang));
  }
  std::vector<std::size_t> rev(len, 0);
  const int bits = std::countr_zero(len);
  for (std::size_t i = 1; i < len; ++i) {
    rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1));
  }
  const auto mul = [](Complex a, Complex b) {
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
  };
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t row = 0; row < data.size(); row += len) {
    Complex* x = data.data() + row;
    for (std::size_t i = 1; i < len; ++i) {
      if (i < rev[i]) std::swap(x[i], x[rev[i]]);
    }
    for (std::size_t half = 1, stride = len / 2; half < len; half <<= 1, stride >>= 1) {
      for (std::size_t i = 0; i < len; i += 2 * half) {
        for (std::size_t k = 0; k < half; ++k) {
          const Complex u = x[i + k];
          const Complex v = mul(x[i + k + half], w[k * stride]);
          x[i + k] = u + v;
          x[i + k + half] = u - v;
        }
      }
    }
    if (inverse) {
      for (std::size_t i = 0; i < len; ++i) x[i] *= inv;
    }
  }
}

TEST(Fft, RowsAreBitIdenticalToTheStageByStageLoop) {
  constexpr std::int64_t kRows = 3;
  for (int log_len = 0; log_len <= 12; ++log_len) {
    const std::int64_t len = std::int64_t{1} << log_len;
    // Row 0 is random, row 1 all zeros of both signs, row 2 random with
    // every third part an exact or signed zero.
    auto orig = random_signal(static_cast<std::size_t>(len * kRows), 53 + log_len);
    for (std::int64_t i = 0; i < len; ++i) {
      const double sign = i % 2 == 0 ? 1.0 : -1.0;
      orig[static_cast<std::size_t>(len + i)] = Complex(sign * 0.0, -sign * 0.0);
      auto& z = orig[static_cast<std::size_t>(2 * len + i)];
      if (i % 3 == 0) z = Complex(z.real(), sign * 0.0);
      if (i % 3 == 1) z = Complex(-sign * 0.0, z.imag());
    }
    for (const bool inverse : {false, true}) {
      auto got = orig;
      kernels::fft_rows(got, len, inverse);
      auto want = orig;
      reference_fft_rows(want, len, inverse);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Complex)), 0)
          << "len=" << len << " inverse=" << inverse;
    }
  }
}

TEST(Fft, TableTwiddlesMatchTheReference) {
  for (const int log_n : {8, 13, 20}) {
    const std::int64_t n = std::int64_t{1} << log_n;
    const std::int64_t n1 = std::int64_t{1} << ((log_n + 1) / 2);  // row length
    const std::int64_t n2 = n / n1;                                 // rows
    const std::int64_t rows = std::min<std::int64_t>(n2, 64);
    for (const std::int64_t first_row : {std::int64_t{0}, n2 / 2}) {
      for (const bool inverse : {false, true}) {
        std::vector<Complex> got(static_cast<std::size_t>(rows * n1), Complex(1.0, 0.0));
        kernels::twiddle_rows(got, first_row, n1, n, inverse);
        double err = 0.0;
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < n1; ++c) {
            err = std::max(err, std::abs(got[static_cast<std::size_t>(r * n1 + c)] -
                                         kernels::twiddle(first_row + r, c, n, inverse)));
          }
        }
        EXPECT_LT(err, 2e-15) << "n=2^" << log_n << " first_row=" << first_row
                              << " inverse=" << inverse;
      }
    }
  }
  std::vector<Complex> v(12);
  EXPECT_THROW(kernels::twiddle_rows(v, 0, 4, 12), std::invalid_argument);
}

TEST(Kronecker, DeterministicAndInRange) {
  kernels::KroneckerGenerator gen({.scale = 10, .edge_factor = 8, .seed = 5});
  kernels::KroneckerGenerator gen2({.scale = 10, .edge_factor = 8, .seed = 5});
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto e = gen.edge(i);
    const auto e2 = gen2.edge(i);
    EXPECT_EQ(e.u, e2.u);
    EXPECT_EQ(e.v, e2.v);
    EXPECT_LT(e.u, gen.vertices());
    EXPECT_LT(e.v, gen.vertices());
  }
}

TEST(Kronecker, SliceMatchesPointwiseGeneration) {
  kernels::KroneckerGenerator gen({.scale = 8, .edge_factor = 4});
  const auto s = gen.slice(100, 200);
  ASSERT_EQ(s.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s[i].u, gen.edge(100 + i).u);
    EXPECT_EQ(s[i].v, gen.edge(100 + i).v);
  }
  EXPECT_THROW(gen.slice(10, 5), std::out_of_range);
}

TEST(Kronecker, DegreeDistributionIsSkewed) {
  // R-MAT graphs follow a power law: the max degree should far exceed the
  // mean, and a large fraction of vertices should see few or no edges.
  kernels::KroneckerParams p{.scale = 12, .edge_factor = 16};
  kernels::KroneckerGenerator gen(p);
  std::vector<std::uint64_t> degree(gen.vertices(), 0);
  for (std::uint64_t i = 0; i < gen.edges(); ++i) {
    const auto e = gen.edge(i);
    ++degree[e.u];
    ++degree[e.v];
  }
  const double mean = 2.0 * static_cast<double>(gen.edges()) /
                      static_cast<double>(gen.vertices());
  const auto max_deg = *std::max_element(degree.begin(), degree.end());
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * mean);
  const auto isolated = static_cast<double>(std::count(degree.begin(), degree.end(), 0ull));
  EXPECT_GT(isolated / static_cast<double>(gen.vertices()), 0.05);
}

TEST(Kronecker, RejectsBadParams) {
  EXPECT_THROW(kernels::KroneckerGenerator({.scale = 0}), std::invalid_argument);
  EXPECT_THROW(kernels::KroneckerGenerator({.scale = 8, .edge_factor = 0}),
               std::invalid_argument);
  EXPECT_THROW(kernels::KroneckerGenerator({.scale = 8, .a = 0.6, .b = 0.3, .c = 0.2}),
               std::invalid_argument);
}

/// FNV-1a over the full edge list, each endpoint as 8 little-endian bytes.
std::uint64_t edge_list_digest(const kernels::KroneckerGenerator& gen) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t w) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const kernels::Edge& e : gen.slice(0, gen.edges())) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

// The generator is a pure function of its parameters, and the BFS figures
// depend on every edge, so these digests must never move.
TEST(Kronecker, EdgeListDigestIsPinned) {
  EXPECT_EQ(edge_list_digest(kernels::KroneckerGenerator(
                {.scale = 15, .edge_factor = 16, .seed = 2})),
            0xaad7c73f001329dfULL);
  EXPECT_EQ(edge_list_digest(kernels::KroneckerGenerator(
                {.scale = 13, .edge_factor = 16, .seed = 5})),
            0x664e60886f8e38dbULL);
  EXPECT_EQ(edge_list_digest(kernels::KroneckerGenerator(
                {.scale = 12, .edge_factor = 8, .seed = 3, .a = 0.45, .b = 0.25, .c = 0.15})),
            0x5a4e4d7760216f2cULL);
}

TEST(Csr, BuildsUndirectedAndDropsSelfLoops) {
  const std::vector<kernels::Edge> edges = {{0, 1}, {1, 2}, {2, 2}, {0, 1}};
  kernels::Csr g(4, edges);
  EXPECT_EQ(g.vertices(), 4u);
  EXPECT_EQ(g.edges_stored(), 6u);  // 3 kept edges, both directions
  EXPECT_EQ(g.degree(0), 2u);       // duplicate edge kept
  EXPECT_EQ(g.degree(2), 1u);       // self-loop dropped
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Csr, SerialBfsFindsShortestLevels) {
  // Path 0-1-2-3 plus shortcut 0-3: parent tree must use level-1 shortcut.
  const std::vector<kernels::Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  kernels::Csr g(5, edges);
  const auto parent = kernels::bfs_serial(g, 0);
  EXPECT_EQ(parent[0], 0u);
  EXPECT_EQ(parent[3], 0u);  // direct edge wins over the long path
  EXPECT_EQ(parent[4], kernels::kNoParent);
  EXPECT_TRUE(kernels::validate_bfs(g, 0, parent).empty());
  EXPECT_DOUBLE_EQ(kernels::traversed_edges(g, parent), 4.0);
}

TEST(Csr, ValidationCatchesCorruptTrees) {
  const std::vector<kernels::Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  kernels::Csr g(4, edges);
  auto parent = kernels::bfs_serial(g, 0);
  auto bad = parent;
  bad[3] = 1;  // claims tree edge (3,1) which does not exist
  EXPECT_FALSE(kernels::validate_bfs(g, 0, bad).empty());
  bad = parent;
  bad[2] = kernels::kNoParent;  // reachability mismatch
  EXPECT_FALSE(kernels::validate_bfs(g, 0, bad).empty());
  bad = parent;
  bad[0] = 1;  // root must be its own parent
  EXPECT_FALSE(kernels::validate_bfs(g, 0, bad).empty());
}

TEST(Csr, ValidatesBfsOnKroneckerGraph) {
  kernels::KroneckerGenerator gen({.scale = 10, .edge_factor = 8});
  const auto edges = gen.slice(0, gen.edges());
  kernels::Csr g(gen.vertices(), edges);
  const auto parent = kernels::bfs_serial(g, gen.edge(0).u);
  EXPECT_TRUE(kernels::validate_bfs(g, gen.edge(0).u, parent).empty());
  EXPECT_GT(kernels::traversed_edges(g, parent), 0.0);
}

TEST(Gups, LfsrStreamIsNonDegenerate) {
  std::uint64_t a = kernels::gups_start(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    a = kernels::gups_next(a);
    seen.insert(a);
  }
  EXPECT_GT(seen.size(), 9990u);  // essentially no repeats in a short window
}

TEST(Gups, XorUpdatesAreAnInvolution) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kLocal = 1024;
  std::vector<kernels::GupsTable> tables;
  for (int r = 0; r < kRanks; ++r) {
    tables.emplace_back(kLocal);
    tables.back().init(static_cast<std::uint64_t>(r) * kLocal);
  }
  auto run_stream = [&] {
    for (int r = 0; r < kRanks; ++r) {
      std::uint64_t a = kernels::gups_start(static_cast<std::uint64_t>(r));
      for (int i = 0; i < 5000; ++i) {
        a = kernels::gups_next(a);
        const auto t = kernels::gups_target(a, kRanks, kLocal);
        tables[static_cast<std::size_t>(t.owner)].apply(t.offset, a);
      }
    }
  };
  run_stream();
  std::uint64_t mid_errors = 0;
  for (int r = 0; r < kRanks; ++r) {
    mid_errors += tables[static_cast<std::size_t>(r)].errors(
        static_cast<std::uint64_t>(r) * kLocal);
  }
  EXPECT_GT(mid_errors, 0u) << "updates must actually change the table";
  run_stream();  // XOR twice restores everything
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(tables[static_cast<std::size_t>(r)].errors(
                  static_cast<std::uint64_t>(r) * kLocal),
              0u);
  }
}

TEST(Gups, TargetsCoverAllRanks) {
  std::set<int> owners;
  std::uint64_t a = kernels::gups_start(0);
  for (int i = 0; i < 1000; ++i) {
    a = kernels::gups_next(a);
    const auto t = kernels::gups_target(a, 8, 4096);
    EXPECT_GE(t.owner, 0);
    EXPECT_LT(t.owner, 8);
    EXPECT_LT(t.offset, 4096u);
    owners.insert(t.owner);
  }
  EXPECT_EQ(owners.size(), 8u);
}

TEST(Gups, TableRejectsBadSize) {
  EXPECT_THROW(kernels::GupsTable(0), std::invalid_argument);
  EXPECT_THROW(kernels::GupsTable(100), std::invalid_argument);
}

TEST(Stencil, ProcessGridIsExactFactorization) {
  for (int n : {1, 2, 3, 4, 8, 12, 16, 32}) {
    const auto g = kernels::process_grid_3d(n);
    EXPECT_EQ(g[0] * g[1] * g[2], n);
  }
  const auto g8 = kernels::process_grid_3d(8);
  EXPECT_EQ(g8[0] * g8[1] * g8[2], 8);
  EXPECT_LE(std::max({g8[0], g8[1], g8[2]}), 2);  // 2x2x2, near-cubic
}

TEST(Stencil, BlockRangeTilesExactly) {
  for (int parts : {1, 3, 7}) {
    std::int64_t covered = 0;
    std::int64_t prev_end = 0;
    for (int p = 0; p < parts; ++p) {
      const auto [b, e] = kernels::block_range(100, parts, p);
      EXPECT_EQ(b, prev_end);
      covered += e - b;
      prev_end = e;
    }
    EXPECT_EQ(covered, 100);
  }
}

TEST(Stencil, PackUnpackRoundTripsEachFace) {
  kernels::HaloGrid3 g(3, 4, 5);
  for (int k = 1; k <= 5; ++k) {
    for (int j = 1; j <= 4; ++j) {
      for (int i = 1; i <= 3; ++i) g.at(i, j, k) = i * 100 + j * 10 + k;
    }
  }
  for (int face = 0; face < 6; ++face) {
    const auto packed = g.pack_face(face);
    EXPECT_EQ(static_cast<std::int64_t>(packed.size()), g.face_cells(face));
    kernels::HaloGrid3 h(3, 4, 5);
    h.unpack_halo(face, packed);
    // Spot-check one halo value against the source boundary layer.
    if (face == 1) {
      EXPECT_EQ(h.at(4, 2, 3), g.at(3, 2, 3));
    }
    if (face == 4) {
      EXPECT_EQ(h.at(2, 2, 0), g.at(2, 2, 1));
    }
  }
}

TEST(Stencil, HeatStepConservesEnergyWithReflectingBoundaries) {
  kernels::HaloGrid3 a(6, 6, 6), b(6, 6, 6);
  sim::Xoshiro256 rng(5);
  double total0 = 0.0;
  for (int k = 1; k <= 6; ++k) {
    for (int j = 1; j <= 6; ++j) {
      for (int i = 1; i <= 6; ++i) {
        a.at(i, j, k) = rng.uniform(0, 10);
        total0 += a.at(i, j, k);
      }
    }
  }
  for (int step = 0; step < 20; ++step) {
    for (int f = 0; f < 6; ++f) a.reflect_boundary(f);
    kernels::heat_step(a, b, 1.0 / 6.0);
    std::swap(a, b);
  }
  double total1 = 0.0;
  double spread = 0.0;
  const double mean = total0 / 216.0;
  for (int k = 1; k <= 6; ++k) {
    for (int j = 1; j <= 6; ++j) {
      for (int i = 1; i <= 6; ++i) {
        total1 += a.at(i, j, k);
        spread = std::max(spread, std::abs(a.at(i, j, k) - mean));
      }
    }
  }
  EXPECT_NEAR(total1, total0, 1e-9 * total0);  // insulated box conserves heat
  EXPECT_LT(spread, 2.0);                      // and diffuses towards the mean
}

TEST(Stencil, HeatStepMatchesManualStencil) {
  kernels::HaloGrid3 a(3, 3, 3), b(3, 3, 3);
  a.at(2, 2, 2) = 6.0;
  const double delta = kernels::heat_step(a, b, 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(b.at(2, 2, 2), 0.0);  // 6 + (0*6 - 36)/6
  EXPECT_DOUBLE_EQ(b.at(1, 2, 2), 1.0);  // gains one unit from the center
  EXPECT_DOUBLE_EQ(delta, 6.0);
}

}  // namespace

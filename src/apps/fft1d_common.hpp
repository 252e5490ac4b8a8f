#pragma once
// Shared pieces of the two FFT-1D implementations: deterministic input
// generation, the node-local FFT/twiddle stages with compute charging, and
// verification against the serial six-step transform.

#include <bit>
#include <stdexcept>
#include <vector>

#include "apps/fft1d.hpp"
#include "kernels/fft.hpp"
#include "runtime/node.hpp"
#include "sim/rng.hpp"

namespace dvx::apps::fft_detail {

using kernels::Complex;

struct Shape {
  std::int64_t n1, n2, rows_local;  // input matrix n1 x n2, rows per rank
};

inline Shape shape_for(int log_size, int ranks) {
  const std::int64_t n1 = std::int64_t{1} << ((log_size + 1) / 2);
  const std::int64_t n2 = std::int64_t{1} << (log_size / 2);
  if (n1 % ranks != 0 || n2 % ranks != 0) {
    throw std::invalid_argument("fft1d: rank count must divide both matrix extents");
  }
  return Shape{n1, n2, n1 / ranks};
}

/// Deterministic random point for global index i (same on every rank). The
/// draws are named because the order in which function arguments are
/// evaluated is unspecified: the first draw is the imaginary part.
inline Complex input_point(std::uint64_t i) {
  sim::Xoshiro256 rng(sim::mix64(i + 0x5eedULL));
  const double im = rng.uniform(-1, 1);
  const double re = rng.uniform(-1, 1);
  return Complex(re, im);
}

/// This rank's slice of the input: rows_local rows of length n2. Every
/// point seeds its own generator from its global index, so the input is the
/// same at every rank count.
inline std::vector<Complex> make_local_input(int rank, const Shape& s) {
  const auto count = static_cast<std::uint64_t>(s.rows_local * s.n2);
  const std::uint64_t base = static_cast<std::uint64_t>(rank) * count;
  std::vector<Complex> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(input_point(base + i));
  return out;
}

/// Runs (and charges) one local FFT per row of length row_len.
inline sim::Coro<void> fft_rows(runtime::NodeCtx& node, std::vector<Complex>& data,
                                std::int64_t row_len) {
  const std::int64_t rows = static_cast<std::int64_t>(data.size()) / row_len;
  kernels::fft_rows(data, row_len);
  co_await node.compute_flops(static_cast<double>(rows) * kernels::fft_flops(row_len));
}

/// Twiddle stage: element (global row gr, col c) scaled by W_N^{gr*c}.
inline sim::Coro<void> twiddle_rows(runtime::NodeCtx& node, std::vector<Complex>& data,
                                    std::int64_t first_row, std::int64_t row_len,
                                    std::int64_t n) {
  kernels::twiddle_rows(data, first_row, row_len, n);
  co_await node.compute_flops(8.0 * static_cast<double>(data.size()));
}

/// Max |distributed - serial| over the full output.
inline double verify_against_serial(const Shape& s, int ranks,
                                    const std::vector<std::vector<Complex>>& outputs) {
  const std::int64_t n = s.n1 * s.n2;
  std::vector<Complex> input(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    input[static_cast<std::size_t>(i)] = input_point(static_cast<std::uint64_t>(i));
  }
  const auto reference = kernels::six_step_fft(input, s.n1, s.n2);
  double err = 0.0;
  const std::int64_t slice = n / ranks;
  for (int r = 0; r < ranks; ++r) {
    const auto& out = outputs[static_cast<std::size_t>(r)];
    if (static_cast<std::int64_t>(out.size()) != slice) return 1e300;
    for (std::int64_t i = 0; i < slice; ++i) {
      err = std::max(err, std::abs(out[static_cast<std::size_t>(i)] -
                                   reference[static_cast<std::size_t>(r * slice + i)]));
    }
  }
  return err;
}

}  // namespace dvx::apps::fft_detail

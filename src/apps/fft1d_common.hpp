#pragma once
// Shared pieces of the two FFT-1D implementations: deterministic input
// points, the node-local FFT/twiddle stages with compute charging, and
// verification against the serial six-step transform.

#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/fft1d.hpp"
#include "apps/transpose.hpp"
#include "kernels/fft.hpp"
#include "runtime/node.hpp"
#include "sim/rng.hpp"

namespace dvx::apps::fft_detail {

using kernels::Complex;

struct Shape {
  std::int64_t n1, n2;  // input matrix n1 x n2
};

/// The shape of the transform over `ranks` ranks. Throws
/// std::invalid_argument unless `input`, `output` and `scratch` each hold
/// 2^log_size points, no two of them overlap, and `ranks` divides both
/// extents.
inline Shape shape_for(int log_size, int ranks, std::span<const Complex> input,
                       std::span<const Complex> output, std::span<const Complex> scratch) {
  const std::int64_t n1 = std::int64_t{1} << ((log_size + 1) / 2);
  const std::int64_t n2 = std::int64_t{1} << (log_size / 2);
  for (const auto& [what, buffer] : {std::pair{"input", input}, std::pair{"output", output},
                                     std::pair{"scratch", scratch}}) {
    if (static_cast<std::int64_t>(buffer.size()) != n1 * n2) {
      throw std::invalid_argument(std::string("fft1d: the ") + what + " holds " +
                                  std::to_string(buffer.size()) + " points, not 2^" +
                                  std::to_string(log_size));
    }
  }
  if (overlap(input, output) || overlap(input, scratch) || overlap(output, scratch)) {
    throw std::invalid_argument("fft1d: the input, output and scratch must not overlap");
  }
  if (n1 % ranks != 0 || n2 % ranks != 0) {
    throw std::invalid_argument("fft1d: rank count must divide both matrix extents");
  }
  return Shape{n1, n2};
}

/// Rank `rank`'s equal share of `buffer`: its rows of the input matrix, or
/// its slice of the output and scratch.
template <typename T>
std::span<T> rank_slice(std::span<T> buffer, int rank, int ranks) {
  const std::size_t count = buffer.size() / static_cast<std::size_t>(ranks);
  return buffer.subspan(static_cast<std::size_t>(rank) * count, count);
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

/// Runs (and charges) one local FFT per row of length row_len.
inline sim::Coro<void> fft_rows(runtime::NodeCtx& node, std::span<Complex> data,
                                std::int64_t row_len) {
  const std::int64_t rows = static_cast<std::int64_t>(data.size()) / row_len;
  kernels::fft_rows(data, row_len);
  co_await node.compute_flops(static_cast<double>(rows) * kernels::fft_flops(row_len));
}

/// Twiddle stage: element (global row gr, col c) scaled by W_N^{gr*c}.
inline sim::Coro<void> twiddle_rows(runtime::NodeCtx& node, std::span<Complex> data,
                                    std::int64_t first_row, std::int64_t row_len,
                                    std::int64_t n) {
  kernels::twiddle_rows(data, first_row, row_len, n);
  co_await node.compute_flops(8.0 * static_cast<double>(data.size()));
}

/// Max |distributed - serial| over the full output.
inline double verify_against_serial(const Shape& s, std::span<const Complex> input,
                                    std::span<const Complex> output) {
  return kernels::max_abs_diff(output, kernels::six_step_fft(input, s.n1, s.n2));
}

}  // namespace dvx::apps::fft_detail

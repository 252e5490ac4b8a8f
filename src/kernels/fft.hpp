#pragma once
// Complex radix-2 FFT kernels used by the distributed FFT-1D benchmark and
// the pseudo-spectral vorticity solver.
//
// The distributed algorithm (apps/fft1d_*) is the classic six-step 1-D FFT:
// view the N = n1*n2 points as an n1 x n2 matrix, then
//   transpose -> n2 local FFTs of size n1 -> twiddle by W_N^{jk}
//   -> transpose -> n1 local FFTs of size n2 -> transpose
// which turns all inter-node communication into matrix transposes — exactly
// the "butterfly" data redistribution the paper calls out as the hard part.

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace dvx::kernels {

using Complex = std::complex<double>;

/// In-place iterative radix-2 FFT. `data.size()` must be a power of two.
/// `inverse` applies the conjugate transform and the 1/N scaling.
/// Same as `fft_rows(data, data.size(), inverse)`.
void fft(std::span<Complex> data, bool inverse = false);

/// In-place FFT of every consecutive length-`n` row of `data`. `n` must be a
/// power of two that divides `data.size()`. The twiddles W_n^k (k < n/2) and
/// the bit-reversal permutation are tabled once per call, every table entry
/// from its own cos/sin, so the rounding error grows with log n.
void fft_rows(std::span<Complex> data, std::int64_t n, bool inverse = false);

/// Reference O(N^2) DFT for validation.
std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse = false);

/// Nominal FLOP count credited for an N-point FFT (HPCC convention).
double fft_flops(std::int64_t n);

/// Twiddle factor W_N^{jk} = exp(-2*pi*i*j*k/N) (conjugated when inverse).
/// The per-element reference for `twiddle_rows`.
Complex twiddle(std::int64_t j, std::int64_t k, std::int64_t n, bool inverse = false);

/// Six-step twiddle stage: multiplies element (r, c) of the row-major
/// `data` (rows of `row_len`) by W_N^{(first_row + r) * c mod N}, N = `n`.
/// Each factor is the product of a fine and a coarse table entry of about
/// sqrt(N) entries each. Throws std::invalid_argument unless N is a power
/// of two.
void twiddle_rows(std::span<Complex> data, std::int64_t first_row, std::int64_t row_len,
                  std::int64_t n, bool inverse = false);

/// Out-of-place transpose of a rows x cols row-major matrix.
std::vector<Complex> transpose(std::span<const Complex> m, std::int64_t rows,
                               std::int64_t cols);

/// Serial six-step FFT (single node), used to validate the distributed one.
std::vector<Complex> six_step_fft(std::span<const Complex> data, std::int64_t n1,
                                  std::int64_t n2, bool inverse = false);

/// Max |a-b| over two complex vectors (validation metric).
double max_abs_diff(std::span<const Complex> a, std::span<const Complex> b);

}  // namespace dvx::kernels

#include "kernels/fft.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

namespace dvx::kernels {

namespace {

/// The first `count` powers of W_n = exp(sign*2*pi*i/n), each from its own
/// cos/sin pair, so no entry inherits another's rounding error.
std::vector<Complex> unit_roots(std::int64_t count, std::int64_t n, double sign) {
  std::vector<Complex> out(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    const double ang =
        sign * 2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    out[static_cast<std::size_t>(k)] = Complex(std::cos(ang), std::sin(ang));
  }
  return out;
}

/// a*b without the NaN/Inf recovery path of std::complex's operator*.
inline Complex mul(Complex a, Complex b) {
  return Complex(a.real() * b.real() - a.imag() * b.imag(),
                 a.real() * b.imag() + a.imag() * b.real());
}

/// One complex number as two lanes, (re, im), in a GCC/Clang vector type.
using V2 = double __attribute__((vector_size(16)));

inline V2 load(const Complex* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(Complex* p, V2 v) { std::memcpy(static_cast<void*>(p), &v, sizeof v); }

/// A twiddle w laid out for the two-lane mul: (w.re, w.re) and (-w.im, w.im).
struct Twiddle {
  V2 re;
  V2 im;
  Twiddle() = default;
  explicit Twiddle(Complex w) : re{w.real(), w.real()}, im{-w.imag(), w.imag()} {}
};

/// mul(a, w) in two lanes: (a.re*w.re + a.im*(-w.im), a.im*w.re + a.re*w.im).
/// That is mul's result bit for bit: negating a factor negates its product
/// exactly, x + (-y) is x - y, and a sum of two terms does not depend on
/// their order.
inline V2 mul(V2 a, const Twiddle& w) {
  return a * w.re + __builtin_shufflevector(a, a, 1, 0) * w.im;
}

}  // namespace

void fft(std::span<Complex> data, bool inverse) {
  fft_rows(data, static_cast<std::int64_t>(data.size()), inverse);
}

void fft_rows(std::span<Complex> data, std::int64_t n, bool inverse) {
  if (data.empty()) return;
  if (n <= 0 || !std::has_single_bit(static_cast<std::uint64_t>(n)) ||
      data.size() % static_cast<std::size_t>(n) != 0) {
    throw std::invalid_argument(
        "fft: row length must be a power of two that divides the data size");
  }
  const auto len = static_cast<std::size_t>(n);
  // W_n^k for k < n/2: the length-2h stage takes W_{2h}^k = W_n^{k*n/(2h)}.
  const auto w = unit_roots(n / 2, n, inverse ? 1.0 : -1.0);
  // The stage of half-length h reads its h twiddles from stage[h - 1 + k]:
  // the tables of stages 1, 2, 4, ... lie back to back.
  std::vector<Twiddle> stage(len - 1);
  for (std::size_t half = 1, stride = len / 2; half < len; half <<= 1, stride >>= 1) {
    for (std::size_t k = 0; k < half; ++k) stage[half - 1 + k] = Twiddle(w[k * stride]);
  }
  // rev[i] is i with its log2(n) bits reversed.
  std::vector<std::size_t> rev(len, 0);
  const int bits = std::countr_zero(len);
  for (std::size_t i = 1; i < len; ++i) {
    rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1));
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (std::size_t row = 0; row < data.size(); row += len) {
    Complex* x = data.data() + row;
    for (std::size_t i = 1; i < len; ++i) {
      if (i < rev[i]) std::swap(x[i], x[rev[i]]);
    }
    // Each butterfly is u = x[j], v = mul(x[j + h], w); x[j] = u + v,
    // x[j + h] = u - v, as in the stage-by-stage loop. An odd stage count
    // runs the first stage alone.
    std::size_t half = 1;
    if (bits % 2 == 1) {
      const Twiddle& t = stage[0];
      for (std::size_t i = 0; i < len; i += 2) {
        const V2 u = load(x + i);
        const V2 v = mul(load(x + i + 1), t);
        store(x + i, u + v);
        store(x + i + 1, u - v);
      }
      half = 2;
    }
    // Stages h and 2h in one pass over each group of four elements h apart.
    for (; half < len; half <<= 2) {
      const Twiddle* first = stage.data() + (half - 1);
      const Twiddle* second = stage.data() + (2 * half - 1);
      for (std::size_t i = 0; i < len; i += 4 * half) {
        for (std::size_t k = 0; k < half; ++k) {
          Complex* a = x + i + k;
          const V2 x0 = load(a);
          const V2 x2 = load(a + 2 * half);
          // Stage h: (x0, x1) and (x2, x3), both with twiddle k.
          const V2 v1 = mul(load(a + half), first[k]);
          const V2 v3 = mul(load(a + 3 * half), first[k]);
          const V2 y0 = x0 + v1;
          const V2 y1 = x0 - v1;
          const V2 y2 = x2 + v3;
          const V2 y3 = x2 - v3;
          // Stage 2h: (y0, y2) with twiddle k, (y1, y3) with twiddle k + h.
          const V2 z2 = mul(y2, second[k]);
          const V2 z3 = mul(y3, second[k + half]);
          store(a, y0 + z2);
          store(a + half, y1 + z3);
          store(a + 2 * half, y0 - z2);
          store(a + 3 * half, y1 - z3);
        }
      }
    }
    if (inverse) {
      for (std::size_t i = 0; i < len; ++i) x[i] *= inv;
    }
  }
}

std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse) {
  const auto n = static_cast<std::int64_t>(data.size());
  std::vector<Complex> out(data.size());
  const double sign = inverse ? 1.0 : -1.0;
  for (std::int64_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::int64_t j = 0; j < n; ++j) {
      const double ang =
          sign * 2.0 * std::numbers::pi * static_cast<double>(j * k) / static_cast<double>(n);
      acc += data[static_cast<std::size_t>(j)] * Complex(std::cos(ang), std::sin(ang));
    }
    out[static_cast<std::size_t>(k)] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

double fft_flops(std::int64_t n) {
  if (n <= 1) return 0.0;
  const double dn = static_cast<double>(n);
  return 5.0 * dn * std::log2(dn);
}

Complex twiddle(std::int64_t j, std::int64_t k, std::int64_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  // Reduce j*k mod n first: j*k overflows double precision for large N.
  const std::int64_t jk = static_cast<std::int64_t>(
      (static_cast<unsigned __int128>(j) * static_cast<unsigned __int128>(k)) %
      static_cast<unsigned __int128>(n));
  const double ang = sign * 2.0 * std::numbers::pi * static_cast<double>(jk) /
                     static_cast<double>(n);
  return Complex(std::cos(ang), std::sin(ang));
}

void twiddle_rows(std::span<Complex> data, std::int64_t first_row, std::int64_t row_len,
                  std::int64_t n, bool inverse) {
  if (n <= 0 || !std::has_single_bit(static_cast<std::uint64_t>(n))) {
    throw std::invalid_argument("twiddle_rows: N must be a power of two");
  }
  if (row_len <= 0 || data.size() % static_cast<std::size_t>(row_len) != 0) {
    throw std::invalid_argument("twiddle_rows: row length must divide the data");
  }
  // W_N^e = W_N^{e mod F} * W_{N/F}^{e / F}: a fine table of F entries and a
  // coarse one of N/F, F = 2^ceil(log2(N)/2).
  const double sign = inverse ? 1.0 : -1.0;
  const int fine_bits = (std::countr_zero(static_cast<std::uint64_t>(n)) + 1) / 2;
  const std::int64_t coarse_n = n >> fine_bits;
  const auto fine = unit_roots(std::int64_t{1} << fine_bits, n, sign);
  const auto coarse = unit_roots(coarse_n, coarse_n, sign);
  const std::uint64_t fine_mask = (std::uint64_t{1} << fine_bits) - 1;
  const std::uint64_t mask = static_cast<std::uint64_t>(n) - 1;
  const auto len = static_cast<std::size_t>(row_len);
  for (std::size_t r = 0, at = 0; at < data.size(); ++r, at += len) {
    // Exponents step by the global row index; N divides 2^64, so the
    // wrapping sum reduced by the mask is exact.
    const std::uint64_t step = static_cast<std::uint64_t>(first_row) + r;
    std::uint64_t e = 0;
    for (std::size_t c = 0; c < len; ++c, e = (e + step) & mask) {
      data[at + c] = mul(data[at + c], mul(fine[e & fine_mask], coarse[e >> fine_bits]));
    }
  }
}

std::vector<Complex> transpose(std::span<const Complex> m, std::int64_t rows,
                               std::int64_t cols) {
  if (static_cast<std::int64_t>(m.size()) != rows * cols) {
    throw std::invalid_argument("transpose: size mismatch");
  }
  std::vector<Complex> out(m.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c * rows + r)] = m[static_cast<std::size_t>(r * cols + c)];
    }
  }
  return out;
}

std::vector<Complex> six_step_fft(std::span<const Complex> data, std::int64_t n1,
                                  std::int64_t n2, bool inverse) {
  const std::int64_t n = n1 * n2;
  if (static_cast<std::int64_t>(data.size()) != n) {
    throw std::invalid_argument("six_step_fft: size mismatch");
  }
  // Input viewed as n1 x n2 row-major.
  // Step 1: transpose to n2 x n1.
  auto work = transpose(data, n1, n2);
  // Step 2: n2 local FFTs of length n1 (the rows of the transposed matrix).
  fft_rows(work, n1, inverse);
  // Step 3: twiddle element (r, c) by W_N^{r*c}.
  twiddle_rows(work, 0, n1, n, inverse);
  // Step 4: transpose back to n1 x n2.
  work = transpose(work, n2, n1);
  // Step 5: n1 local FFTs of length n2.
  fft_rows(work, n2, inverse);
  // Step 6: final transpose for natural output order.
  return transpose(work, n1, n2);
}

double max_abs_diff(std::span<const Complex> a, std::span<const Complex> b) {
  double m = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  if (a.size() != b.size()) return 1e300;
  return m;
}

}  // namespace dvx::kernels

#include "apps/vorticity_core.hpp"

namespace dvx::apps::vort_detail {

double kh_initial(std::int64_t i, std::int64_t j, std::int64_t n, double delta,
                  double eps) {
  // Double shear layer on the periodic unit box: vorticity sheets at
  // y = 1/4 and y = 3/4 with opposite signs, plus a small sinusoidal seed
  // that triggers the Kelvin-Helmholtz roll-up.
  const double x = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  const double y = (static_cast<double>(j) + 0.5) / static_cast<double>(n);
  auto sheet = [&](double yc, double sign) {
    const double s = (y - yc) / delta;
    return sign / (delta * std::cosh(s) * std::cosh(s));
  };
  const double base = sheet(0.25, 1.0) + sheet(0.75, -1.0);
  const double seed = eps * std::sin(2.0 * std::numbers::pi * x) *
                      (std::exp(-std::pow((y - 0.25) / delta, 2)) +
                       std::exp(-std::pow((y - 0.75) / delta, 2)));
  return base + seed;
}

std::vector<Complex> initial_rows(int rank, int ranks, std::int64_t n, double delta,
                                  double eps) {
  const std::int64_t rows_local = n / ranks;
  std::vector<Complex> out(static_cast<std::size_t>(rows_local * n));
  const std::int64_t j0 = static_cast<std::int64_t>(rank) * rows_local;
  for (std::int64_t r = 0; r < rows_local; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(r * n + i)] =
          Complex(kh_initial(i, j0 + r, n, delta, eps), 0.0);
    }
  }
  return out;
}

sim::Coro<void> fft_local_rows(runtime::NodeCtx& node, std::vector<Complex>& data,
                               std::int64_t n, bool inverse) {
  const std::int64_t rows = static_cast<std::int64_t>(data.size()) / n;
  kernels::fft_rows(data, n, inverse);
  co_await node.compute_flops(static_cast<double>(rows) * kernels::fft_flops(n));
}

SpectralSums spectral_sums(const std::vector<Complex>& s, std::int64_t row0,
                           std::int64_t n) {
  SpectralSums out;
  const std::int64_t rows = static_cast<std::int64_t>(s.size()) / n;
  for (std::int64_t r = 0; r < rows; ++r) {
    const double kx = static_cast<double>(wavenumber(row0 + r, n));
    for (std::int64_t c = 0; c < n; ++c) {
      const double ky = static_cast<double>(wavenumber(c, n));
      const double k2 = kx * kx + ky * ky;
      const double w2 = std::norm(s[static_cast<std::size_t>(r * n + c)]);
      out.enstrophy += w2;
      if (k2 > 0.0) out.energy += w2 / k2;
      out.abs_sum += std::sqrt(w2);
    }
  }
  return out;
}

}  // namespace dvx::apps::vort_detail

#include "apps/fft1d_common.hpp"

namespace dvx::apps {

std::vector<kernels::Complex> make_fft_input(int log_size) {
  if (log_size < 0 || log_size > 62) {
    throw std::invalid_argument("fft1d: log_size " + std::to_string(log_size) +
                                " is outside [0, 62]");
  }
  const std::uint64_t n = std::uint64_t{1} << log_size;
  std::vector<kernels::Complex> input;
  input.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) input.push_back(fft_detail::input_point(i));
  return input;
}

}  // namespace dvx::apps

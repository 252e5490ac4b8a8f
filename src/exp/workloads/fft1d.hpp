#pragma once
// fig7's factory with the build its input memo calls (exp/memo.hpp), so a
// test can count the builds a sweep makes. make_fft1d_workload() in
// exp/workload.hpp passes apps::make_fft_input.

#include <functional>
#include <memory>
#include <vector>

#include "exp/workload.hpp"
#include "kernels/fft.hpp"

namespace dvx::exp {

/// log_size -> the 2^log_size input points.
using FftInputBuild = std::function<std::vector<kernels::Complex>(int log_size)>;

std::unique_ptr<Workload> make_fft1d_workload(FftInputBuild build_input);

}  // namespace dvx::exp

#pragma once
// fig7's factory with the build its input memo calls (exp/memo.hpp) and the
// make its buffer pool calls (exp/pool.hpp), so a test can count the inputs
// and buffer sets a sweep makes. make_fft1d_workload() in exp/workload.hpp
// passes apps::make_fft_input and a make of an empty buffer set.

#include <functional>
#include <memory>
#include <vector>

#include "exp/workload.hpp"
#include "kernels/fft.hpp"

namespace dvx::exp {

/// log_size -> the 2^log_size input points.
using FftInputBuild = std::function<std::vector<kernels::Complex>(int log_size)>;

/// What a fig7 point borrows: its output and scratch, N points each, in one
/// vector the point sizes to 2N.
using FftBuffers = std::vector<kernels::Complex>;
using FftBuffersMake = std::function<FftBuffers()>;

std::unique_ptr<Workload> make_fft1d_workload(FftInputBuild build_input,
                                              FftBuffersMake make_buffers);

}  // namespace dvx::exp

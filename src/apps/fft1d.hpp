#pragma once
// Distributed 1-D FFT (paper §VI, Fig. 7).
//
// The HPCC-style benchmark: one discrete Fourier transform over N = 2^log
// randomly initialized points spread across the cluster, six-step
// formulation (three distributed transposes + two rounds of node-local
// FFTs + a twiddle scaling). The transposes are the entire communication
// cost, which is what makes this kernel a showcase for folding data
// redistribution into the network operation on the Data Vortex.
//
// The paper runs 2^33 points; this reproduction defaults to 2^20 (the shape
// of the comparison, not the absolute GFLOPS, is the target).
//
// As with BFS's graph, the input is built once (`make_fft_input`) and then
// transformed: both runners take it, so a sweep builds it once. They also
// take the output and scratch storage, so a sweep can lend every point the
// same buffers (exp/pool.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/fft.hpp"
#include "runtime/cluster.hpp"

namespace dvx::apps {

struct FftParams {
  int log_size = 20;    ///< N = 2^log_size points
  bool verify = false;  ///< compare against the serial six-step FFT
};

struct FftResult {
  double seconds = 0.0;
  double flops = 0.0;
  double max_error = 0.0;  ///< only filled when verify is set
  double gflops() const { return flops / seconds / 1e9; }
};

/// The transform's N = 2^log_size input points: point i is a pure function
/// of i (fft_detail::input_point), so every rank count and both networks
/// transform the same input. Throws std::invalid_argument unless log_size is
/// in [0, 62].
std::vector<kernels::Complex> make_fft_input(int log_size);

/// Both runners transform `input` into `output`, in natural order; each
/// rank's first transpose reads its rows of `input` in place. Rank r works
/// in its N/P slices of `output` and `scratch`, so a run allocates no
/// buffer of the transform's size, and it writes every element of both
/// before reading it: what they held before cannot move a result. They
/// throw std::invalid_argument unless all three hold 2^params.log_size
/// points and no two of them overlap.
FftResult run_fft_dv(runtime::Cluster& cluster, const FftParams& params,
                     std::span<const kernels::Complex> input,
                     std::span<kernels::Complex> output, std::span<kernels::Complex> scratch);
FftResult run_fft_mpi(runtime::Cluster& cluster, const FftParams& params,
                      std::span<const kernels::Complex> input,
                      std::span<kernels::Complex> output, std::span<kernels::Complex> scratch);

}  // namespace dvx::apps

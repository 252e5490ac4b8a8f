// FFT-1D over MPI/InfiniBand: six-step transform with pack/alltoall/unpack
// transposes — the HPCC-style reference implementation.

#include "apps/fft1d.hpp"
#include "apps/fft1d_common.hpp"
#include "apps/transpose.hpp"
#include "kernels/fft.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
using fft_detail::Shape;
using kernels::Complex;

FftResult run_fft_mpi(runtime::Cluster& cluster, const FftParams& params,
                      std::span<const Complex> input, std::span<Complex> output,
                      std::span<Complex> scratch) {
  const int p = cluster.nodes();
  const Shape s = fft_detail::shape_for(params.log_size, p, input, output, scratch);
  const std::int64_t n = s.n1 * s.n2;

  FftResult result;
  const auto run = cluster.run_mpi(
      [&](mpi::Comm comm, runtime::NodeCtx& node) -> sim::Coro<void> {
        co_await comm.barrier();
        node.roi_begin();

        // The first transpose reads this rank's rows of `input` in place;
        // the later ones ping-pong between `work` and `local`, this rank's
        // slices of `output` and `scratch`. All three reuse one set of
        // alltoall blocks.
        const std::span<Complex> work = fft_detail::rank_slice(output, comm.rank(), p);
        const std::span<Complex> local = fft_detail::rank_slice(scratch, comm.rank(), p);
        TransposeBlocks blocks;
        co_await transpose_mpi(comm, node, fft_detail::rank_slice(input, comm.rank(), p),
                               s.n1, s.n2, work, blocks);
        co_await fft_detail::fft_rows(node, work, s.n1);
        const std::int64_t rows2_local = s.n2 / p;
        co_await fft_detail::twiddle_rows(node, work,
                                          static_cast<std::int64_t>(comm.rank()) * rows2_local,
                                          s.n1, n);
        co_await transpose_mpi(comm, node, work, s.n2, s.n1, local, blocks);
        co_await fft_detail::fft_rows(node, local, s.n2);
        co_await transpose_mpi(comm, node, local, s.n1, s.n2, work, blocks);

        co_await comm.barrier();
        node.roi_end();
      });

  result.seconds = run.roi_seconds();
  result.flops = kernels::fft_flops(n);
  if (params.verify) result.max_error = fft_detail::verify_against_serial(s, input, output);
  return result;
}

}  // namespace dvx::apps

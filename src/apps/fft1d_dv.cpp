// FFT-1D on the Data Vortex: six-step transform whose three transposes
// scatter elements directly into peers' DV memory with pre-cached headers,
// folding the data redistribution into the communication (paper §VI).

#include "apps/fft1d.hpp"
#include "apps/fft1d_common.hpp"
#include "apps/transpose.hpp"
#include "dvapi/collectives.hpp"
#include "kernels/fft.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
using fft_detail::Shape;
using kernels::Complex;

FftResult run_fft_dv(runtime::Cluster& cluster, const FftParams& params,
                     std::span<const Complex> input, std::span<Complex> output,
                     std::span<Complex> scratch) {
  const int p = cluster.nodes();
  const Shape s = fft_detail::shape_for(params.log_size, p, input, output, scratch);
  const std::int64_t n = s.n1 * s.n2;

  constexpr int kCtr = dvapi::kFirstFreeCounter;
  constexpr std::uint32_t kDvBase = dvapi::kFirstFreeDvWord;

  FftResult result;
  const auto run = cluster.run_dv(
      [&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
        co_await ctx.barrier();
        node.roi_begin();

        // The first transpose reads this rank's rows of `input` in place;
        // the later ones ping-pong between `work` and `local`, this rank's
        // slices of `output` and `scratch`.
        const std::span<Complex> work = fft_detail::rank_slice(output, ctx.rank(), p);
        const std::span<Complex> local = fft_detail::rank_slice(scratch, ctx.rank(), p);
        // Step 1: transpose n1 x n2 -> n2 x n1.
        co_await transpose_dv(ctx, node, fft_detail::rank_slice(input, ctx.rank(), p), s.n1,
                              s.n2, kDvBase, kCtr, work);
        // Step 2: local FFTs of length n1.
        co_await fft_detail::fft_rows(node, work, s.n1);
        // Step 3: twiddle W_N^{row*col}.
        const std::int64_t rows2_local = s.n2 / p;
        co_await fft_detail::twiddle_rows(node, work,
                                          static_cast<std::int64_t>(ctx.rank()) * rows2_local,
                                          s.n1, n);
        // Step 4: transpose back to n1 x n2.
        co_await transpose_dv(ctx, node, work, s.n2, s.n1, kDvBase, kCtr, local);
        // Step 5: local FFTs of length n2.
        co_await fft_detail::fft_rows(node, local, s.n2);
        // Step 6: final transpose for natural order.
        co_await transpose_dv(ctx, node, local, s.n1, s.n2, kDvBase, kCtr, work);

        co_await ctx.barrier();
        node.roi_end();
      });

  result.seconds = run.roi_seconds();
  result.flops = kernels::fft_flops(n);
  if (params.verify) result.max_error = fft_detail::verify_against_serial(s, input, output);
  return result;
}

}  // namespace dvx::apps

// Vorticity restructured for the Data Vortex (paper §VII): the five 2-D
// FFTs per RHS evaluation run their transposes as direct scatters into the
// peers' DV memory ("data reordering and redistribution ... integrated with
// normal data transfers"), with cached headers and counter completion.

#include <bit>

#include "apps/transpose.hpp"
#include "apps/vorticity.hpp"
#include "apps/vorticity_core.hpp"
#include "dvapi/collectives.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
using kernels::Complex;
namespace vd = vort_detail;

namespace {

constexpr int kTransposeCtr = dvapi::kFirstFreeCounter;
constexpr std::uint32_t kDvBase = dvapi::kFirstFreeDvWord;

/// Double-valued sum reduction over the word collectives.
sim::Coro<double> allreduce_sum_double_dv(dvapi::DvContext& ctx, double v) {
  std::vector<std::uint64_t> send(static_cast<std::size_t>(ctx.nodes()),
                                  std::bit_cast<std::uint64_t>(v));
  const auto all = co_await dvapi::alltoall_words(ctx, send);
  double acc = 0.0;
  for (auto w : all) acc += std::bit_cast<double>(w);
  co_return acc;
}

}  // namespace

VorticityResult run_vorticity_dv(runtime::Cluster& cluster,
                                 const VorticityParams& params) {
  const int p = cluster.nodes();
  const std::int64_t n = params.n;
  VorticityResult result;
  result.steps = params.steps;

  const auto run = cluster.run_dv(
      [&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
        const std::int64_t rows_local = n / p;
        const std::int64_t row0 = static_cast<std::int64_t>(ctx.rank()) * rows_local;
        auto transpose = [&](std::vector<Complex> data, std::int64_t rows,
                             std::int64_t cols) -> sim::Coro<std::vector<Complex>> {
          std::vector<Complex> out(static_cast<std::size_t>(cols / p * rows));
          co_await transpose_dv(ctx, node, data, rows, cols, kDvBase, kTransposeCtr, out);
          co_return out;
        };

        auto state = vd::initial_rows(ctx.rank(), p, n, params.shear_delta,
                                      params.perturbation);
        co_await vd::fft_local_rows(node, state, n, false);
        state = co_await transpose(std::move(state), n, n);
        co_await vd::fft_local_rows(node, state, n, false);

        co_await ctx.barrier();
        node.roi_begin();

        auto sums = vd::spectral_sums(state, row0, n);
        const double e0 = co_await allreduce_sum_double_dv(ctx, sums.energy);
        const double z0 = co_await allreduce_sum_double_dv(ctx, sums.enstrophy);

        for (int step = 0; step < params.steps; ++step) {
          auto k1 = co_await vd::rhs(node, transpose, state, row0, n, p);
          std::vector<Complex> mid(state.size());
          for (std::size_t i = 0; i < state.size(); ++i) {
            mid[i] = state[i] + 0.5 * params.dt * k1[i];
          }
          auto k2 = co_await vd::rhs(node, transpose, mid, row0, n, p);
          for (std::size_t i = 0; i < state.size(); ++i) {
            state[i] += params.dt * k2[i];
          }
          co_await node.compute_flops(8.0 * static_cast<double>(state.size()));
        }

        sums = vd::spectral_sums(state, row0, n);
        const double e1 = co_await allreduce_sum_double_dv(ctx, sums.energy);
        const double z1 = co_await allreduce_sum_double_dv(ctx, sums.enstrophy);
        const double cs = co_await allreduce_sum_double_dv(ctx, sums.abs_sum);
        co_await ctx.barrier();
        node.roi_end();

        if (ctx.rank() == 0) {
          result.energy0 = e0;
          result.energy1 = e1;
          result.enstrophy0 = z0;
          result.enstrophy1 = z1;
          result.omega_checksum = cs;
        }
      });

  result.seconds = run.roi_seconds();
  return result;
}

}  // namespace dvx::apps

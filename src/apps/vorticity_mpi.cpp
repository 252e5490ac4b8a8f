// Vorticity over MPI/InfiniBand: the pseudo-spectral solver with
// pack/alltoall/unpack distributed transposes.

#include "apps/transpose.hpp"
#include "apps/vorticity.hpp"
#include "apps/vorticity_core.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
using kernels::Complex;
namespace vd = vort_detail;

VorticityResult run_vorticity_mpi(runtime::Cluster& cluster,
                                  const VorticityParams& params) {
  const int p = cluster.nodes();
  const std::int64_t n = params.n;
  VorticityResult result;
  result.steps = params.steps;

  const auto run = cluster.run_mpi(
      [&](mpi::Comm comm, runtime::NodeCtx& node) -> sim::Coro<void> {
        const std::int64_t rows_local = n / p;
        const std::int64_t row0 = static_cast<std::int64_t>(comm.rank()) * rows_local;
        TransposeBlocks blocks;  // reused by every transpose of this rank
        auto transpose = [&](std::vector<Complex> data, std::int64_t rows,
                             std::int64_t cols) -> sim::Coro<std::vector<Complex>> {
          std::vector<Complex> out(static_cast<std::size_t>(cols / p * rows));
          co_await transpose_mpi(comm, node, data, rows, cols, out, blocks);
          co_return out;
        };

        // Initial condition -> spectral state (forward 2-D FFT).
        auto state = vd::initial_rows(comm.rank(), p, n, params.shear_delta,
                                      params.perturbation);
        co_await vd::fft_local_rows(node, state, n, false);
        state = co_await transpose(std::move(state), n, n);
        co_await vd::fft_local_rows(node, state, n, false);

        co_await comm.barrier();
        node.roi_begin();

        auto sums = vd::spectral_sums(state, row0, n);
        const double e0 = co_await comm.allreduce_sum_double(sums.energy);
        const double z0 = co_await comm.allreduce_sum_double(sums.enstrophy);

        for (int step = 0; step < params.steps; ++step) {
          // RK2 (midpoint).
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
        const double e1 = co_await comm.allreduce_sum_double(sums.energy);
        const double z1 = co_await comm.allreduce_sum_double(sums.enstrophy);
        const double cs = co_await comm.allreduce_sum_double(sums.abs_sum);
        co_await comm.barrier();
        node.roi_end();

        if (comm.rank() == 0) {
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

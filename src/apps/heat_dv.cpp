// Heat equation restructured for the Data Vortex (paper §VII): all six
// faces ride one mixed-destination DMA batch straight into the neighbors'
// DV-memory halo regions; two sense-alternating group counters detect
// arrival; the residual uses the dvapi word collectives. One PCIe crossing
// per step where MPI pays a dozen message set-ups.

#include <bit>
#include <numeric>

#include "apps/heat.hpp"
#include "apps/heat_common.hpp"
#include "dvapi/collectives.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
namespace kernels = dvx::kernels;
using heat_detail::Block;
using kernels::HaloGrid3;

namespace {

constexpr int kCtrEven = dvapi::kFirstFreeCounter;      // steps 0, 2, 4, ...
constexpr int kCtrOdd = dvapi::kFirstFreeCounter + 1;   // steps 1, 3, 5, ...
constexpr std::uint32_t kHaloBase = dvapi::kFirstFreeDvWord;  // DV-memory region

/// Words of one halo region for a block: only faces that actually have a
/// neighbor occupy space, so the read-back DMA moves exactly the words that
/// arrived.
std::uint32_t region_words(const Block& b) {
  HaloGrid3 probe(static_cast<int>(b.n[0]), static_cast<int>(b.n[1]),
                  static_cast<int>(b.n[2]));
  std::uint32_t n = 0;
  for (int f = 0; f < 6; ++f) {
    if (b.neighbor[static_cast<std::size_t>(f)] >= 0) {
      n += static_cast<std::uint32_t>(probe.face_cells(f));
    }
  }
  return n;
}

/// DV-memory offset of `face`'s incoming halo slot within a block. The
/// regions are double-buffered by step parity so a fast neighbor's step k+1
/// faces can never land on a region still being read for step k.
std::uint32_t face_offset(const Block& b, int face, int step) {
  HaloGrid3 probe(static_cast<int>(b.n[0]), static_cast<int>(b.n[1]),
                  static_cast<int>(b.n[2]));
  std::uint32_t off = kHaloBase + (step % 2 == 0 ? 0 : region_words(b));
  for (int f = 0; f < face; ++f) {
    if (b.neighbor[static_cast<std::size_t>(f)] >= 0) {
      off += static_cast<std::uint32_t>(probe.face_cells(f));
    }
  }
  return off;
}

/// Total words a block receives per step (present faces only).
std::uint64_t expected_words(const Block& b) {
  HaloGrid3 probe(static_cast<int>(b.n[0]), static_cast<int>(b.n[1]),
                  static_cast<int>(b.n[2]));
  std::uint64_t n = 0;
  for (int f = 0; f < 6; ++f) {
    if (b.neighbor[static_cast<std::size_t>(f)] >= 0) {
      n += static_cast<std::uint64_t>(probe.face_cells(f));
    }
  }
  return n;
}

}  // namespace

HeatResult run_heat_dv(runtime::Cluster& cluster, const HeatParams& params) {
  const int p = cluster.nodes();
  std::vector<double> rank_sums(static_cast<std::size_t>(p), 0.0);
  std::vector<double> rank_errs(static_cast<std::size_t>(p), 0.0);
  double final_residual = 0.0;
  const auto reference =
      params.verify ? heat_detail::serial_reference(params) : std::vector<double>{};

  const auto run = cluster.run_dv(
      [&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
        const Block b = heat_detail::block_for(ctx.rank(), p, params);
        HaloGrid3 u(static_cast<int>(b.n[0]), static_cast<int>(b.n[1]),
                    static_cast<int>(b.n[2]));
        HaloGrid3 next(static_cast<int>(b.n[0]), static_cast<int>(b.n[1]),
                       static_cast<int>(b.n[2]));
        heat_detail::fill_block(u, b, params);
        const std::uint64_t expect = expected_words(b);

        // Arm both sense counters before anyone may send.
        co_await ctx.counter_set_local(kCtrEven, expect);
        co_await ctx.counter_set_local(kCtrOdd, expect);
        co_await ctx.barrier();
        node.roi_begin();

        double residual = 0.0;
        for (int step = 0; step < params.steps; ++step) {
          const int ctr = (step % 2 == 0) ? kCtrEven : kCtrOdd;

          // Build ONE send carrying every face to every neighbor, one run
          // per face.
          std::vector<vic::Run> runs;
          std::vector<std::uint64_t> payload;
          std::int64_t packed_cells = 0;
          for (int f = 0; f < 6; ++f) {
            const int nb = b.neighbor[static_cast<std::size_t>(f)];
            if (nb < 0) {
              u.reflect_boundary(f);
              continue;
            }
            // Our face f lands in the neighbor's opposite halo region.
            const Block nb_block = heat_detail::block_for(nb, p, params);
            const std::uint32_t dst = face_offset(nb_block, f ^ 1, step);
            const auto face = u.pack_face(f);
            packed_cells += static_cast<std::int64_t>(face.size());
            runs.push_back(vic::Run{nb, ctr, dst, static_cast<std::uint32_t>(face.size())});
            for (const double v : face) payload.push_back(std::bit_cast<std::uint64_t>(v));
          }
          co_await node.compute_stream(16.0 * static_cast<double>(packed_cells));
          co_await ctx.send_dma_runs(runs, std::as_bytes(std::span(payload)));

          co_await ctx.counter_wait_zero(ctr);
          // Re-arm for step+2: neighbors cannot reach it before they receive
          // our step+1 faces, which we only send after this line.
          co_await ctx.counter_set_local(ctr, expect);

          // Pull this parity's halo region (present faces only) in one DMA.
          const std::uint32_t base =
              kHaloBase + (step % 2 == 0 ? 0 : region_words(b));
          std::vector<std::uint64_t> region(region_words(b));
          co_await ctx.dma_read_dv(base, region);
          std::uint32_t off = 0;
          for (int f = 0; f < 6; ++f) {
            if (b.neighbor[static_cast<std::size_t>(f)] < 0) continue;
            const auto cells = static_cast<std::size_t>(u.face_cells(f));
            std::vector<double> vals(cells);
            for (std::size_t i = 0; i < cells; ++i) {
              vals[i] = std::bit_cast<double>(region[off + i]);
            }
            u.unpack_halo(f, vals);
            off += static_cast<std::uint32_t>(cells);
          }
          co_await node.compute_stream(16.0 * static_cast<double>(packed_cells));

          const double local_res = kernels::heat_step(u, next, params.alpha);
          std::swap(u, next);
          co_await node.compute_flops(kernels::kHeatFlopsPerCell *
                                      static_cast<double>(u.interior_cells()));
          co_await node.compute_stream(16.0 * static_cast<double>(u.interior_cells()));

          // Residual check through the word collectives (positive doubles
          // order-compatibly under integer max).
          const auto bits = co_await dvapi::allreduce_max(
              ctx, std::bit_cast<std::uint64_t>(local_res));
          residual = std::bit_cast<double>(bits);
        }
        co_await ctx.barrier();
        node.roi_end();

        rank_sums[static_cast<std::size_t>(ctx.rank())] = heat_detail::block_sum(u, b);
        if (ctx.rank() == 0) final_residual = residual;
        if (params.verify) {
          rank_errs[static_cast<std::size_t>(ctx.rank())] =
              heat_detail::block_vs_reference(u, b, params, reference);
        }
      });

  HeatResult result;
  result.seconds = run.roi_seconds();
  for (double s : rank_sums) result.total_heat += s;
  for (double e : rank_errs) result.max_serial_diff = std::max(result.max_serial_diff, e);
  result.final_residual = final_residual;
  result.cell_updates = static_cast<std::int64_t>(params.global_nx) * params.global_ny *
                        params.global_nz * params.steps;
  return result;
}

}  // namespace dvx::apps

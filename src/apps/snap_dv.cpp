// SNAP "best-effort" port to the Data Vortex (paper §VII): MPI face
// exchanges become DV-memory puts with group counters, y/z faces of a chunk
// aggregated into a single DMA batch ("an aggregation scheme ... to
// minimize the number of PCIe transfers per message").
//
// Flow control is barrier-free so consecutive octant wavefronts overlap the
// way the MPI pipeline does. Chunks are numbered by a GLOBAL sequence
// s = ((outer*8 + octant) * chunks + c); four region/counter slots are
// reused round-robin (K = 4):
//   * data[s%K] counts the combined y+z face words of sequence s;
//   * after consuming sequence s a rank re-arms data[s%K] for s+K and only
//     THEN sends per-direction credit packets to the upstream ranks of
//     sequence s+K;
//   * a sender of sequence s (s >= K) first waits for that credit.
// A data word for s+K therefore cannot reach a counter that is still armed
// for s: the sender is gated by a credit that is emitted strictly after the
// re-arm. One barrier arms the initial K slots; no other barrier exists.

#include <bit>

#include "apps/snap.hpp"
#include "apps/snap_core.hpp"
#include "dvapi/collectives.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
using snap_detail::SnapBlock;
using snap_detail::SnapCore;

namespace {

constexpr int kSlots = 4;  // round-robin depth of region/counter slots
constexpr int kData(int k) { return dvapi::kFirstFreeCounter + k; }  // 6..9
// Credit counters are additionally indexed by the sweep-direction sign: the
// +y and -y downstream neighbors are different nodes whose credits are not
// mutually ordered, so sharing one counter could lose a decrement against a
// not-yet-re-armed counter. Within one (direction, sign, slot) class all
// credits come from a single node and are causally serialized.
constexpr int kCreditY(int k, int sy) {
  return dvapi::kFirstFreeCounter + kSlots + 2 * k + (sy > 0 ? 0 : 1);  // 10..17
}
constexpr int kCreditZ(int k, int sz) {
  return dvapi::kFirstFreeCounter + 3 * kSlots + 2 * k + (sz > 0 ? 0 : 1);  // 18..25
}
constexpr std::uint32_t kRegionBase = dvapi::kFirstFreeDvWord;

}  // namespace

SnapResult run_snap_dv(runtime::Cluster& cluster, const SnapParams& params) {
  const int p = cluster.nodes();
  std::vector<double> flux_sums(static_cast<std::size_t>(p), 0.0);
  std::vector<double> flux_mins(static_cast<std::size_t>(p), 0.0);
  std::vector<std::int64_t> updates(static_cast<std::size_t>(p), 0);
  double residual = 0.0;
  int iterations = 0;

  const auto run = cluster.run_dv(
      [&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
        SnapCore core(params, ctx.rank(), p);
        const auto& blk = core.block();
        const int chunks = core.chunks();
        const int total_seq = params.max_outer * 8 * chunks;

        auto region_words_for = [&](const SnapBlock& b) {
          return static_cast<std::uint32_t>(
              static_cast<std::int64_t>(params.ichunk) * (b.nz_l + b.ny_l) *
              params.nang * params.ng);
        };
        auto slot_base_for = [&](const SnapBlock& b, int k) {
          return kRegionBase + static_cast<std::uint32_t>(k) * region_words_for(b);
        };
        // Decompose a global sequence number.
        auto seq_octant = [&](int s) { return (s / chunks) % 8; };
        auto seq_chunk = [&](int s) { return s % chunks; };
        // Face lengths of sequence s (depend on the octant's x direction).
        auto face_lens = [&](int s) {
          const auto sgn = snap_detail::octant_signs(seq_octant(s));
          const auto [x0, x1] = core.chunk_range(seq_chunk(s), sgn[0]);
          const std::int64_t cxl = x1 - x0;
          return std::pair<std::int64_t, std::int64_t>{
              cxl * blk.nz_l * params.nang * params.ng,
              cxl * blk.ny_l * params.nang * params.ng};
        };
        auto up_y_of = [&](int s) {
          return blk.y_upstream(snap_detail::octant_signs(seq_octant(s))[1]);
        };
        auto up_z_of = [&](int s) {
          return blk.z_upstream(snap_detail::octant_signs(seq_octant(s))[2]);
        };
        auto expected = [&](int s) -> std::uint64_t {
          if (s >= total_seq) return 0;
          const auto [ylen, zlen] = face_lens(s);
          return (up_y_of(s) >= 0 ? static_cast<std::uint64_t>(ylen) : 0) +
                 (up_z_of(s) >= 0 ? static_cast<std::uint64_t>(zlen) : 0);
        };

        // One-time arming of the K initial slots.
        for (int k = 0; k < kSlots; ++k) {
          co_await ctx.counter_set_local(kData(k), expected(k));
          for (int sign : {+1, -1}) {
            co_await ctx.counter_set_local(kCreditY(k, sign), 1);
            co_await ctx.counter_set_local(kCreditZ(k, sign), 1);
          }
        }
        co_await ctx.barrier();
        node.roi_begin();

        double res = 0.0;
        for (int outer = 0; outer < params.max_outer; ++outer) {
          core.begin_outer();
          for (int octant = 0; octant < 8; ++octant) {
            const auto sgn = snap_detail::octant_signs(octant);
            core.begin_octant(octant);
            const int down_y = blk.y_downstream(sgn[1]);
            const int down_z = blk.z_downstream(sgn[2]);

            for (int c = 0; c < chunks; ++c) {
              const int s = (outer * 8 + octant) * chunks + c;
              const int k = s % kSlots;
              const auto [ylen, zlen] = face_lens(s);
              const int up_y = up_y_of(s), up_z = up_z_of(s);

              // --- receive faces for sequence s ---------------------------
              std::vector<double> in_y, in_z;
              if (expected(s) > 0) {
                co_await ctx.counter_wait_zero(kData(k));
                std::vector<std::uint64_t> region(
                    static_cast<std::size_t>(expected(s)));
                co_await ctx.dma_read_dv(slot_base_for(blk, k), region);
                std::size_t off = 0;
                if (up_y >= 0) {
                  in_y.resize(static_cast<std::size_t>(ylen));
                  for (auto& v : in_y) v = std::bit_cast<double>(region[off++]);
                }
                if (up_z >= 0) {
                  in_z.resize(static_cast<std::size_t>(zlen));
                  for (auto& v : in_z) v = std::bit_cast<double>(region[off++]);
                }
              }
              // Slot maintenance happens every sequence, even when nothing
              // was expected: re-arm FIRST, then grant credits for s+K.
              co_await ctx.counter_set_local(kData(k), expected(s + kSlots));
              if (s + kSlots < total_seq) {
                const auto next_sgn =
                    snap_detail::octant_signs(seq_octant(s + kSlots));
                std::vector<vic::Packet> credits;
                if (const int uy = up_y_of(s + kSlots); uy >= 0) {
                  credits.push_back(vic::Packet{
                      vic::Header{static_cast<std::uint16_t>(uy),
                                  vic::DestKind::kDvMemory,
                                  static_cast<std::uint8_t>(kCreditY(k, next_sgn[1])),
                                  dvapi::kScratchSlot},
                      0});
                }
                if (const int uz = up_z_of(s + kSlots); uz >= 0) {
                  credits.push_back(vic::Packet{
                      vic::Header{static_cast<std::uint16_t>(uz),
                                  vic::DestKind::kDvMemory,
                                  static_cast<std::uint8_t>(kCreditZ(k, next_sgn[2])),
                                  dvapi::kScratchSlot},
                      0});
                }
                co_await ctx.send_direct_batch(credits);
              }

              // --- sweep ----------------------------------------------------
              std::vector<double> out_y, out_z;
              core.sweep_chunk(octant, c, in_y, in_z, out_y, out_z);
              co_await node.compute_flops(core.chunk_flops(c));

              // --- send faces for sequence s --------------------------------
              if (down_y >= 0 || down_z >= 0) {
                if (s >= kSlots) {
                  if (down_y >= 0) {
                    co_await ctx.counter_wait_zero(kCreditY(k, sgn[1]));
                    co_await ctx.counter_set_local(kCreditY(k, sgn[1]), 1);
                  }
                  if (down_z >= 0) {
                    co_await ctx.counter_wait_zero(kCreditZ(k, sgn[2]));
                    co_await ctx.counter_set_local(kCreditZ(k, sgn[2]), 1);
                  }
                }
                std::vector<vic::Run> runs;
                std::vector<std::uint64_t> payload;
                payload.reserve(out_y.size() + out_z.size());
                if (down_y >= 0) {
                  const auto nb = snap_detail::block_for(down_y, p, params);
                  runs.push_back(vic::Run{down_y, kData(k), slot_base_for(nb, k),
                                          static_cast<std::uint32_t>(out_y.size())});
                  for (const double v : out_y) {
                    payload.push_back(std::bit_cast<std::uint64_t>(v));
                  }
                }
                if (down_z >= 0) {
                  // z faces land after the (possibly absent) y block in the
                  // downstream's slot; the y-block length uses the NEIGHBOR's
                  // dimensions.
                  const auto nb = snap_detail::block_for(down_z, p, params);
                  const bool nb_has_y = nb.y_upstream(sgn[1]) >= 0;
                  const auto [x0c, x1c] = core.chunk_range(c, sgn[0]);
                  const std::uint32_t zoff =
                      nb_has_y ? static_cast<std::uint32_t>(
                                     (x1c - x0c) * nb.nz_l * params.nang * params.ng)
                               : 0;
                  runs.push_back(vic::Run{down_z, kData(k), slot_base_for(nb, k) + zoff,
                                          static_cast<std::uint32_t>(out_z.size())});
                  for (const double v : out_z) {
                    payload.push_back(std::bit_cast<std::uint64_t>(v));
                  }
                }
                co_await ctx.send_dma_runs(runs, std::as_bytes(std::span(payload)));
              }
            }
          }
          const auto bits = co_await dvapi::allreduce_max(
              ctx, std::bit_cast<std::uint64_t>(core.finish_outer()));
          res = std::bit_cast<double>(bits);
        }
        co_await ctx.barrier();
        node.roi_end();

        flux_sums[static_cast<std::size_t>(ctx.rank())] = core.flux_sum();
        flux_mins[static_cast<std::size_t>(ctx.rank())] = core.flux_min();
        updates[static_cast<std::size_t>(ctx.rank())] = core.cell_angle_updates();
        if (ctx.rank() == 0) {
          residual = res;
          iterations = params.max_outer;
        }
      });

  SnapResult result;
  result.seconds = run.roi_seconds();
  result.outer_iterations = iterations;
  result.residual = residual;
  for (double s : flux_sums) result.flux_sum += s;
  for (double m : flux_mins) result.min_flux = std::min(result.min_flux, m);
  for (auto u : updates) result.cell_angle_updates += u;
  return result;
}

}  // namespace dvx::apps

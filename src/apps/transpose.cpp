#include "apps/transpose.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <type_traits>

#include "check/check.hpp"

namespace dvx::apps {

namespace {

using kernels::Complex;

// An element travels as two words, (re, im): std::complex<double> is laid
// out as double[2], so one std::memcpy moves both in that order.
static_assert(sizeof(Complex) == 2 * sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<Complex>);

// Side of the square tile the strided copies are blocked by, in elements. A
// 32 x 32 tile is 16 KB, so its source and destination lines fit in L1
// together.
constexpr std::int64_t kTile = 32;

/// Calls copy(r, c) once for every r < rows, c < cols, tile by tile. Within
/// a tile c is the outer index: the copies write a destination row per c in
/// r order, and the tile keeps the strided reads down to one per cache line.
template <typename Copy>
void tiled(std::int64_t rows, std::int64_t cols, Copy&& copy) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = std::min(rows, r0 + kTile);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = std::min(cols, c0 + kTile);
      for (std::int64_t c = c0; c < c1; ++c) {
        for (std::int64_t r = r0; r < r1; ++r) copy(r, c);
      }
    }
  }
}

void check_args(std::span<const Complex> local, const std::vector<Complex>& out,
                std::int64_t rows, std::int64_t cols, int ranks) {
  if (rows % ranks != 0 || cols % ranks != 0) {
    throw std::invalid_argument("transpose: the rank count must divide rows and cols");
  }
  if (static_cast<std::int64_t>(local.size()) != rows / ranks * cols) {
    throw std::invalid_argument("transpose: local block size mismatch");
  }
  // `out` is resized and written while `local` is still being read.
  const std::less<> before;
  if (before(local.data(), out.data() + out.size()) &&
      before(out.data(), local.data() + local.size())) {
    throw std::invalid_argument("transpose: the output must not overlap the input");
  }
}

}  // namespace

sim::Coro<void> transpose_mpi(mpi::Comm comm, runtime::NodeCtx& node,
                              std::span<const Complex> local, std::int64_t rows,
                              std::int64_t cols, std::vector<Complex>& out) {
  const int p = comm.size();
  check_args(local, out, rows, cols, p);
  const std::int64_t rows_local = rows / p;
  const std::int64_t cols_block = cols / p;
  const auto block_words = static_cast<std::size_t>(rows_local * cols_block * 2);

  // Pack: destination peer owns transposed rows [peer*cols_block, ...), i.e.
  // our columns in that band, one contiguous row segment per local row.
  std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(p));
  for (int peer = 0; peer < p; ++peer) {
    auto& blk = send[static_cast<std::size_t>(peer)];
    blk.resize(block_words);
    for (std::int64_t r = 0; r < rows_local; ++r) {
      std::memcpy(blk.data() + r * cols_block * 2, local.data() + r * cols + peer * cols_block,
                  static_cast<std::size_t>(cols_block) * sizeof(Complex));
    }
  }
  co_await node.compute_stream(16.0 * static_cast<double>(local.size()));  // pack pass

  auto recv = co_await comm.alltoall(std::move(send));

  // Unpack: out is cols_block x rows (row-major); the block from `peer`
  // holds elements (r_global = peer*rows_local + r, c_local).
  out.resize(static_cast<std::size_t>(cols_block * rows));
  for (int peer = 0; peer < p; ++peer) {
    const auto& blk = recv[static_cast<std::size_t>(peer)];
    // Block conservation: each peer contributes exactly its rows_local x
    // cols_block band, two words per element — no truncation in alltoall.
    DVX_CHECK_EQ(blk.size(), block_words)
        << "transpose_mpi: peer " << peer << " block truncated. ";
    Complex* dst = out.data() + static_cast<std::int64_t>(peer) * rows_local;
    tiled(rows_local, cols_block, [&](std::int64_t r, std::int64_t cl) {
      const std::uint64_t* w = blk.data() + (r * cols_block + cl) * 2;
      dst[cl * rows + r] = Complex(std::bit_cast<double>(w[0]), std::bit_cast<double>(w[1]));
    });
  }
  co_await node.compute_stream(16.0 * static_cast<double>(out.size()));  // unpack pass
}

sim::Coro<void> transpose_dv(dvapi::DvContext& ctx, runtime::NodeCtx& node,
                             std::span<const Complex> local, std::int64_t rows,
                             std::int64_t cols, std::uint32_t dv_base, int counter,
                             std::vector<Complex>& out) {
  const int p = ctx.nodes();
  const int rank = ctx.rank();
  check_args(local, out, rows, cols, p);
  const std::int64_t rows_local = rows / p;
  const std::int64_t cols_block = cols / p;
  const std::int64_t in_words = cols_block * rows * 2;
  if (dv_base + static_cast<std::uint64_t>(in_words) > ctx.vic().memory().words()) {
    throw std::invalid_argument("transpose_dv: DV memory region out of range");
  }

  // Pipelined drain (the paper's "aggressive restructuring"): the incoming
  // region is split into up to kMaxGroups row groups, each completing on its
  // own sub-counter, so the host-bound DMA chases the arriving stream
  // instead of waiting for the whole transpose. Counters
  // [counter, counter + groups) are reserved for this call.
  const std::int64_t groups =
      std::clamp<std::int64_t>(in_words / 4096, 1, kTransposeGroups);
  const std::int64_t rows_per_group = (cols_block + groups - 1) / groups;
  auto group_of = [&](std::int64_t cl) { return static_cast<int>(cl / rows_per_group); };
  // Counters track REMOTE words only: this rank's own block never rides the
  // network (it is a host-side copy straight into the result).
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t g0 = g * rows_per_group;
    const std::int64_t g1 = std::min(cols_block, g0 + rows_per_group);
    co_await ctx.counter_set_local(
        counter + static_cast<int>(g),
        static_cast<std::uint64_t>((g1 - g0) * (rows - rows_local) * 2));
  }
  co_await ctx.barrier();

  // Scatter every element straight to its transposed slot on the owner VIC.
  // The header pattern is invocation-invariant -> cached headers, payload-only
  // PCIe traffic (send_dma_runs models exactly that): each local column bound
  // for an owner is one run of rows_local elements, contiguous in the
  // owner's DV memory.
  // Emission order matters twice: owners are visited in rank-rotated order
  // so the P concurrent scatters do not all hammer ejection port 0 first,
  // and columns (destination rows) go group-major so a receiver's first
  // sub-counter fires after ~1/groups of the stream — that is what lets the
  // drain DMA chase the arrivals.
  out.resize(static_cast<std::size_t>(cols_block * rows));
  std::vector<vic::Run> runs;
  runs.reserve(static_cast<std::size_t>((p - 1) * cols_block));
  // One scratch buffer serves the outgoing payload and then the drained
  // region; the payload is (P-1)/P of the region's size.
  const std::int64_t payload_words = rows_local * (cols - cols_block) * 2;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(in_words));
  const std::int64_t r0 = static_cast<std::int64_t>(rank) * rows_local;
  // Self block: a plain host copy, never on the wire.
  const Complex* self = local.data() + static_cast<std::int64_t>(rank) * cols_block;
  Complex* dst = out.data() + r0;
  tiled(rows_local, cols_block,
        [&](std::int64_t r, std::int64_t cl) { dst[cl * rows + r] = self[r * cols + cl]; });
  co_await node.compute_stream(16.0 * static_cast<double>(rows_local * cols_block));
  // Rotated owner-major emission: sender s reaches owner (s+shift)%p at
  // stream position (shift-1)/(p-1), so each receiver's p-1 incoming blocks
  // tile its ejection port back-to-back instead of queueing whole streams
  // behind one another. Within a block, columns ascend, so the receiver's
  // sub-counters fire in order as the final (latest-positioned) block lands.
  for (int shift = 1; shift < p; ++shift) {
    const int owner = (rank + shift) % p;
    for (std::int64_t cl = 0; cl < cols_block; ++cl) {
      runs.push_back(vic::Run{owner, counter + group_of(cl),
                              static_cast<std::uint32_t>(dv_base + (cl * rows + r0) * 2),
                              static_cast<std::uint32_t>(rows_local * 2)});
    }
    std::uint64_t* block = words.data() + (shift - 1) * cols_block * rows_local * 2;
    const Complex* src = local.data() + static_cast<std::int64_t>(owner) * cols_block;
    tiled(rows_local, cols_block, [&](std::int64_t r, std::int64_t cl) {
      std::memcpy(block + (cl * rows_local + r) * 2, src + r * cols + cl, sizeof(Complex));
    });
  }
  // Word conservation across the scatter: what this rank puts on the wire
  // (its rows minus the self block) must equal what each receiver's group
  // counters were armed for ((rows - rows_local) * cols_block words per
  // rank) — the sender- and receiver-side accountings of the same traffic.
  DVX_CHECK_EQ(static_cast<std::uint64_t>(payload_words),
               static_cast<std::uint64_t>((rows - rows_local) * cols_block * 2))
      << "transpose_dv: sender/receiver word accounting diverged. ";
  co_await ctx.send_dma_runs(
      runs, std::span<const std::uint64_t>(words.data(),
                                           static_cast<std::size_t>(payload_words)));

  // Drain group by group into the same buffer: every payload word reached
  // its destination's DV memory at its hand-off, so nothing reads them any
  // more.
  // Each read overlaps the later groups' arrivals.
  sim::Time last_read = ctx.engine().now();
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t g0 = g * rows_per_group;
    const std::int64_t g1 = std::min(cols_block, g0 + rows_per_group);
    co_await ctx.counter_wait_zero(counter + static_cast<int>(g));
    last_read = ctx.dma_read_dv_async(
        static_cast<std::uint32_t>(dv_base + g0 * rows * 2),
        std::span<std::uint64_t>(words.data() + g0 * rows * 2,
                                 static_cast<std::size_t>((g1 - g0) * rows * 2)));
  }
  co_await ctx.engine().resume_at(last_read);

  // Decode remote slots row by row; each output row's self columns
  // [r0, r0 + rows_local) were copied above.
  const auto decode = [&](std::int64_t begin, std::int64_t end) {
    for (auto i = static_cast<std::size_t>(begin); i < static_cast<std::size_t>(end); ++i) {
      out[i] = Complex(std::bit_cast<double>(words[2 * i]),
                       std::bit_cast<double>(words[2 * i + 1]));
    }
  };
  for (std::int64_t row = 0; row < cols_block * rows; row += rows) {
    decode(row, row + r0);
    decode(row + r0 + rows_local, row + rows);
  }
  co_await node.compute_stream(16.0 * static_cast<double>(out.size()));  // decode pass
}

}  // namespace dvx::apps

#include "apps/transpose.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "check/check.hpp"

namespace dvx::apps {

namespace {

void check_shape(std::size_t local_size, std::int64_t rows, std::int64_t cols, int ranks) {
  if (rows % ranks != 0 || cols % ranks != 0) {
    throw std::invalid_argument("transpose: the rank count must divide rows and cols");
  }
  if (static_cast<std::int64_t>(local_size) != rows / ranks * cols) {
    throw std::invalid_argument("transpose: local block size mismatch");
  }
}

}  // namespace

sim::Coro<std::vector<kernels::Complex>> transpose_mpi(
    mpi::Comm comm, runtime::NodeCtx& node, std::span<const kernels::Complex> local,
    std::int64_t rows, std::int64_t cols, int tag) {
  const int p = comm.size();
  check_shape(local.size(), rows, cols, p);
  const std::int64_t rows_local = rows / p;
  const std::int64_t cols_block = cols / p;

  // Pack: destination peer owns transposed rows [peer*cols_block, ...), i.e.
  // our columns in that band. Two words (re, im) per element.
  std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(p));
  for (int peer = 0; peer < p; ++peer) {
    auto& blk = send[static_cast<std::size_t>(peer)];
    blk.reserve(static_cast<std::size_t>(rows_local * cols_block * 2));
    for (std::int64_t r = 0; r < rows_local; ++r) {
      for (std::int64_t c = peer * cols_block; c < (peer + 1) * cols_block; ++c) {
        const auto& z = local[static_cast<std::size_t>(r * cols + c)];
        blk.push_back(std::bit_cast<std::uint64_t>(z.real()));
        blk.push_back(std::bit_cast<std::uint64_t>(z.imag()));
      }
    }
  }
  co_await node.compute_stream(16.0 * static_cast<double>(local.size()));  // pack pass

  auto recv = co_await comm.alltoall(std::move(send));
  (void)tag;

  // Unpack: out is cols_block x rows (row-major); the block from `peer`
  // holds elements (r_global = peer*rows_local + r, c_local).
  std::vector<kernels::Complex> out(
      static_cast<std::size_t>(cols_block * rows));
  for (int peer = 0; peer < p; ++peer) {
    const auto& blk = recv[static_cast<std::size_t>(peer)];
    // Block conservation: each peer contributes exactly its rows_local x
    // cols_block band, two words per element — no truncation in alltoall.
    DVX_CHECK_EQ(blk.size(), static_cast<std::size_t>(rows_local * cols_block * 2))
        << "transpose_mpi: peer " << peer << " block truncated. ";
    std::size_t idx = 0;
    for (std::int64_t r = 0; r < rows_local; ++r) {
      const std::int64_t gr = static_cast<std::int64_t>(peer) * rows_local + r;
      for (std::int64_t cl = 0; cl < cols_block; ++cl) {
        const double re = std::bit_cast<double>(blk[idx++]);
        const double im = std::bit_cast<double>(blk[idx++]);
        out[static_cast<std::size_t>(cl * rows + gr)] = kernels::Complex(re, im);
      }
    }
  }
  co_await node.compute_stream(16.0 * static_cast<double>(out.size()));  // unpack pass
  co_return out;
}

sim::Coro<std::vector<kernels::Complex>> transpose_dv(
    dvapi::DvContext& ctx, runtime::NodeCtx& node,
    std::span<const kernels::Complex> local, std::int64_t rows, std::int64_t cols,
    std::uint32_t dv_base, int counter) {
  const int p = ctx.nodes();
  const int rank = ctx.rank();
  check_shape(local.size(), rows, cols, p);
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
  std::vector<kernels::Complex> out(static_cast<std::size_t>(cols_block * rows));
  std::vector<vic::Run> runs;
  runs.reserve(static_cast<std::size_t>((p - 1) * cols_block));
  std::vector<std::uint64_t> payload;
  payload.reserve(static_cast<std::size_t>(rows_local * (cols - cols_block) * 2));
  const std::int64_t r0 = static_cast<std::int64_t>(rank) * rows_local;
  // Self block: a plain host copy, never on the wire.
  for (std::int64_t r = 0; r < rows_local; ++r) {
    for (std::int64_t cl = 0; cl < cols_block; ++cl) {
      out[static_cast<std::size_t>(cl * rows + (r0 + r))] =
          local[static_cast<std::size_t>(r * cols + rank * cols_block + cl)];
    }
  }
  co_await node.compute_stream(16.0 * static_cast<double>(rows_local * cols_block));
  // Rotated owner-major emission: sender s reaches owner (s+shift)%p at
  // stream position (shift-1)/(p-1), so each receiver's p-1 incoming blocks
  // tile its ejection port back-to-back instead of queueing whole streams
  // behind one another. Within a block, columns ascend, so the receiver's
  // sub-counters fire in order as the final (latest-positioned) block lands.
  for (int shift = 1; shift < p; ++shift) {
    const int owner = (rank + shift) % p;
    for (std::int64_t cl = 0; cl < cols_block; ++cl) {
      const std::int64_t c = static_cast<std::int64_t>(owner) * cols_block + cl;
      runs.push_back(vic::Run{owner, counter + group_of(cl),
                              static_cast<std::uint32_t>(dv_base + (cl * rows + r0) * 2),
                              static_cast<std::uint32_t>(rows_local * 2)});
      for (std::int64_t r = 0; r < rows_local; ++r) {
        const auto& z = local[static_cast<std::size_t>(r * cols + c)];
        payload.push_back(std::bit_cast<std::uint64_t>(z.real()));
        payload.push_back(std::bit_cast<std::uint64_t>(z.imag()));
      }
    }
  }
  // Word conservation across the scatter: what this rank puts on the wire
  // (its rows minus the self block) must equal what each receiver's group
  // counters were armed for ((rows - rows_local) * cols_block words per
  // rank) — the sender- and receiver-side accountings of the same traffic.
  DVX_CHECK_EQ(payload.size(),
               static_cast<std::size_t>(rows_local * (cols - cols_block) * 2))
      << "transpose_dv: scatter payload does not cover the remote blocks. ";
  DVX_CHECK_EQ(static_cast<std::uint64_t>(rows_local * (cols - cols_block) * 2),
               static_cast<std::uint64_t>((rows - rows_local) * cols_block * 2))
      << "transpose_dv: sender/receiver word accounting diverged. ";
  co_await ctx.send_dma_runs(runs, payload);

  // Drain group by group: each read overlaps the later groups' arrivals.
  std::vector<std::uint64_t> words(static_cast<std::size_t>(in_words));
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
      out[i] = kernels::Complex(std::bit_cast<double>(words[2 * i]),
                                std::bit_cast<double>(words[2 * i + 1]));
    }
  };
  for (std::int64_t row = 0; row < cols_block * rows; row += rows) {
    decode(row, row + r0);
    decode(row + r0 + rows_local, row + rows);
  }
  co_await node.compute_stream(16.0 * static_cast<double>(out.size()));  // decode pass
  co_return out;
}

}  // namespace dvx::apps

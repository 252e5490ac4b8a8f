#pragma once
// Distributed matrix transpose — the communication core of the FFT-1D
// benchmark and the pseudo-spectral vorticity solver (paper §VI/§VII).
//
// A rows x cols complex matrix is distributed by whole rows over P ranks
// (rows % P == 0, cols % P == 0). The transpose writes each rank's rows of
// the cols x rows result into `out`, storage the caller owns of exactly
// (cols/P)*rows elements, and overwrites every one of them without reading
// it first, so the transpose allocates no output and what `out` held before
// cannot move the result. Another size, or an `out` that shares storage with
// the input, throws std::invalid_argument before any word moves.
//
//  * MPI: pack per-destination sub-blocks, pairwise alltoall, unpack — the
//    standard approach; it pays two extra passes over the data (pack and
//    unpack) plus the alltoall's protocol costs.
//  * Data Vortex: every element is sent straight to its transposed location
//    in the destination VIC's DV memory ("the natural scatter/gather
//    capabilities of the network ... fold redistribution operations into the
//    communication"). The per-element headers form a fixed pattern across
//    invocations, so they are pre-cached in DV memory and only payload words
//    cross PCIe (the DMA/Cached path).

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "dvapi/context.hpp"
#include "kernels/fft.hpp"
#include "mpi/comm.hpp"
#include "runtime/node.hpp"

namespace dvx::apps {

/// Whether two buffers share storage.
bool overlap(std::span<const kernels::Complex> a, std::span<const kernels::Complex> b);

/// The per-peer word blocks an MPI transpose packs and its alltoall
/// returns.
using TransposeBlocks = std::vector<std::vector<std::uint64_t>>;

/// MPI distributed transpose; `local` holds this rank's rows/P rows.
/// `blocks` is caller-owned like `out`: the transpose packs into it and
/// leaves the blocks the alltoall returned in it, so a caller that passes
/// the same `blocks` to every call sizes them once.
sim::Coro<void> transpose_mpi(mpi::Comm comm, runtime::NodeCtx& node,
                              std::span<const kernels::Complex> local, std::int64_t rows,
                              std::int64_t cols, std::span<kernels::Complex> out,
                              TransposeBlocks& blocks);

/// Maximum row groups (and thus group counters) a DV transpose uses for its
/// pipelined receive-side drain.
inline constexpr int kTransposeGroups = 16;

/// Data Vortex distributed transpose through DV memory at `dv_base`.
/// Reserves group counters [counter, counter + kTransposeGroups) and needs
/// (cols/P)*rows*2 words of DV memory headroom at dv_base on every VIC.
/// `out` also stages the outgoing payload, so the call allocates no
/// buffer of its size.
sim::Coro<void> transpose_dv(dvapi::DvContext& ctx, runtime::NodeCtx& node,
                             std::span<const kernels::Complex> local, std::int64_t rows,
                             std::int64_t cols, std::uint32_t dv_base, int counter,
                             std::span<kernels::Complex> out);

}  // namespace dvx::apps

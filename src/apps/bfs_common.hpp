#pragma once
// Shared pieces of the two BFS implementations: the 1-D vertex-block
// distribution, per-rank adjacency construction, root selection, candidate
// encoding, and validation glue.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "kernels/csr.hpp"
#include "kernels/kronecker.hpp"

namespace dvx::apps::bfs_detail {

/// Owner map of the 1-D vertex-block distribution. Ranks and vertices are
/// both powers of two, so a vertex's owner rank and local index are a shift
/// and a mask, not a 64-bit divide.
struct BlockOwner {
  explicit BlockOwner(std::uint64_t verts_per_rank)
      : shift(std::countr_zero(verts_per_rank)), mask(verts_per_rank - 1) {}

  int rank(std::uint64_t v) const { return static_cast<int>(v >> shift); }
  std::uint64_t local(std::uint64_t v) const { return v & mask; }

  int shift;
  std::uint64_t mask;
};

/// Local adjacency: row_ptr over local vertices, neighbor ids are global.
struct LocalGraph {
  std::uint64_t verts_per_rank = 0;
  std::uint64_t first_vertex = 0;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint64_t> col;

  std::uint64_t local_verts() const { return row_ptr.size() - 1; }
  std::span<const std::uint64_t> neighbors(std::uint64_t local_v) const {
    return std::span<const std::uint64_t>(col.data() + row_ptr[local_v],
                                          col.data() + row_ptr[local_v + 1]);
  }
  std::uint64_t degree(std::uint64_t local_v) const {
    return row_ptr[local_v + 1] - row_ptr[local_v];
  }
};

/// Builds every rank's local adjacency from the deterministic generator.
std::vector<LocalGraph> build_distribution(const kernels::KroneckerParams& kp, int ranks);

/// Deterministic search roots with guaranteed nonzero degree.
std::vector<std::uint64_t> pick_roots(const kernels::KroneckerGenerator& gen, int count);

/// Candidate encoding: (vertex, proposed parent) packed into one word.
/// Valid for scale <= 31.
constexpr std::uint64_t pack_candidate(std::uint64_t v, std::uint64_t parent) {
  return (v << 32) | parent;
}
constexpr std::uint64_t candidate_vertex(std::uint64_t packed) { return packed >> 32; }
constexpr std::uint64_t candidate_parent(std::uint64_t packed) {
  return packed & 0xffffffffULL;
}

/// Sum over reached local vertices of their degrees (for the TEPS count:
/// traversed edges = sum/2 by the Graph500 convention).
std::uint64_t reached_degree_sum(const LocalGraph& g,
                                 const std::vector<std::uint64_t>& parent_local);

/// Validates a distributed parent tree (concatenated rank slices) against
/// the full graph; returns the empty string on success.
std::string validate_distributed(const kernels::KroneckerParams& kp, std::uint64_t root,
                                 const std::vector<std::vector<std::uint64_t>>& slices);

}  // namespace dvx::apps::bfs_detail

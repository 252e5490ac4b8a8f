#pragma once
// Graph500-style breadth-first search (paper §VI, Fig. 8).
//
// A Kronecker graph (power-law degrees) is distributed over the cluster by
// contiguous vertex blocks; `searches` BFS runs from random roots are timed
// and reported as harmonic-mean TEPS, the Graph500 headline metric.
//
//  * MPI: level-synchronous BFS with per-destination candidate buckets
//    exchanged via alltoall — destination aggregation, the only viable
//    strategy over InfiniBand, but the buckets are small and skewed.
//  * Data Vortex: candidates stream to owners' surprise FIFOs as single
//    8-byte packets in mixed-destination DMA batches; receivers drain their
//    FIFO while still sending ("source aggregation is sufficient to hide
//    most PCIe latency").
//
// As in Graph500, the graph is built once (`build_bfs_graph`) and then
// searched: both runners take the built graph, so the two networks search
// one graph and a sweep builds each graph once (the fig8 workload's memo).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"

namespace dvx::apps {

struct BfsParams {
  int scale = 15;        ///< 2^scale vertices
  int edge_factor = 16;  ///< Graph500 default
  int searches = 8;      ///< paper runs 64; scaled down by default
  std::uint64_t seed = 2;
  bool validate = false;  ///< Graph500-validate the last search's tree
};

struct BfsResult {
  std::vector<double> teps;  ///< per-search traversed edges per second
  double harmonic_mean_teps = 0.0;
  std::uint64_t graph_edges = 0;
  bool validated = false;    ///< true when validation ran and passed
  std::string validation_error;  ///< empty unless validation failed
};

namespace bfs_detail {

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

}  // namespace bfs_detail

/// One Kronecker graph distributed by vertex blocks: the parameters it was
/// built from and one adjacency per rank. Immutable once built, so any
/// number of searches, on either network, may share it.
struct BfsGraph {
  int scale = 0;
  int edge_factor = 0;
  std::uint64_t seed = 0;
  std::vector<bfs_detail::LocalGraph> ranks;
};

/// Builds the graph of `params`' scale, edge factor and seed over `ranks`
/// ranks. Throws std::invalid_argument unless `ranks` is a power of two
/// dividing the vertex count.
BfsGraph build_bfs_graph(const BfsParams& params, int ranks);

/// Both runners search `graph` from `params.searches` roots. They throw
/// std::invalid_argument when `graph` was built for another rank count than
/// cluster.nodes(), or for another scale, edge factor or seed than `params`.
BfsResult run_bfs_dv(runtime::Cluster& cluster, const BfsParams& params,
                     const BfsGraph& graph);
BfsResult run_bfs_mpi(runtime::Cluster& cluster, const BfsParams& params,
                      const BfsGraph& graph);

}  // namespace dvx::apps

// Graph500 BFS over MPI/InfiniBand: level-synchronous expansion with
// per-destination candidate buckets exchanged through alltoall — the
// destination-aggregation strategy the paper's reference code uses.

#include "apps/bfs.hpp"
#include "apps/bfs_common.hpp"
#include "sim/stats.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
namespace kernels = dvx::kernels;
using bfs_detail::LocalGraph;

BfsResult run_bfs_mpi(runtime::Cluster& cluster, const BfsParams& params) {
  const int p = cluster.nodes();
  const kernels::KroneckerParams kp{.scale = params.scale,
                                    .edge_factor = params.edge_factor,
                                    .seed = params.seed};
  kernels::KroneckerGenerator gen(kp);
  const auto graphs = bfs_detail::build_distribution(kp, p);
  const auto roots = bfs_detail::pick_roots(gen, params.searches);
  const bfs_detail::BlockOwner own(graphs.front().verts_per_rank);

  std::vector<sim::Time> search_marks;  // rank-0 timestamps around searches
  std::vector<std::uint64_t> reached_sums(roots.size(), 0);
  std::vector<std::vector<std::uint64_t>> last_parents(static_cast<std::size_t>(p));

  cluster.run_mpi([&](mpi::Comm comm, runtime::NodeCtx& node) -> sim::Coro<void> {
    const auto& g = graphs[static_cast<std::size_t>(comm.rank())];
    co_await comm.barrier();
    node.roi_begin();
    for (std::size_t search = 0; search < roots.size(); ++search) {
      const std::uint64_t root = roots[search];
      if (comm.rank() == 0) search_marks.push_back(node.now());

      std::vector<std::uint64_t> parent(g.local_verts(), kernels::kNoParent);
      std::vector<std::uint64_t> frontier;  // local vertex ids
      if (own.rank(root) == comm.rank()) {
        parent[own.local(root)] = root;
        frontier.push_back(own.local(root));
      }

      for (;;) {
        // Expand: bucket candidates by owner (destination aggregation).
        std::vector<std::vector<std::uint64_t>> buckets(static_cast<std::size_t>(p));
        std::uint64_t edges_scanned = 0;
        for (std::uint64_t lv : frontier) {
          const std::uint64_t gu = g.first_vertex + lv;
          for (std::uint64_t w : g.neighbors(lv)) {
            buckets[static_cast<std::size_t>(own.rank(w))].push_back(
                bfs_detail::pack_candidate(w, gu));
            ++edges_scanned;
          }
        }
        co_await node.compute_stream(16.0 * static_cast<double>(edges_scanned));

        auto incoming = co_await comm.alltoall(std::move(buckets));

        // Contract: claim unvisited vertices.
        std::vector<std::uint64_t> next;
        std::uint64_t candidates = 0;
        for (const auto& blk : incoming) {
          for (std::uint64_t packed : blk) {
            ++candidates;
            const std::uint64_t w = own.local(bfs_detail::candidate_vertex(packed));
            if (parent[w] == kernels::kNoParent) {
              parent[w] = bfs_detail::candidate_parent(packed);
              next.push_back(w);
            }
          }
        }
        co_await node.compute_random(static_cast<double>(candidates));

        const auto total_next =
            co_await comm.allreduce_sum(static_cast<std::uint64_t>(next.size()));
        frontier = std::move(next);
        if (total_next == 0) break;
      }

      const auto reached = co_await comm.allreduce_sum(
          bfs_detail::reached_degree_sum(g, parent));
      if (comm.rank() == 0) {
        search_marks.push_back(node.now());
        reached_sums[search] = reached;
      }
      if (params.validate && search + 1 == roots.size()) {
        last_parents[static_cast<std::size_t>(comm.rank())] = std::move(parent);
      }
    }
    node.roi_end();
  });

  BfsResult result;
  result.graph_edges = gen.edges();
  for (std::size_t search = 0; search < roots.size(); ++search) {
    const auto dt = search_marks[2 * search + 1] - search_marks[2 * search];
    const double traversed = static_cast<double>(reached_sums[search]) / 2.0;
    result.teps.push_back(traversed / sim::to_seconds(dt));
  }
  result.harmonic_mean_teps = sim::harmonic_mean(result.teps);
  if (params.validate) {
    result.validation_error =
        bfs_detail::validate_distributed(kp, roots.back(), last_parents);
    result.validated = result.validation_error.empty();
  }
  return result;
}

}  // namespace dvx::apps

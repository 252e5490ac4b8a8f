// Graph500 BFS on the Data Vortex: candidates stream to the owner's
// surprise FIFO as single 8-byte packets in mixed-destination DMA batches;
// the receiver drains its FIFO concurrently with its own expansion. Only
// "source aggregation" is needed — no per-destination buckets.

#include "apps/bfs.hpp"
#include "apps/bfs_common.hpp"
#include "check/check.hpp"
#include "dvapi/collectives.hpp"
#include "sim/stats.hpp"

namespace dvx::apps {

namespace sim = dvx::sim;
namespace kernels = dvx::kernels;
using bfs_detail::LocalGraph;

BfsResult run_bfs_dv(runtime::Cluster& cluster, const BfsParams& params) {
  const int p = cluster.nodes();
  const kernels::KroneckerParams kp{.scale = params.scale,
                                    .edge_factor = params.edge_factor,
                                    .seed = params.seed};
  kernels::KroneckerGenerator gen(kp);
  const auto graphs = bfs_detail::build_distribution(kp, p);
  const auto roots = bfs_detail::pick_roots(gen, params.searches);
  const bfs_detail::BlockOwner own(graphs.front().verts_per_rank);

  std::vector<sim::Time> search_marks;
  std::vector<std::uint64_t> reached_sums(roots.size(), 0);
  std::vector<std::vector<std::uint64_t>> last_parents(static_cast<std::size_t>(p));

  cluster.run_dv([&](dvapi::DvContext& ctx, runtime::NodeCtx& node) -> sim::Coro<void> {
    const auto& g = graphs[static_cast<std::size_t>(ctx.rank())];
    co_await ctx.barrier();
    node.roi_begin();
    for (std::size_t search = 0; search < roots.size(); ++search) {
      const std::uint64_t root = roots[search];
      if (ctx.rank() == 0) search_marks.push_back(node.now());

      std::vector<std::uint64_t> parent(g.local_verts(), kernels::kNoParent);
      std::vector<std::uint64_t> frontier;
      if (own.rank(root) == ctx.rank()) {
        parent[own.local(root)] = root;
        frontier.push_back(own.local(root));
      }

      for (;;) {
        std::vector<std::uint64_t> next;
        auto absorb = [&](std::uint64_t packed) {
          const std::uint64_t w = own.local(bfs_detail::candidate_vertex(packed));
          if (parent[w] == kernels::kNoParent) {
            parent[w] = bfs_detail::candidate_parent(packed);
            next.push_back(w);
          }
        };

        // Expand: one packet per remote candidate, any destination order.
        std::vector<std::uint64_t> sent_to(static_cast<std::size_t>(p), 0);
        std::vector<vic::Packet> batch;
        std::uint64_t edges_scanned = 0;
        std::uint64_t local_candidates = 0;
        std::uint64_t received = 0;
        for (std::uint64_t lv : frontier) {
          const std::uint64_t gu = g.first_vertex + lv;
          for (std::uint64_t w : g.neighbors(lv)) {
            ++edges_scanned;
            const int owner = own.rank(w);
            const std::uint64_t packed = bfs_detail::pack_candidate(w, gu);
            if (owner == ctx.rank()) {
              absorb(packed);
              ++local_candidates;
              continue;
            }
            ++sent_to[static_cast<std::size_t>(owner)];
            batch.push_back(
                vic::Packet{vic::Header{static_cast<std::uint16_t>(owner),
                                        vic::DestKind::kFifo, vic::kNoCounter, 0},
                            packed});
          }
          // Interleave: drain whatever has already landed.
          if (batch.size() >= 4096) {
            co_await ctx.send_dma_batch(batch);
            batch.clear();
            for (const auto& pkt : co_await ctx.fifo_poll()) {
              absorb(pkt.payload);
              ++received;
            }
          }
        }
        co_await node.compute_stream(8.0 * static_cast<double>(edges_scanned));
        co_await node.compute_random(static_cast<double>(local_candidates));
        co_await ctx.send_dma_batch(batch);

        // Termination: learn per-peer counts, drain the remainder.
        auto counts = co_await dvapi::alltoall_words(ctx, sent_to);
        std::uint64_t expected = 0;
        for (int peer = 0; peer < p; ++peer) {
          if (peer != ctx.rank()) expected += counts[static_cast<std::size_t>(peer)];
        }
        DVX_CHECK(received <= expected)
            << "candidates received before the counts were exchanged exceed "
               "the announced total. ";
        while (received < expected) {
          const auto pkts = co_await ctx.fifo_wait();
          for (const auto& pkt : pkts) absorb(pkt.payload);
          received += pkts.size();
        }
        // Candidate conservation per BFS level: every remote candidate aimed
        // at this rank arrived exactly once, none were fabricated.
        DVX_CHECK_EQ(received, expected) << "BFS candidate conservation violated. ";
        co_await node.compute_random(static_cast<double>(received));

        const auto total_next = co_await dvapi::allreduce_sum(
            ctx, static_cast<std::uint64_t>(next.size()));
        frontier = std::move(next);
        if (total_next == 0) break;
      }

      const auto reached = co_await dvapi::allreduce_sum(
          ctx, bfs_detail::reached_degree_sum(g, parent));
      if (ctx.rank() == 0) {
        search_marks.push_back(node.now());
        reached_sums[search] = reached;
      }
      if (params.validate && search + 1 == roots.size()) {
        last_parents[static_cast<std::size_t>(ctx.rank())] = std::move(parent);
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

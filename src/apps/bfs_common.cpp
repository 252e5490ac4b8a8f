#include "apps/bfs_common.hpp"

#include <bit>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/stats.hpp"

namespace dvx::apps {

BfsGraph build_bfs_graph(const BfsParams& params, int ranks) {
  return BfsGraph{
      params.scale, params.edge_factor, params.seed,
      bfs_detail::build_distribution(bfs_detail::kronecker_params(params), ranks)};
}

}  // namespace dvx::apps

namespace dvx::apps::bfs_detail {

kernels::KroneckerParams kronecker_params(const BfsParams& params) {
  return {.scale = params.scale, .edge_factor = params.edge_factor, .seed = params.seed};
}

std::vector<LocalGraph> build_distribution(const kernels::KroneckerParams& kp, int ranks) {
  if (!std::has_single_bit(static_cast<unsigned>(ranks))) {
    throw std::invalid_argument("bfs: rank count must be a power of two");
  }
  kernels::KroneckerGenerator gen(kp);
  const std::uint64_t verts = gen.vertices();
  if (verts % static_cast<std::uint64_t>(ranks) != 0) {
    throw std::invalid_argument("bfs: vertices must divide rank count");
  }
  const std::uint64_t vpr = verts / static_cast<std::uint64_t>(ranks);
  const BlockOwner own(vpr);
  auto owner = [&](std::uint64_t v) { return static_cast<std::size_t>(own.rank(v)); };

  // Generate the edge list once. The degree-count pass and the fill pass
  // both walk it in edge-index order, so each neighbour list keeps that
  // order. The 16 B/edge buffer is freed on return.
  const std::vector<kernels::Edge> edges = gen.slice(0, gen.edges());

  std::vector<LocalGraph> out(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    out[static_cast<std::size_t>(r)].verts_per_rank = vpr;
    out[static_cast<std::size_t>(r)].first_vertex = static_cast<std::uint64_t>(r) * vpr;
    out[static_cast<std::size_t>(r)].row_ptr.assign(vpr + 1, 0);
  }
  for (const kernels::Edge& e : edges) {
    if (e.u == e.v) continue;
    ++out[owner(e.u)].row_ptr[own.local(e.u) + 1];
    ++out[owner(e.v)].row_ptr[own.local(e.v) + 1];
  }
  for (auto& g : out) {
    for (std::uint64_t v = 0; v < vpr; ++v) g.row_ptr[v + 1] += g.row_ptr[v];
    g.col.resize(g.row_ptr[vpr]);
  }
  std::vector<std::vector<std::uint64_t>> cursor(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& g = out[static_cast<std::size_t>(r)];
    cursor[static_cast<std::size_t>(r)].assign(g.row_ptr.begin(), g.row_ptr.end() - 1);
  }
  for (const kernels::Edge& e : edges) {
    if (e.u == e.v) continue;
    out[owner(e.u)].col[cursor[owner(e.u)][own.local(e.u)]++] = e.v;
    out[owner(e.v)].col[cursor[owner(e.v)][own.local(e.v)]++] = e.u;
  }
  return out;
}

std::vector<std::uint64_t> pick_roots(const kernels::KroneckerGenerator& gen, int count) {
  std::vector<std::uint64_t> roots;
  std::set<std::uint64_t> seen;
  std::uint64_t probe = 0;
  while (static_cast<int>(roots.size()) < count) {
    // Give up after 4 x edges probes, before the next one, so a graph with
    // fewer distinct non-loop sources than `count` throws instead of spinning.
    if (probe >= gen.edges() * 4) {
      throw std::runtime_error("bfs: could not find enough distinct roots");
    }
    const auto e = gen.edge((probe * 2654435761ULL + 17) % gen.edges());
    ++probe;
    if (e.u == e.v) continue;  // needs an incident non-loop edge
    if (!seen.insert(e.u).second) continue;
    roots.push_back(e.u);
  }
  return roots;
}

std::uint64_t reached_degree_sum(const LocalGraph& g,
                                 const std::vector<std::uint64_t>& parent_local) {
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < g.local_verts(); ++v) {
    if (parent_local[v] != kernels::kNoParent) sum += g.degree(v);
  }
  return sum;
}

std::string validate_distributed(const kernels::KroneckerParams& kp, std::uint64_t root,
                                 const std::vector<std::vector<std::uint64_t>>& slices) {
  kernels::KroneckerGenerator gen(kp);
  const auto edges = gen.slice(0, gen.edges());
  kernels::Csr full(gen.vertices(), edges);
  std::vector<std::uint64_t> parent;
  parent.reserve(gen.vertices());
  for (const auto& s : slices) parent.insert(parent.end(), s.begin(), s.end());
  if (parent.size() != gen.vertices()) return "concatenated parent size mismatch";
  return kernels::validate_bfs(full, root, parent);
}

namespace {

const BfsGraph& checked(int nodes, const BfsParams& params, const BfsGraph& graph) {
  if (graph.ranks.size() != static_cast<std::size_t>(nodes)) {
    throw std::invalid_argument("bfs: graph was built for " +
                                std::to_string(graph.ranks.size()) + " ranks, not " +
                                std::to_string(nodes));
  }
  if (graph.scale != params.scale || graph.edge_factor != params.edge_factor ||
      graph.seed != params.seed) {
    throw std::invalid_argument(
        "bfs: graph was built for another scale, edge factor or seed");
  }
  return graph;
}

}  // namespace

Searches::Searches(int nodes, const BfsParams& search_params, const BfsGraph& built)
    : params(search_params),
      graph(checked(nodes, search_params, built)),
      kp(kronecker_params(search_params)),
      roots(pick_roots(kernels::KroneckerGenerator(kp), search_params.searches)),
      own(graph.ranks.front().verts_per_rank),
      reached_(roots.size(), 0),
      last_parents_(static_cast<std::size_t>(nodes)) {}

void Searches::begin(int rank, sim::Time now) {
  if (rank == 0) marks_.push_back(now);
}

void Searches::end(int rank, std::size_t search, sim::Time now, std::uint64_t reached,
                   std::vector<std::uint64_t>&& parent) {
  if (rank == 0) {
    marks_.push_back(now);
    reached_[search] = reached;
  }
  if (params.validate && search + 1 == roots.size()) {
    last_parents_[static_cast<std::size_t>(rank)] = std::move(parent);
  }
}

BfsResult Searches::result() const {
  BfsResult result;
  result.graph_edges = kernels::KroneckerGenerator(kp).edges();
  for (std::size_t search = 0; search < roots.size(); ++search) {
    const auto dt = marks_[2 * search + 1] - marks_[2 * search];
    const double traversed = static_cast<double>(reached_[search]) / 2.0;
    result.teps.push_back(traversed / sim::to_seconds(dt));
  }
  result.harmonic_mean_teps = sim::harmonic_mean(result.teps);
  if (params.validate) {
    result.validation_error = validate_distributed(kp, roots.back(), last_parents_);
    result.validated = result.validation_error.empty();
  }
  return result;
}

}  // namespace dvx::apps::bfs_detail

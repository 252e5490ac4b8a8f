#include "apps/bfs_common.hpp"

#include <bit>
#include <set>
#include <stdexcept>

namespace dvx::apps::bfs_detail {

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
  // Ranks and vertices are both powers of two, so the owner rank and the
  // local index of a vertex are a shift and a mask, not a 64-bit divide.
  const int vpr_shift = std::countr_zero(vpr);
  const std::uint64_t vpr_mask = vpr - 1;

  // Per-rank degree count pass, then fill pass.
  std::vector<LocalGraph> out(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    out[static_cast<std::size_t>(r)].verts_per_rank = vpr;
    out[static_cast<std::size_t>(r)].first_vertex = static_cast<std::uint64_t>(r) * vpr;
    out[static_cast<std::size_t>(r)].row_ptr.assign(vpr + 1, 0);
  }
  const std::uint64_t ne = gen.edges();
  auto owner = [&](std::uint64_t v) { return static_cast<std::size_t>(v >> vpr_shift); };
  for (std::uint64_t i = 0; i < ne; ++i) {
    const auto e = gen.edge(i);
    if (e.u == e.v) continue;
    ++out[owner(e.u)].row_ptr[(e.u & vpr_mask) + 1];
    ++out[owner(e.v)].row_ptr[(e.v & vpr_mask) + 1];
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
  for (std::uint64_t i = 0; i < ne; ++i) {
    const auto e = gen.edge(i);
    if (e.u == e.v) continue;
    {
      auto& g = out[owner(e.u)];
      auto& c = cursor[owner(e.u)];
      g.col[c[e.u & vpr_mask]++] = e.v;
    }
    {
      auto& g = out[owner(e.v)];
      auto& c = cursor[owner(e.v)];
      g.col[c[e.v & vpr_mask]++] = e.u;
    }
  }
  return out;
}

std::vector<std::uint64_t> pick_roots(const kernels::KroneckerGenerator& gen, int count) {
  std::vector<std::uint64_t> roots;
  std::set<std::uint64_t> seen;
  std::uint64_t probe = 0;
  while (static_cast<int>(roots.size()) < count) {
    const auto e = gen.edge((probe * 2654435761ULL + 17) % gen.edges());
    ++probe;
    if (e.u == e.v) continue;  // needs an incident non-loop edge
    if (!seen.insert(e.u).second) continue;
    roots.push_back(e.u);
    if (probe > gen.edges() * 4) {
      throw std::runtime_error("bfs: could not find enough distinct roots");
    }
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

}  // namespace dvx::apps::bfs_detail

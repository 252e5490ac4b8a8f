#include "ib/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace dvx::ib {

namespace {

int leaves_for(int nodes, const IbParams& params) {
  // Refused here, not in the constructor body: the link count is computed
  // from it before the base class exists.
  if (params.nodes_per_leaf <= 0) {
    throw std::invalid_argument("ib::Fabric: nodes_per_leaf must be positive");
  }
  return (nodes + params.nodes_per_leaf - 1) / params.nodes_per_leaf;
}

// Full-bisection two-level tree: one spine per leaf down-port would be
// non-blocking; real deployments taper. Use half as many spines as leaf
// down-ports (2:1 oversubscription) with at least one spine.
int spines_for(int leaves, const IbParams& params) {
  return leaves > 1 ? std::max(1, params.nodes_per_leaf / 2) : 0;
}

std::size_t link_count(int nodes, const IbParams& params) {
  const int leaves = leaves_for(nodes, params);
  return static_cast<std::size_t>(2 * nodes) +
         static_cast<std::size_t>(leaves) *
             static_cast<std::size_t>(std::max(spines_for(leaves, params), 1)) * 2;
}

}  // namespace

Fabric::Fabric(int nodes, IbParams params)
    : net::Interconnect(nodes, link_count(nodes, params), params.link),
      params_(params),
      spines_(spines_for(leaves_for(nodes, params), params)) {}

int Fabric::path_links(int src, int dst) const {
  if (src < 0 || src >= nodes() || dst < 0 || dst >= nodes()) {
    throw std::out_of_range("ib::Fabric::path_links: node out of range");
  }
  if (src == dst) return 0;
  return leaf_of(src) == leaf_of(dst) ? 2 : 4;
}

sim::Duration Fabric::route(int src, int dst, std::vector<std::size_t>& path) {
  const int src_leaf = leaf_of(src);
  const int dst_leaf = leaf_of(dst);
  // Static (destination-based) routing: flows to the same destination pick
  // the same spine, which is exactly what creates fat-tree hotspots.
  const int spine = spines_ > 0 ? dst % spines_ : 0;
  path.push_back(up_link(src));
  if (src_leaf != dst_leaf) {
    path.push_back(leaf_spine(src_leaf, spine));
    path.push_back(spine_leaf(dst_leaf, spine));
  }
  path.push_back(down_link(dst));
  return params_.switch_hop * static_cast<sim::Duration>(path.size() - 1);
}

}  // namespace dvx::ib

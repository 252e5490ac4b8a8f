#pragma once
// FDR InfiniBand fabric model: a two-level fat-tree with static routing.
//
// This is the reference network the paper compares against (§IV, §VIII):
//   * FDR 4x: 54.54 Gb/s signalling, ~6.8 GB/s usable per port — but multi-KB
//     messages are needed to approach it (packet-formation overheads), and
//     even the best devices top out near 100 M messages/s;
//   * fat-tree + static routing: concurrent flows that hash onto the same
//     up/down link contend (Hoefler et al., "Multistage switches are not
//     crossbars"), which is what hurts unstructured traffic;
//   * per-chunk NIC processing keeps large-transfer efficiency near the ~72%
//     of peak the paper measures at 256 Ki words.
//
// The timing itself is net::Interconnect's link model; this class supplies
// only the fat-tree's static route.

#include <cstdint>
#include <vector>

#include "net/interconnect.hpp"
#include "sim/time.hpp"

namespace dvx::ib {

struct IbParams {
  /// NIC constants; 6.8 GB/s usable per FDR 4x port.
  net::LinkParams link{.link_bw = 6.8e9};
  sim::Duration switch_hop = sim::ns(110);  ///< per-switch latency
  int nodes_per_leaf = 8;                   ///< down ports per leaf switch
};

class Fabric final : public net::Interconnect {
 public:
  explicit Fabric(int nodes, IbParams params = {});

  /// Number of links on the static route src -> dst: 2 within a leaf,
  /// 4 across leaves (up, leaf->spine, spine->leaf, down), 0 loopback.
  int path_links(int src, int dst) const override;

 protected:
  /// Static (destination-based) route; every switch after the first link
  /// adds switch_hop.
  sim::Duration route(int src, int dst, std::vector<std::size_t>& path) override;

 private:
  int leaf_of(int node) const noexcept { return node / params_.nodes_per_leaf; }

  // Link bank layout: [0, nodes)                node->leaf (up)
  //                   [nodes, 2*nodes)          leaf->node (down)
  //                   then per (leaf, spine): leaf->spine, spine->leaf.
  std::size_t up_link(int node) const { return static_cast<std::size_t>(node); }
  std::size_t down_link(int node) const {
    return static_cast<std::size_t>(nodes() + node);
  }
  std::size_t leaf_spine(int leaf, int spine) const {
    return static_cast<std::size_t>(2 * nodes() + (leaf * spines_ + spine) * 2);
  }
  std::size_t spine_leaf(int leaf, int spine) const {
    return leaf_spine(leaf, spine) + 1;
  }

  IbParams params_;
  int spines_;
};

}  // namespace dvx::ib

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
// Like the Data Vortex FabricModel, this is pure timing math over per-link
// next-free times, with messages chunked at MTU granularity so concurrent
// flows interleave; the MPI world calls it when it issues each transfer, so
// call times are nondecreasing. It is one implementation of the
// net::Interconnect seam the MPI runtime is built on.

#include <cstdint>
#include <vector>

#include "net/interconnect.hpp"
#include "sim/time.hpp"

namespace dvx::ib {

struct IbParams {
  double link_bw = 6.8e9;              ///< usable bytes/s per FDR 4x port
  std::int64_t mtu = 4096;             ///< chunk granularity
  sim::Duration chunk_overhead = sim::ns(190);  ///< NIC per-chunk processing
  sim::Duration switch_hop = sim::ns(110);      ///< per-switch latency
  sim::Duration wire_latency = sim::ns(500);    ///< NIC-to-NIC base (PCIe+serdes)
  double msg_rate = 100e6;             ///< NIC message-rate cap (msgs/s)
  double memcpy_bw = 8.0e9;            ///< host copy bandwidth (loopback, eager copies)
  int nodes_per_leaf = 8;              ///< down ports per leaf switch
};

using MsgTiming = net::MsgTiming;

// Loopback sends return before reaching the link/NIC ledgers.
class Fabric final : public net::Interconnect {
 public:
  explicit Fabric(int nodes, IbParams params = {});

  int nodes() const noexcept override { return nodes_; }
  const IbParams& params() const noexcept { return params_; }

  /// Number of links on the static route src -> dst: 2 within a leaf,
  /// 4 across leaves (up, leaf->spine, spine->leaf, down), 0 loopback.
  int path_links(int src, int dst) const;

  /// Moves `bytes` from `src` to `dst`, first byte injectable at `ready`.
  /// Chunks at MTU, serializes on every link of the statically routed path,
  /// and enforces the NIC message-rate gap. src == dst is a host memcpy.
  MsgTiming send_message(int src, int dst, std::int64_t bytes,
                         sim::Time ready) override;

  /// Total bytes offered to the fabric so far (diagnostics).
  std::int64_t bytes_sent() const noexcept override {
    return bytes_sent_;
  }

  void reset() override;

 private:
  int leaf_of(int node) const noexcept { return node / params_.nodes_per_leaf; }

  // Link bank layout: [0, nodes)                node->leaf (up)
  //                   [nodes, 2*nodes)          leaf->node (down)
  //                   then per (leaf, spine): leaf->spine, spine->leaf.
  std::size_t up_link(int node) const { return static_cast<std::size_t>(node); }
  std::size_t down_link(int node) const {
    return static_cast<std::size_t>(nodes_ + node);
  }
  std::size_t leaf_spine(int leaf, int spine) const {
    return static_cast<std::size_t>(2 * nodes_ + (leaf * spines_ + spine) * 2);
  }
  std::size_t spine_leaf(int leaf, int spine) const {
    return leaf_spine(leaf, spine) + 1;
  }

  int nodes_;
  IbParams params_;
  int leaves_;
  int spines_;
  std::vector<sim::Time> link_free_;
  std::vector<sim::Time> nic_gate_;  ///< message-rate gate per NIC
  std::int64_t bytes_sent_ = 0;
};

}  // namespace dvx::ib

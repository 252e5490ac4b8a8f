#pragma once
// 3D-torus fabric model: dimension-order routing over per-link next-free
// times.
//
// This is the third network point between Data Vortex deflection routing and
// the InfiniBand fat-tree (ROADMAP item 4). Parameters follow APEnet+
// (arXiv:1102.3796) and the INFN FPGA-based Torus Communication Network
// (arXiv:1102.2346): a 3D torus of point-to-point links, ~34 Gb/s raw per
// link direction (~3 GB/s usable), and a per-hop router latency in the
// 100–200 ns range. What distinguishes it from both paper fabrics:
//
//   * distance matters — latency and link occupancy scale with the
//     wraparound Manhattan distance, where the fat-tree is distance-flat
//     (2 vs 4 links) and DV pays per deflection, not per hop;
//   * dimension-order routing is static and minimal — no path diversity, so
//     irregular traffic that funnels through a link serializes there, but
//     nearest-neighbour traffic never leaves its dimension.
//
// Like ib::Fabric this is pure timing math: messages chunk at MTU
// granularity, serialize on every directed link of the dimension-order
// path, and pay a NIC message-rate gap. It implements net::Interconnect, so
// mpi::MpiWorld runs over it unchanged.

#include <array>
#include <cstdint>
#include <vector>

#include "net/interconnect.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dvx::torus {

struct TorusParams {
  /// Grid dimensions (X, Y, Z). All zero (the default) derives a near-cubic
  /// factorization of the node count; if set, the product must equal it.
  std::array<int, 3> dims = {0, 0, 0};
  double link_bw = 3.0e9;              ///< usable bytes/s per directed link (APEnet+ ~34 Gb/s raw)
  std::int64_t mtu = 4096;             ///< chunk granularity
  sim::Duration chunk_overhead = sim::ns(190);  ///< NIC per-chunk processing
  sim::Duration hop_latency = sim::ns(150);     ///< per-router forwarding latency
  sim::Duration wire_latency = sim::ns(500);    ///< NIC-to-NIC base (PCIe+serdes)
  double msg_rate = 100e6;             ///< NIC message-rate cap (msgs/s)
  double memcpy_bw = 8.0e9;            ///< host copy bandwidth (loopback)
};

using MsgTiming = net::MsgTiming;

// The link/NIC ledgers, conservation counters and obs instruments are
// touched only from the window-close resolution (MpiWorld::resolve_window,
// DESIGN.md §15); loopback sends return before reaching them.
class Fabric final : public net::Interconnect {
 public:
  explicit Fabric(int nodes, TorusParams params = {});

  int nodes() const noexcept override { return nodes_; }
  const TorusParams& params() const noexcept { return params_; }
  /// Resolved grid dimensions (params().dims with zeros factorized).
  const std::array<int, 3>& dims() const noexcept { return dims_; }

  /// Grid coordinates of `node` (x fastest-varying).
  std::array<int, 3> coords(int node) const;
  /// Node id at grid coordinates (inverse of coords()).
  int node_at(int x, int y, int z) const;

  /// Shortest-wraparound hop count per dimension for src -> dst.
  std::array<int, 3> dim_hops(int src, int dst) const;
  /// Total wraparound Manhattan distance (sum of dim_hops), the number of
  /// links a dimension-order-routed message traverses.
  int hops(int src, int dst) const;

  /// Moves `bytes` from `src` to `dst`, first byte injectable at `ready`.
  /// Routes dimension-order (X, then Y, then Z), taking the shortest
  /// wraparound direction per dimension (ties go positive, so routing is
  /// deterministic), chunks at MTU, and serializes on every directed link
  /// of the path. src == dst is a host memcpy.
  MsgTiming send_message(int src, int dst, std::int64_t bytes,
                         sim::Time ready) override;

  /// Total bytes offered to the fabric so far (diagnostics).
  std::int64_t bytes_sent() const noexcept override {
    return bytes_sent_;
  }

  /// Total bytes serialized across all directed links. Conservation: equals
  /// the sum over messages of bytes * hops(src, dst); audited at check
  /// level 2 and exposed for the property tests.
  std::int64_t link_bytes() const noexcept { return link_bytes_; }

  void reset() override;

  /// Conservative cross-node latency bound (net::Interconnect contract):
  /// every remote message pays the NIC-to-NIC wire latency plus at least
  /// one router forwarding delay before it can arrive anywhere.
  sim::Duration lookahead() const noexcept override {
    return params_.wire_latency + params_.hop_latency;
  }

  // Directed links: 6 per node, ordered +x, -x, +y, -y, +z, -z. Public so
  // the routing property tests can name exact links on the expected path.
  std::size_t link_id(int node, int dim, bool positive) const {
    return static_cast<std::size_t>(node) * 6 +
           static_cast<std::size_t>(2 * dim + (positive ? 0 : 1));
  }
  /// Appends the dimension-order route src -> dst to `path` as directed
  /// link ids. Deterministic: each dimension takes the shortest wraparound
  /// direction, and the even-extent tie (distance exactly dims[d]/2 both
  /// ways) always routes positive. Public for the test that pins that.
  void build_path(int src, int dst, std::vector<std::size_t>& path) const;

 private:

  int nodes_;
  TorusParams params_;
  std::array<int, 3> dims_;
  std::vector<sim::Time> link_free_;
  std::vector<sim::Time> nic_gate_;  ///< message-rate gate per NIC
  std::int64_t bytes_sent_ = 0;
  std::int64_t link_bytes_ = 0;           ///< bytes serialized over links
  std::int64_t expected_link_bytes_ = 0;  ///< sum of bytes * hops per message
  // obs instrumentation (null when nothing collects): per-dimension hop
  // counts and the busy wait a chunk spends queued behind a shared link.
  std::array<obs::Counter*, 3> obs_hops_ = {nullptr, nullptr, nullptr};
  obs::Counter* obs_msgs_ = nullptr;
  obs::Histogram* obs_link_wait_ns_ = nullptr;
};

}  // namespace dvx::torus

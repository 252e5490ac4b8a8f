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
// The timing itself is net::Interconnect's link model, the same one the
// fat-tree runs on; this class supplies the dimension-order route and its
// obs metrics.

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
  /// NIC constants; 3 GB/s usable per directed link (APEnet+, ~34 Gb/s raw).
  net::LinkParams link{.link_bw = 3.0e9};
  sim::Duration hop_latency = sim::ns(150);  ///< per-router forwarding latency
};

class Fabric final : public net::Interconnect {
 public:
  explicit Fabric(int nodes, TorusParams params = {});

  /// Resolved grid dimensions (TorusParams::dims with zeros factorized).
  const std::array<int, 3>& dims() const noexcept { return dims_; }

  /// Grid coordinates of `node` (x fastest-varying).
  std::array<int, 3> coords(int node) const;
  /// Node id at grid coordinates (inverse of coords()).
  int node_at(int x, int y, int z) const;

  /// Shortest-wraparound hop count per dimension for src -> dst.
  std::array<int, 3> dim_hops(int src, int dst) const;
  /// Total wraparound Manhattan distance (sum of dim_hops), the number of
  /// links a dimension-order-routed message traverses.
  int path_links(int src, int dst) const override;

  // Directed links: 6 per node, ordered +x, -x, +y, -y, +z, -z. Public so
  // the routing property tests can name exact links on the expected path.
  std::size_t link_id(int node, int dim, bool positive) const {
    return static_cast<std::size_t>(node) * 6 +
           static_cast<std::size_t>(2 * dim + (positive ? 0 : 1));
  }
  /// Appends the dimension-order route src -> dst (X, then Y, then Z) to
  /// `path` as directed link ids. Deterministic: each dimension takes the
  /// shortest wraparound direction, and the even-extent tie (distance
  /// exactly dims[d]/2 both ways) always routes positive. Public for the
  /// test that pins that.
  void build_path(int src, int dst, std::vector<std::size_t>& path) const;

 protected:
  /// build_path plus its minimal-route checks and the per-message metrics.
  /// Every traversed link ends in a router (or the destination NIC), so the
  /// head pays hop_latency per link.
  sim::Duration route(int src, int dst, std::vector<std::size_t>& path) override;

 private:
  TorusParams params_;
  std::array<int, 3> dims_;
  // obs instrumentation (null when nothing collects): per-dimension hop
  // counts and the message count; the link wait is the base's histogram.
  std::array<obs::Counter*, 3> obs_hops_ = {nullptr, nullptr, nullptr};
  obs::Counter* obs_msgs_ = nullptr;
};

}  // namespace dvx::torus

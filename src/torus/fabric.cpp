#include "torus/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::torus {

namespace {

/// Deterministic near-cubic factorization: the largest divisor <= cbrt(n)
/// becomes X, the largest divisor of the rest <= sqrt(rest) becomes Y.
/// Prime counts degenerate to a 1 x 1 x n ring, which is still a torus.
std::array<int, 3> factorize(int n) {
  int dx = 1;
  for (int f = 1; static_cast<std::int64_t>(f) * f * f <= n; ++f) {
    if (n % f == 0) dx = f;
  }
  const int rest = n / dx;
  int dy = 1;
  for (int f = 1; static_cast<std::int64_t>(f) * f <= rest; ++f) {
    if (rest % f == 0) dy = f;
  }
  return {dx, dy, rest / dy};
}

}  // namespace

Fabric::Fabric(int nodes, TorusParams params)
    : net::Interconnect(nodes, static_cast<std::size_t>(nodes) * 6, params.link),
      params_(params) {
  const auto& d = params_.dims;
  if (d[0] == 0 && d[1] == 0 && d[2] == 0) {
    dims_ = factorize(nodes);
  } else {
    if (d[0] <= 0 || d[1] <= 0 || d[2] <= 0) {
      throw std::invalid_argument(
          "torus::Fabric: set all three dims (or none to auto-factorize)");
    }
    if (static_cast<std::int64_t>(d[0]) * d[1] * d[2] != nodes) {
      throw std::invalid_argument(
          "torus::Fabric: dims product must equal the node count");
    }
    dims_ = d;
  }
  if (obs::Registry* m = obs::metrics()) {
    obs_hops_[0] = m->counter("torus.hops", {{"dim", "x"}});
    obs_hops_[1] = m->counter("torus.hops", {{"dim", "y"}});
    obs_hops_[2] = m->counter("torus.hops", {{"dim", "z"}});
    obs_msgs_ = m->counter("torus.msgs");
    link_wait_ns_ = m->histogram("torus.link.wait_ns");
  }
}

std::array<int, 3> Fabric::coords(int node) const {
  if (node < 0 || node >= nodes()) {
    throw std::out_of_range("torus::Fabric::coords: node out of range");
  }
  return {node % dims_[0], (node / dims_[0]) % dims_[1],
          node / (dims_[0] * dims_[1])};
}

int Fabric::node_at(int x, int y, int z) const {
  if (x < 0 || x >= dims_[0] || y < 0 || y >= dims_[1] || z < 0 || z >= dims_[2]) {
    throw std::out_of_range("torus::Fabric::node_at: coordinate out of range");
  }
  return x + dims_[0] * (y + dims_[1] * z);
}

std::array<int, 3> Fabric::dim_hops(int src, int dst) const {
  const auto a = coords(src);
  const auto b = coords(dst);
  std::array<int, 3> out{};
  for (int d = 0; d < 3; ++d) {
    int delta = b[static_cast<std::size_t>(d)] - a[static_cast<std::size_t>(d)];
    if (delta < 0) delta += dims_[static_cast<std::size_t>(d)];
    out[static_cast<std::size_t>(d)] =
        std::min(delta, dims_[static_cast<std::size_t>(d)] - delta);
  }
  return out;
}

int Fabric::path_links(int src, int dst) const {
  const auto h = dim_hops(src, dst);
  return h[0] + h[1] + h[2];
}

void Fabric::build_path(int src, int dst, std::vector<std::size_t>& path) const {
  auto cur = coords(src);
  const auto want = coords(dst);
  int node = src;
  for (int d = 0; d < 3; ++d) {
    const int dim = dims_[static_cast<std::size_t>(d)];
    int delta = want[static_cast<std::size_t>(d)] - cur[static_cast<std::size_t>(d)];
    if (delta < 0) delta += dim;
    if (delta == 0) continue;
    // Shortest wraparound direction; the tie on even dimensions (delta ==
    // dim/2) goes positive so routing stays deterministic.
    const bool positive = 2 * delta <= dim;
    const int steps = positive ? delta : dim - delta;
    for (int s = 0; s < steps; ++s) {
      path.push_back(link_id(node, d, positive));
      auto& c = cur[static_cast<std::size_t>(d)];
      c = (c + (positive ? 1 : dim - 1)) % dim;
      node = node_at(cur[0], cur[1], cur[2]);
    }
  }
}

sim::Duration Fabric::route(int src, int dst, std::vector<std::size_t>& path) {
  build_path(src, dst, path);
  const auto per_dim = dim_hops(src, dst);
  // Dimension-order routing is minimal: the path is exactly the wraparound
  // Manhattan distance, never more than half of each dimension.
  DVX_CHECK_EQ(path.size(),
               static_cast<std::size_t>(per_dim[0] + per_dim[1] + per_dim[2]))
      << "torus route is not minimal";
  DVX_CHECK(2 * per_dim[0] <= dims_[0] && 2 * per_dim[1] <= dims_[1] &&
            2 * per_dim[2] <= dims_[2])
      << "torus per-dimension hops exceed half the ring";
  for (int d = 0; d < 3; ++d) {
    auto* c = obs_hops_[static_cast<std::size_t>(d)];
    if (c != nullptr) c->add(static_cast<std::uint64_t>(per_dim[static_cast<std::size_t>(d)]));
  }
  if (obs_msgs_ != nullptr) obs_msgs_->inc();
  return params_.hop_latency * static_cast<sim::Duration>(path.size());
}

}  // namespace dvx::torus

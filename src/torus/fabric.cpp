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

Fabric::Fabric(int nodes, TorusParams params) : nodes_(nodes), params_(params) {
  if (nodes <= 0) {
    throw std::invalid_argument("torus::Fabric: need at least one node");
  }
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
  link_free_.assign(static_cast<std::size_t>(nodes_) * 6, 0);
  nic_gate_.assign(static_cast<std::size_t>(nodes_), 0);
  if (obs::Registry* m = obs::metrics()) {
    obs_hops_[0] = m->counter("torus.hops", {{"dim", "x"}});
    obs_hops_[1] = m->counter("torus.hops", {{"dim", "y"}});
    obs_hops_[2] = m->counter("torus.hops", {{"dim", "z"}});
    obs_msgs_ = m->counter("torus.msgs");
    obs_link_wait_ns_ = m->histogram("torus.link.wait_ns");
  }
}

void Fabric::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0);
  std::fill(nic_gate_.begin(), nic_gate_.end(), 0);
  bytes_sent_ = 0;
  link_bytes_ = 0;
  expected_link_bytes_ = 0;
}

std::array<int, 3> Fabric::coords(int node) const {
  if (node < 0 || node >= nodes_) {
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

int Fabric::hops(int src, int dst) const {
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

MsgTiming Fabric::send_message(int src, int dst, std::int64_t bytes,
                               sim::Time ready) {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("torus::Fabric::send_message: node out of range");
  }
  if (bytes <= 0) bytes = 1;
  bytes_sent_ += bytes;

  if (src == dst) {
    // Loopback: the MPI runtime short-circuits through shared memory; pure
    // local math.
      const sim::Time done = ready + sim::transfer_time(bytes, params_.memcpy_bw);
    return MsgTiming{done, done};
  }

  // Message-rate gate: the NIC cannot start messages faster than msg_rate.
  auto& gate = nic_gate_[static_cast<std::size_t>(src)];
  const auto gap = static_cast<sim::Duration>(1e12 / params_.msg_rate);
  const sim::Time start = std::max(ready, gate);
  gate = start + gap;

  std::vector<std::size_t> path;
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

  // Every traversed link ends in a router (or the destination NIC), so the
  // head pays hop_latency per link on top of per-link serialization.
  const auto hop_lat =
      params_.hop_latency * static_cast<sim::Duration>(path.size());
  MsgTiming out{0, 0};
  std::int64_t remaining = bytes;
  sim::Time chunk_ready = start;
  bool first = true;
  while (remaining > 0) {
    const std::int64_t chunk = std::min(remaining, params_.mtu);
    // Per-chunk NIC processing (packet formation) before serialization.
    sim::Time t = chunk_ready + params_.chunk_overhead;
    for (std::size_t link : path) {
      auto& free = link_free_[link];
      if (obs_link_wait_ns_ != nullptr && free > t) {
        obs_link_wait_ns_->observe(static_cast<std::uint64_t>((free - t) / 1000));
      }
      t = std::max(t, free);
      t += sim::transfer_time(chunk, params_.link_bw);
      free = t;
      link_bytes_ += chunk;
    }
    t += hop_lat + params_.wire_latency;
    if (first) {
      out.first_arrival = t;
      first = false;
    }
    out.last_arrival = t;
    // Next chunk can start forming once this one left the source NIC.
    chunk_ready = link_free_[path.front()];
    remaining -= chunk;
  }
  expected_link_bytes_ += bytes * static_cast<std::int64_t>(path.size());
  // Conservation: every payload byte is serialized on exactly hops() links —
  // nothing vanishes and nothing is double-counted.
  DVX_CHECK_SOON_EQ(link_bytes_, expected_link_bytes_)
      << "torus link-byte conservation broken";
  DVX_CHECK(out.first_arrival >= start && out.last_arrival >= out.first_arrival)
      << "torus arrivals not monotonic";
  return out;
}

}  // namespace dvx::torus

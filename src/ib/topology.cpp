#include "ib/topology.hpp"

#include <algorithm>
#include <stdexcept>


namespace dvx::ib {

Fabric::Fabric(int nodes, IbParams params) : nodes_(nodes), params_(params) {
  if (nodes <= 0) throw std::invalid_argument("ib::Fabric: need at least one node");
  if (params_.nodes_per_leaf <= 0) {
    throw std::invalid_argument("ib::Fabric: nodes_per_leaf must be positive");
  }
  leaves_ = (nodes + params_.nodes_per_leaf - 1) / params_.nodes_per_leaf;
  // Full-bisection two-level tree: one spine per leaf down-port would be
  // non-blocking; real deployments taper. Use half as many spines as leaf
  // down-ports (2:1 oversubscription) with at least one spine.
  spines_ = leaves_ > 1 ? std::max(1, params_.nodes_per_leaf / 2) : 0;
  const std::size_t links =
      static_cast<std::size_t>(2 * nodes_) +
      static_cast<std::size_t>(leaves_) * static_cast<std::size_t>(std::max(spines_, 1)) * 2;
  link_free_.assign(links, 0);
  nic_gate_.assign(static_cast<std::size_t>(nodes_), 0);
}

void Fabric::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0);
  std::fill(nic_gate_.begin(), nic_gate_.end(), 0);
  bytes_sent_ = 0;
}

int Fabric::path_links(int src, int dst) const {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("ib::Fabric::path_links: node out of range");
  }
  if (src == dst) return 0;
  return leaf_of(src) == leaf_of(dst) ? 2 : 4;
}

MsgTiming Fabric::send_message(int src, int dst, std::int64_t bytes, sim::Time ready) {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("ib::Fabric::send_message: node out of range");
  }
  if (bytes <= 0) bytes = 1;
  bytes_sent_ += bytes;

  if (src == dst) {
    // Loopback: the MPI runtime short-circuits through shared memory; pure
    // local math, so MpiWorld may call it mid-window.
      const sim::Time done = ready + sim::transfer_time(bytes, params_.memcpy_bw);
    return MsgTiming{done, done};
  }

  // Everything below mutates the link/NIC ledgers: MpiWorld reaches it only
  // from the canonical window-close replay.
  // Message-rate gate: the NIC cannot start messages faster than msg_rate.
  auto& gate = nic_gate_[static_cast<std::size_t>(src)];
  const auto gap = static_cast<sim::Duration>(1e12 / params_.msg_rate);
  sim::Time start = std::max(ready, gate);
  gate = start + gap;

  const int src_leaf = leaf_of(src);
  const int dst_leaf = leaf_of(dst);
  // Static (destination-based) routing: flows to the same destination pick
  // the same spine, which is exactly what creates fat-tree hotspots.
  const int spine = spines_ > 0 ? dst % spines_ : 0;

  std::vector<std::size_t> path;
  path.push_back(up_link(src));
  if (src_leaf != dst_leaf) {
    path.push_back(leaf_spine(src_leaf, spine));
    path.push_back(spine_leaf(dst_leaf, spine));
  }
  path.push_back(down_link(dst));

  const auto hop_lat =
      params_.switch_hop * static_cast<sim::Duration>(path.size() - 1);
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
      t = std::max(t, free);
      t += sim::transfer_time(chunk, params_.link_bw);
      free = t;
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
  return out;
}

}  // namespace dvx::ib

#include "net/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/check.hpp"

namespace dvx::net {

Interconnect::Interconnect(int nodes, std::size_t links, const LinkParams& link)
    : nodes_(nodes), link_(link) {
  if (nodes <= 0) {
    throw std::invalid_argument("net::Interconnect: need at least one node");
  }
  if (!(link.link_bw > 0) || link.mtu <= 0 || !(link.msg_rate > 0) ||
      !(link.memcpy_bw > 0)) {
    throw std::invalid_argument(
        "net::Interconnect: link_bw, mtu, msg_rate and memcpy_bw must be positive");
  }
  link_free_.assign(links, 0);
  nic_gate_.assign(static_cast<std::size_t>(nodes_), 0);
}

void Interconnect::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0);
  std::fill(nic_gate_.begin(), nic_gate_.end(), 0);
  bytes_sent_ = 0;
  link_bytes_ = 0;
  expected_link_bytes_ = 0;
}

MsgTiming Interconnect::send_message(int src, int dst, std::int64_t bytes,
                                     sim::Time ready) {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("net::Interconnect::send_message: node out of range");
  }
  if (bytes <= 0) bytes = 1;
  bytes_sent_ += bytes;

  if (src == dst) {
    // Loopback: the MPI runtime short-circuits through shared memory; pure
    // local math.
    const sim::Time done = ready + sim::transfer_time(bytes, link_.memcpy_bw);
    return MsgTiming{done, done};
  }

  // Message-rate gate: the NIC cannot start messages faster than msg_rate.
  auto& gate = nic_gate_[static_cast<std::size_t>(src)];
  const auto gap = static_cast<sim::Duration>(1e12 / link_.msg_rate);
  const sim::Time start = std::max(ready, gate);
  gate = start + gap;

  path_.clear();
  const sim::Duration head = route(src, dst, path_);
  MsgTiming out{0, 0};
  std::int64_t remaining = bytes;
  sim::Time chunk_ready = start;
  bool first = true;
  while (remaining > 0) {
    const std::int64_t chunk = std::min(remaining, link_.mtu);
    // Per-chunk NIC processing (packet formation) before serialization.
    sim::Time t = chunk_ready + link_.chunk_overhead;
    for (std::size_t id : path_) {
      auto& free = link_free_[id];
      if (link_wait_ns_ != nullptr && free > t) {
        link_wait_ns_->observe(static_cast<std::uint64_t>((free - t) / 1000));
      }
      t = std::max(t, free);
      t += sim::transfer_time(chunk, link_.link_bw);
      free = t;
      link_bytes_ += chunk;
    }
    t += head + link_.wire_latency;
    if (first) {
      out.first_arrival = t;
      first = false;
    }
    out.last_arrival = t;
    // Next chunk can start forming once this one left the source NIC.
    chunk_ready = link_free_[path_.front()];
    remaining -= chunk;
  }
  expected_link_bytes_ += bytes * static_cast<std::int64_t>(path_.size());
  // Conservation: every payload byte is serialized on exactly path_links()
  // links — nothing vanishes and nothing is double-counted.
  DVX_CHECK_SOON_EQ(path_.size(), static_cast<std::size_t>(path_links(src, dst)))
      << "route and path_links disagree";
  DVX_CHECK_SOON_EQ(link_bytes_, expected_link_bytes_)
      << "link-byte conservation broken";
  DVX_CHECK(out.first_arrival >= start && out.last_arrival >= out.first_arrival)
      << "arrivals not monotonic";
  return out;
}

}  // namespace dvx::net

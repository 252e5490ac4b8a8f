#pragma once
// The link-level timing model both MPI fabrics share (DESIGN.md §11).
//
// Every network the MPI runtime can run over — the InfiniBand fat-tree
// (ib::Fabric), the 3D torus (torus::Fabric), and whatever comes next — is
// this one model with its own route. The model owns everything a message
// pays that is not topology: the NIC message-rate gate, loopback through
// host memory, MTU chunking, per-link next-free serialization and the
// link-byte conservation check. A fabric supplies only `route()` (the
// directed links a message crosses and the head latency they add) and
// `path_links()` (how many links that is).
//
// The model is purely functional over virtual time:
//
//   * send_message(src, dst, bytes, ready) answers "when does a message
//     injected at `ready` first/last arrive", mutating only the model's
//     next-free-time state. No coroutines, no engine callbacks: the caller
//     (mpi::MpiWorld, a workload) owns the event scheduling.
//   * Determinism: the result may depend only on constructor parameters and
//     the sequence of prior send_message calls. A route must not read
//     wall-clock time or unseeded entropy (the `determinism` rule group of
//     tools/dvx_analyze enforces the ban), so the same call sequence yields
//     byte-identical timings on every host.
//   * `ready` values are nondecreasing across calls, and the link bank
//     relies on that. It holds by construction: mpi::MpiWorld (DESIGN.md
//     §15) calls send_message when it issues a wire transfer, with `ready`
//     at the engine's current time, which never runs backwards.
//
// Adding a network = derive from this class and write route() and
// path_links(), add an exp::Backend id, and register the construction in
// runtime::Cluster. Nothing in src/mpi changes.

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dvx::net {

/// First/last byte arrival of one message, in virtual time.
struct MsgTiming {
  sim::Time first_arrival;
  sim::Time last_arrival;
};

/// NIC and link constants of one fabric. Each fabric states its own
/// `link_bw`; the other five are the same NIC in both MPI fabrics.
struct LinkParams {
  double link_bw = 0.0;          ///< usable bytes/s per directed link
  std::int64_t mtu = 4096;       ///< chunk granularity
  sim::Duration chunk_overhead = sim::ns(190);  ///< NIC per-chunk processing
  sim::Duration wire_latency = sim::ns(500);    ///< NIC-to-NIC base (PCIe+serdes)
  double msg_rate = 100e6;       ///< NIC message-rate cap (msgs/s)
  double memcpy_bw = 8.0e9;      ///< host copy bandwidth (loopback)
};

class Interconnect {
 public:
  virtual ~Interconnect() = default;
  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  /// Number of endpoints; valid node ids are [0, nodes()).
  int nodes() const noexcept { return nodes_; }
  const LinkParams& link() const noexcept { return link_; }

  /// Number of links on the route src -> dst; 0 for src == dst. Throws
  /// std::out_of_range when either node id is outside [0, nodes()).
  virtual int path_links(int src, int dst) const = 0;

  /// Moves `bytes` from `src` to `dst`, first byte injectable at `ready`.
  /// Chunks at MTU, serializes every chunk on each link of the route, and
  /// enforces the NIC message-rate gap. src == dst is a host memcpy that
  /// touches no link, gate or counter but bytes_sent(). Throws
  /// std::out_of_range when either node id is outside [0, nodes()).
  MsgTiming send_message(int src, int dst, std::int64_t bytes, sim::Time ready);

  /// Total bytes offered to the fabric so far (diagnostics).
  std::int64_t bytes_sent() const noexcept { return bytes_sent_; }

  /// Total bytes serialized across all links. Conservation: equals the sum
  /// over messages of bytes * path_links(src, dst); audited at check level
  /// 2 and exposed for the property tests.
  std::int64_t link_bytes() const noexcept { return link_bytes_; }

  /// Clears all contention state (link next-free times, NIC gates, byte
  /// counters) back to construction values. Obs instruments keep counting.
  void reset();

 protected:
  /// `links` is the size of the fabric's link bank: route() names links by
  /// their index in [0, links). Throws std::invalid_argument when nodes <= 0
  /// or a rate or the MTU is not positive (LinkParams{} has no link_bw).
  Interconnect(int nodes, std::size_t links, const LinkParams& link);

  /// Appends the directed links src -> dst crosses, in order, to `path`
  /// (src != dst, both in range) and returns the head latency they add.
  virtual sim::Duration route(int src, int dst, std::vector<std::size_t>& path) = 0;

  /// Busy wait a chunk spends queued behind a link, in ns; null when the
  /// fabric records none.
  obs::Histogram* link_wait_ns_ = nullptr;

 private:
  int nodes_;
  LinkParams link_;
  std::vector<sim::Time> link_free_;
  std::vector<sim::Time> nic_gate_;  ///< message-rate gate per NIC
  std::vector<std::size_t> path_;    ///< route of the message being sent
  std::int64_t bytes_sent_ = 0;
  std::int64_t link_bytes_ = 0;           ///< bytes serialized over links
  std::int64_t expected_link_bytes_ = 0;  ///< sum of bytes * links per message
};

}  // namespace dvx::net

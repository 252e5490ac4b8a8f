#pragma once
// The VIC's "surprise packet" FIFO (paper §II/§III): a network-addressable
// input queue that non-destructively buffers thousands of 8-byte messages
// with no pre-arranged DV-memory slot. Arrival order across the network is
// not guaranteed; the developer polls and handles reordering.
//
// A background DMA process drains the hardware FIFO into a host-side ring
// buffer, so host polls are cheap (no PCIe round trip); that is why poll()
// here exposes packets by arrival time without an extra read latency.

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "vic/packet.hpp"

namespace dvx::vic {

class SurpriseFifo {
 public:
  /// "thousands of 8-byte messages": default ring of 64 Ki entries.
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

  /// `node` labels this FIFO's obs metrics (the owning VIC's id); pass the
  /// default for standalone FIFOs outside a cluster.
  explicit SurpriseFifo(sim::Engine& engine, std::size_t capacity = kDefaultCapacity,
                        int node = -1);

  /// Network-side deposit: the packet becomes visible to the host at `at`
  /// (clamped to now). On overflow the packet is dropped (counted in
  /// dropped()). Throws std::logic_error when the clamped arrival is earlier
  /// than the last buffered one: the fabric ejects into a VIC through one
  /// switch port whose next-free time only moves forward (DESIGN.md §10.5).
  void deposit(sim::Time at, Packet p);

  /// Host-side poll: removes and returns every packet visible now.
  std::vector<Packet> poll();

  /// Waits until at least one packet is visible, then returns all of them.
  sim::Coro<std::vector<Packet>> wait_packets();

  /// True if a packet is visible at the current virtual time.
  bool ready() const;

  std::size_t buffered() const noexcept { return entries_.size() - head_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t total_deposited() const noexcept { return deposited_; }
  std::uint64_t total_drained() const noexcept { return drained_; }

 private:
  struct Entry {
    sim::Time at;
    Packet packet;
  };

  /// Arrival of the next packet to leave; requires buffered() > 0.
  sim::Time earliest() const noexcept { return entries_[head_].at; }

  sim::Engine& engine_;
  sim::Condition cond_;
  // obs instrumentation (null when nothing collects); the depth gauge's max
  // is the FIFO's high-water mark.
  obs::Gauge* obs_depth_ = nullptr;
  obs::Counter* obs_deposits_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
  // entries_[head_..] are the buffered packets in arrival order, equal
  // arrivals in deposit order (DESIGN.md §10.5); entries_[..head_] were
  // drained and are erased once they make up half the vector.
  std::vector<Entry> entries_;
  std::size_t head_ = 0;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t deposited_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace dvx::vic

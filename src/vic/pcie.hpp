#pragma once
// PCI Express 3.0 link between a host node and its VIC.
//
// The paper's measured behaviour this model encodes (§V, Fig. 3):
//  * direct (programmed-I/O) writes of packets to the network are limited by
//    the PCIe lane read bandwidth — about 500 MB/s, one lane;
//  * direct reads are slower still (reads are non-posted round trips);
//  * DMA transfers run several times faster ("up to 4x faster than direct
//    writes ... up to 8x faster than direct reads") and incoming/outgoing
//    DMA can overlap because the directions are independent;
//  * with DMA + pre-cached headers the VIC can feed the fabric at its
//    nominal 4.4 GB/s for large transfers (the paper measures 99.4% of peak
//    at 256 Ki words).
//
// The link is modelled as two independent directions (host->VIC "down",
// VIC->host "up"), each a serialized resource with a next-free time.

#include <cstdint>

#include "sim/time.hpp"

namespace dvx::vic {

struct PcieParams {
  /// Programmed-I/O write path (header+payload pushed by the CPU).
  double direct_write_bw = 0.5e9;  // bytes/s — paper: "500 MB/s, one lane"
  /// Programmed-I/O read path (non-posted PCIe round trips).
  double direct_read_bw = 0.25e9;
  /// DMA host memory -> DV memory. Must exceed the fabric's 4.4 GB/s port
  /// rate so DMA/Cached ping-pong can reach 99.4% of network peak (Fig. 3b).
  double dma_to_vic_bw = 5.5e9;
  /// DMA DV memory -> host memory.
  double dma_from_vic_bw = 6.0e9;
  /// Per-transaction latencies.
  sim::Duration posted_write_latency = sim::ns(150);
  sim::Duration read_latency = sim::ns(700);
  sim::Duration dma_setup = sim::us(1.2);
  /// DMA-table entry coverage; transfers are chunked at this granularity so
  /// that concurrent flows interleave realistically.
  std::int64_t dma_entry_bytes = 4096;
  /// The VIC DMA table holds 8192 entries; a transaction needing more incurs
  /// an extra setup per table refill.
  int dma_table_entries = 8192;
};

enum class PcieDir : int { kHostToVic = 0, kVicToHost = 1 };

class PcieLink {
 public:
  explicit PcieLink(PcieParams params) : params_(params) {}

  const PcieParams& params() const noexcept { return params_; }

  /// Serializes `bytes` on one direction at `bw` starting no earlier than
  /// `ready`; returns the completion time. Monotone in call order.
  sim::Time occupy(PcieDir dir, std::int64_t bytes, double bw, sim::Time ready);

  /// Programmed-I/O write of `bytes` (posted; pipelined at direct_write_bw).
  sim::Time direct_write(std::int64_t bytes, sim::Time ready);

  /// Programmed-I/O read of `bytes` (adds the round-trip read latency).
  sim::Time direct_read(std::int64_t bytes, sim::Time ready);

 private:
  PcieParams params_;
  sim::Time free_[2] = {0, 0};
};

}  // namespace dvx::vic

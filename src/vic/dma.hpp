#pragma once
// VIC DMA engines (paper §III): two engines move data between host memory,
// DV memory, and the network. Transactions are described by DMA-table
// entries (8192 available); large transfers are chunked at entry granularity
// and a transfer needing more entries than the table holds pays an extra
// setup per refill. Requires HugeTLB-backed host buffers on the real system;
// here that constraint surfaces only as the registration API in dvapi.

#include <cstdint>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "vic/pcie.hpp"

namespace dvx::vic {

struct DmaResult {
  sim::Time start;     ///< when the engine began moving data
  sim::Time complete;  ///< when the last byte landed
};

class DmaEngine {
 public:
  /// `node` labels this engine's obs metrics (the owning VIC's id).
  DmaEngine(PcieLink& link, PcieDir dir, int node = -1);

  /// Schedules a DMA of `bytes`; returns start/completion times. Serializes
  /// on both this engine and the PCIe direction it uses. Monotone in call
  /// order.
  DmaResult transfer(std::int64_t bytes, sim::Time ready);

  std::uint64_t transactions() const noexcept { return transactions_; }

 private:
  PcieLink& link_;
  PcieDir dir_;
  // obs instrumentation (null when nothing collects).
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_transactions_ = nullptr;
  sim::Time busy_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace dvx::vic

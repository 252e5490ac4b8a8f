#include "vic/dma.hpp"

#include <algorithm>
#include <string>

#include "obs/collector.hpp"

namespace dvx::vic {

DmaEngine::DmaEngine(PcieLink& link, PcieDir dir, int node) : link_(link), dir_(dir) {
  if (obs::Registry* m = obs::metrics()) {
    const obs::Labels labels{
        {"dir", dir == PcieDir::kHostToVic ? "to_vic" : "from_vic"},
        {"node", std::to_string(node)}};
    obs_bytes_ = m->counter("vic.dma.bytes", labels);
    obs_transactions_ = m->counter("vic.dma.transactions", labels);
  }
}

DmaResult DmaEngine::transfer(std::int64_t bytes, sim::Time ready) {
  const auto& p = link_.params();
  if (bytes <= 0) return DmaResult{ready, ready};
  ++transactions_;
  if (obs_bytes_ != nullptr) {
    obs_bytes_->add(static_cast<std::uint64_t>(bytes));
    obs_transactions_->inc();
  }

  const double bw =
      dir_ == PcieDir::kHostToVic ? p.dma_to_vic_bw : p.dma_from_vic_bw;
  const std::int64_t table_span =
      static_cast<std::int64_t>(p.dma_table_entries) * p.dma_entry_bytes;

  sim::Time t = std::max(ready, busy_);
  const sim::Time start = t;
  std::int64_t remaining = bytes;
  while (remaining > 0) {
    const std::int64_t batch = std::min(remaining, table_span);
    t += p.dma_setup;  // program the table (once per refill)
    // Chunk at entry granularity so concurrent traffic on the shared PCIe
    // direction interleaves rather than being lumped behind one giant burst.
    std::int64_t left = batch;
    while (left > 0) {
      const std::int64_t chunk = std::min(left, p.dma_entry_bytes);
      t = link_.occupy(dir_, chunk, bw, t);
      left -= chunk;
    }
    remaining -= batch;
  }
  busy_ = t;
  return DmaResult{start, t};
}

}  // namespace dvx::vic

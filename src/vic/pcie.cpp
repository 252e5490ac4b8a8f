#include "vic/pcie.hpp"

#include <algorithm>

namespace dvx::vic {

sim::Time PcieLink::occupy(PcieDir dir, std::int64_t bytes, double bw, sim::Time ready) {
  if (bytes <= 0) return ready;
  auto& free = free_[static_cast<int>(dir)];
  const sim::Time start = std::max(ready, free);
  free = start + sim::transfer_time(bytes, bw);
  return free;
}

sim::Time PcieLink::direct_write(std::int64_t bytes, sim::Time ready) {
  return occupy(PcieDir::kHostToVic, bytes, params_.direct_write_bw,
                ready + params_.posted_write_latency);
}

sim::Time PcieLink::direct_read(std::int64_t bytes, sim::Time ready) {
  return occupy(PcieDir::kVicToHost, bytes, params_.direct_read_bw,
                ready + params_.read_latency);
}

}  // namespace dvx::vic

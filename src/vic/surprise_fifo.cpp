#include "vic/surprise_fifo.hpp"

#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::vic {

SurpriseFifo::SurpriseFifo(sim::Engine& engine, std::size_t capacity, int node)
    : engine_(engine), cond_(engine), capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("SurpriseFifo: zero capacity");
  if (obs::Registry* m = obs::metrics()) {
    const obs::Labels labels{{"node", std::to_string(node)}};
    obs_depth_ = m->gauge("vic.fifo.depth", labels);
    obs_deposits_ = m->counter("vic.fifo.deposits", labels);
    obs_dropped_ = m->counter("vic.fifo.dropped", labels);
  }
}

void SurpriseFifo::deposit(sim::Time at, Packet p) {
  if (buffered() >= capacity_) {
    ++dropped_;
    if (obs_dropped_ != nullptr) obs_dropped_->inc();
    return;
  }
  if (at < engine_.now()) at = engine_.now();
  if (!entries_.empty() && at < entries_.back().at) {
    throw std::logic_error("SurpriseFifo: deposit arriving at " + std::to_string(at) +
                           " ps is earlier than the previous arrival at " +
                           std::to_string(entries_.back().at) + " ps");
  }
  entries_.push_back(Entry{at, p});
  ++deposited_;
  if (obs_deposits_ != nullptr) {
    obs_deposits_->inc();
    obs_depth_->sample(static_cast<double>(buffered()));
  }
  // A deposit is made when its burst is injected, ahead of its physical
  // arrival. Waiters wake when the first buffered packet lands: a waiter
  // already sleeping toward an earlier arrival must not be moved to this
  // one's, since a notify consumes the waiter's own deadline.
  cond_.notify_all(earliest());
}

std::vector<Packet> SurpriseFifo::poll() {
  std::vector<Packet> out;
  const sim::Time now = engine_.now();
  if (buffered() > 0 && earliest() <= now) {
    std::size_t end = head_;
    while (end < entries_.size() && entries_[end].at <= now) ++end;
    out.reserve(end - head_);
    for (std::size_t i = head_; i < end; ++i) out.push_back(entries_[i].packet);
    head_ = end;
    // Drop the drained prefix once it outweighs the live entries, so the
    // copy is paid for by the polls that drained it.
    if (2 * head_ >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  drained_ += out.size();
  // Message conservation: every deposited packet is drained, still
  // buffered, or was counted as dropped — nothing vanishes silently.
  DVX_CHECK_EQ(deposited_, drained_ + buffered())
      << "surprise FIFO lost packets. ";
  return out;
}

bool SurpriseFifo::ready() const {
  return buffered() > 0 && earliest() <= engine_.now();
}

sim::Coro<std::vector<Packet>> SurpriseFifo::wait_packets() {
  for (;;) {
    if (ready()) co_return poll();
    if (buffered() > 0) {
      co_await cond_.wait_until(earliest());
    } else {
      co_await cond_.wait();
    }
  }
}

}  // namespace dvx::vic

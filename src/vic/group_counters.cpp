#include "vic/group_counters.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/collector.hpp"

namespace dvx::vic {

GroupCounter::GroupCounter(sim::Engine& engine, int node)
    : engine_(engine), cond_(engine) {
  if (obs::Registry* m = obs::metrics()) {
    const obs::Labels labels{{"node", std::to_string(node)}};
    obs_waits_ = m->counter("vic.counter.waits", labels);
    obs_wait_ps_ = m->counter("vic.counter.wait_ps", labels);
    obs_timeouts_ = m->counter("vic.counter.timeouts", labels);
  }
}

void GroupCounter::set(sim::Time at, std::uint64_t v) {
  value_ = v;
  settle_ = std::max(settle_, std::max(at, engine_.now()));
  // Network sets arrive from the window-close resolution, whose clock sits
  // at the window floor, behind the waiters' own clock; the notify therefore
  // carries the physical settle time.
  cond_.notify_all(settle_);
}

void GroupCounter::decrement(const ArrivalRamp& arrivals, std::uint64_t n) {
  if (n == 0) return;
  if (value_ == 0) {
    // Hardware hazard reproduced: arrivals against a zero counter are lost
    // (paper §III: "the initial packet arrival is lost").
    lost_ += n;
    return;
  }
  const std::uint64_t applied = std::min(value_, n);
  lost_ += n - applied;
  value_ -= applied;
  const sim::Time floor = std::max(settle_, engine_.now());
  // notify_all hands its waiter list off, so only the first applied word's
  // (physical) arrival can wake anyone; arrivals are nondecreasing, so the
  // last applied word sets the settle time.
  cond_.notify_all(std::max(floor, arrivals.at(0)));
  settle_ = std::max(floor, arrivals.at(static_cast<std::int64_t>(applied) - 1));
}

sim::Coro<bool> GroupCounter::wait_zero(sim::Duration timeout) {
  const sim::Time begin = engine_.now();
  const sim::Time deadline =
      timeout < 0 ? std::numeric_limits<sim::Time>::max() : engine_.now() + timeout;
  for (;;) {
    if (value_ == 0 && settle_ <= engine_.now()) {
      if (obs_waits_ != nullptr) {
        obs_waits_->inc();
        obs_wait_ps_->add(static_cast<std::uint64_t>(engine_.now() - begin));
      }
      co_return true;
    }
    if (engine_.now() >= deadline) {
      if (obs_waits_ != nullptr) {
        obs_waits_->inc();
        obs_wait_ps_->add(static_cast<std::uint64_t>(engine_.now() - begin));
        obs_timeouts_->inc();
      }
      co_return false;
    }
    const sim::Time target = value_ == 0 ? std::min(settle_, deadline) : deadline;
    if (target == std::numeric_limits<sim::Time>::max()) {
      // No finite wake-up target: a timed wait would park a far-future event
      // in the queue and drag the final engine clock out to it.
      co_await cond_.wait();
    } else {
      co_await cond_.wait_until(target);
    }
  }
}

GroupCounterFile::GroupCounterFile(sim::Engine& engine, int node) {
  counters_.reserve(kNumGroupCounters);
  for (int i = 0; i < kNumGroupCounters; ++i) {
    counters_.push_back(std::make_unique<GroupCounter>(engine, node));
  }
}

GroupCounter& GroupCounterFile::at(int id) {
  if (id < 0 || id >= kNumGroupCounters) {
    throw std::out_of_range("GroupCounterFile: bad counter id " + std::to_string(id));
  }
  return *counters_[static_cast<std::size_t>(id)];
}

const GroupCounter& GroupCounterFile::at(int id) const {
  if (id < 0 || id >= kNumGroupCounters) {
    throw std::out_of_range("GroupCounterFile: bad counter id " + std::to_string(id));
  }
  return *counters_[static_cast<std::size_t>(id)];
}

}  // namespace dvx::vic
